package soap

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"axml/internal/doc"
)

// FuzzReadRequest: ReadRequest never panics, and write-then-read reaches a
// fixpoint: WriteRequest's output reads back and writes identically from the
// second round on. WriteRequest may refuse a request it cannot express (a
// prefixed method whose local name has a colon) but never writes one that
// does not read back. Seeds live in testdata/fuzz/FuzzReadRequest.
func FuzzReadRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ReadRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		round := func(r *Request) (string, *Request) {
			var b bytes.Buffer
			if err := WriteRequest(&b, r.Method, r.Namespace, r.Params); err != nil {
				t.Skipf("WriteRequest refuses %q in %q: %v", r.Method, r.Namespace, err)
			}
			back, err := ReadRequest(bytes.NewReader(b.Bytes()))
			if err != nil {
				t.Fatalf("WriteRequest output does not read back: %v\n%s", err, b.String())
			}
			return b.String(), back
		}
		_, r1 := round(req)
		w2, r2 := round(r1)
		if w3, _ := round(r2); w2 != w3 {
			t.Fatalf("no fixpoint:\n%s\nvs\n%s", w2, w3)
		}
	})
}

// FuzzReadResponse: ReadResponse never panics; a result forest or a fault
// written back by WriteResponse or WriteFault reads back to a fixpoint.
// Seeds live in testdata/fuzz/FuzzReadResponse.
func FuzzReadResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		forest, err := ReadResponse(bytes.NewReader(data))
		var fault *Fault
		switch {
		case errors.As(err, &fault):
			var b bytes.Buffer
			if err := WriteFault(&b, fault.Code, fault.String); err != nil {
				t.Fatalf("WriteFault: %v", err)
			}
			_, err := ReadResponse(bytes.NewReader(b.Bytes()))
			var back *Fault
			if !errors.As(err, &back) || *back != *fault {
				t.Fatalf("fault %+v read back as %v\n%s", fault, err, b.String())
			}
		case err == nil:
			write := func() string {
				var b bytes.Buffer
				if err := WriteResponse(&b, "Op", "", forest); err != nil {
					t.Fatalf("WriteResponse: %v", err)
				}
				forest, err = ReadResponse(bytes.NewReader(b.Bytes()))
				if err != nil {
					t.Fatalf("WriteResponse output does not read back: %v\n%s", err, b.String())
				}
				return b.String()
			}
			write()
			if w2, w3 := write(), write(); w2 != w3 {
				t.Fatalf("no fixpoint:\n%s\nvs\n%s", w2, w3)
			}
		}
	})
}

// FuzzEnvelopeRoundTrip: any request, response or fault the readers accept
// writes back through the writers, reads back as the same method,
// namespace and forest (or fault), and writes back to identical bytes. A
// forest read from an envelope that puts two text nodes side by side may
// come back with them merged, the way the parser merges adjacent character
// data; every other forest reads back as it was written. Seeds in
// testdata/fuzz/FuzzEnvelopeRoundTrip copy the FuzzReadRequest and
// FuzzReadResponse corpora; the golden envelopes are added here.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	for _, g := range goldenEnvelopes() {
		var b bytes.Buffer
		if err := g.write(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		method, ns, forest, fault, err := decodeEnvelope(data)
		if err != nil {
			return
		}
		write := func(method, ns string, forest []*doc.Node, fault *Fault) []byte {
			var b bytes.Buffer
			switch {
			case fault != nil:
				err = WriteFault(&b, fault.Code, fault.String)
			case strings.HasSuffix(method, "Response"):
				err = WriteResponse(&b, strings.TrimSuffix(method, "Response"), ns, forest)
			default:
				err = WriteRequest(&b, method, ns, forest)
			}
			if err != nil {
				t.Skipf("the writer refuses %q in %q: %v", method, ns, err)
			}
			return b.Bytes()
		}
		w1 := write(method, ns, forest, fault)
		m2, ns2, forest2, fault2, err := decodeEnvelope(w1)
		if err != nil {
			t.Fatalf("written envelope does not read back: %v\n%s", err, w1)
		}
		if m2 != method || ns2 != ns || (fault == nil) != (fault2 == nil) || fault != nil && *fault != *fault2 {
			t.Fatalf("read back as %q in %q (fault %v), wrote %q in %q (fault %v)\n%s", m2, ns2, fault2, method, ns, fault, w1)
		}
		if !adjacentText(forest) && !sameForest(forest, forest2) {
			t.Fatalf("forest changed in the round trip:\n%s", w1)
		}
		if w2 := write(m2, ns2, forest2, fault2); !bytes.Equal(w1, w2) {
			t.Fatalf("rewriting changed the bytes:\n%s\nvs\n%s", w1, w2)
		}
		if _, _, forest3, _, err := decodeEnvelope(w1); err != nil || !sameForest(forest2, forest3) {
			t.Fatalf("written envelope reads differently twice: %v\n%s", err, w1)
		}
	})
}

// adjacentText reports whether some element of forest, or forest itself,
// holds two text nodes side by side.
func adjacentText(forest []*doc.Node) bool {
	for i, n := range forest {
		if n.Kind == doc.Text && i > 0 && forest[i-1].Kind == doc.Text || adjacentText(n.Children) {
			return true
		}
	}
	return false
}

func sameForest(a, b []*doc.Node) bool {
	return slices.EqualFunc(a, b, func(x, y *doc.Node) bool { return x.Equal(y) })
}
