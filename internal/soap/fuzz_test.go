package soap

import (
	"bytes"
	"errors"
	"slices"
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

// FuzzEnvelopeRoundTrip: any envelope the reader accepts — a request of
// one or more calls, a reply of results ending, or not, in a fault, or a
// fault alone — writes back through the writers' primitives, reads back as
// the same entries (method, namespace and forest, or fault), and writes
// back to identical bytes. A forest read from an envelope that puts two
// text nodes side by side may come back with them merged, the way the
// parser merges adjacent character data; every other forest reads back as
// it was written. Seeds in testdata/fuzz/FuzzEnvelopeRoundTrip copy the
// FuzzReadRequest and FuzzReadResponse corpora; the golden envelopes,
// among them a three-call request and a reply of two results and a fault,
// are added here.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	for _, g := range goldenEnvelopes() {
		var b bytes.Buffer
		if err := g.write(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, fault, err := decodeAll(data)
		if err != nil {
			return
		}
		w1 := writeAll(t, entries, fault)
		entries2, fault2, err := decodeAll(w1)
		if err != nil {
			t.Fatalf("written envelope does not read back: %v\n%s", err, w1)
		}
		if len(entries2) != len(entries) || (fault == nil) != (fault2 == nil) || fault != nil && *fault != *fault2 {
			t.Fatalf("read back as %d entries (fault %v), wrote %d (fault %v)\n%s", len(entries2), fault2, len(entries), fault, w1)
		}
		for i, e := range entries {
			e2 := entries2[i]
			if e2.Method != e.Method || e2.Namespace != e.Namespace {
				t.Fatalf("entry %d read back as %q in %q, wrote %q in %q\n%s", i, e2.Method, e2.Namespace, e.Method, e.Namespace, w1)
			}
			if !adjacentText(e.Params) && !sameForest(e.Params, e2.Params) {
				t.Fatalf("entry %d: forest changed in the round trip:\n%s", i, w1)
			}
		}
		if w2 := writeAll(t, entries2, fault2); !bytes.Equal(w1, w2) {
			t.Fatalf("rewriting changed the bytes:\n%s\nvs\n%s", w1, w2)
		}
		entries3, _, err := decodeAll(w1)
		if err != nil {
			t.Fatalf("written envelope reads differently twice: %v\n%s", err, w1)
		}
		for i := range entries3 {
			if !sameForest(entries2[i].Params, entries3[i].Params) {
				t.Fatalf("written envelope reads differently twice:\n%s", w1)
			}
		}
	})
}

// decodeAll decodes every body entry of an envelope, up to MaxEntries, and
// the fault that ends it, if any.
func decodeAll(data []byte) (entries []Request, fault *Fault, err error) {
	err = decodeEntries(data, MaxEntries, func(e Request, f *Fault) error {
		if f != nil {
			fault = f
		} else {
			entries = append(entries, e)
		}
		return nil
	})
	return entries, fault, err
}

// writeAll writes body entries, then a fault if any, as one envelope; a
// fault alone is a fault envelope. It skips the input when an entry cannot
// be written.
func writeAll(t *testing.T, entries []Request, fault *Fault) []byte {
	if len(entries) == 0 {
		return appendFault(nil, fault.Code, fault.String)
	}
	b := []byte(envelopeOpen)
	for _, e := range entries {
		var err error
		if b, err = appendEntry(b, e.Method, "", e.Namespace, e.Params); err != nil {
			t.Skipf("the writer refuses %q in %q: %v", e.Method, e.Namespace, err)
		}
	}
	if fault != nil {
		b = appendFaultEntry(b, fault.Code, fault.String)
	}
	return append(b, envelopeClose...)
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
