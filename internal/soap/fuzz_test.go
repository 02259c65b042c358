package soap

import (
	"bytes"
	"errors"
	"testing"
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
