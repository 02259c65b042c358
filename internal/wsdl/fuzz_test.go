package wsdl

import (
	"bytes"
	"slices"
	"testing"

	"axml/internal/regex"
	"axml/internal/xsdint"
)

// FuzzParse feeds Parse the bytes a peer fetches from a remote /wsdl. It
// must never panic, and whatever it accepts must survive Write: the
// printed description parses back to the same name, endpoint, operations
// and operation signatures.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Parse(bytes.NewReader(data), xsdint.Options{})
		if err != nil {
			return
		}
		out, err := String(d, nil)
		if err != nil {
			return // the embedded schema has no XSD_int rendering
		}
		back, err := ParseString(out, xsdint.Options{})
		if err != nil {
			t.Fatalf("Write output does not parse: %v\n%s", err, out)
		}
		if back.Name != d.Name || back.Endpoint != d.Endpoint {
			t.Fatalf("name/endpoint %q/%q became %q/%q\n%s", d.Name, d.Endpoint, back.Name, back.Endpoint, out)
		}
		ops := d.Operations()
		if got := back.Operations(); !slices.Equal(got, ops) {
			t.Fatalf("operations %v became %v\n%s", ops, got, out)
		}
		for _, op := range ops {
			if want, got := signature(d, op), signature(back, op); got != want {
				t.Fatalf("signature of %s: %s became %s\n%s", op, want, got, out)
			}
		}
	})
}

// signature renders an operation's input and output types.
func signature(d *Description, op string) string {
	def := d.Schema.Funcs[op]
	typ := func(r *regex.Regex) string {
		if r == nil {
			return "data"
		}
		return r.String(d.Schema.Table)
	}
	return typ(def.In) + " -> " + typ(def.Out)
}
