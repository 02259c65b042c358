package xsdint

import (
	"bytes"
	"testing"
)

// FuzzParse: Parse never panics, and print-then-parse reaches a fixpoint:
// String's output parses back and prints identically from the second round
// on. String may refuse a schema it cannot express (an empty <choice/> is
// the empty language, which has no rendering) but never prints one that does
// not parse back. Seeds live in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(bytes.NewReader(data), Options{})
		if err != nil {
			return
		}
		out, err := String(s, nil)
		if err != nil {
			return
		}
		var prints []string
		for round := 0; round < 3; round++ {
			back, err := ParseString(out, Options{})
			if err != nil {
				t.Fatalf("String output does not parse: %v\n%s", err, out)
			}
			if out, err = String(back, nil); err != nil {
				t.Fatalf("String of a printed schema: %v", err)
			}
			prints = append(prints, out)
		}
		if prints[1] != prints[2] {
			t.Fatalf("no fixpoint:\n%s\nvs\n%s", prints[1], prints[2])
		}
	})
}
