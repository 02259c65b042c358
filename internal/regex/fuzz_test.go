package regex

import "testing"

// FuzzParsePrint: Parse never panics, and parse → print → parse reaches a
// fixpoint: whatever Parse accepts prints to text that parses back to the
// same expression (equal keys) and prints identically. Seeds live in
// testdata/fuzz/FuzzParsePrint: the content models of cmd/axml/testdata,
// of test fixtures and of internal/workload.
func FuzzParsePrint(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4<<10 {
			return
		}
		tab := NewTable()
		r, err := Parse(tab, src)
		if err != nil {
			return
		}
		printed := r.String(tab)
		back, err := Parse(tab, printed)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, printed, err)
		}
		if back.Key() != r.Key() {
			t.Fatalf("%q prints as %q, which parses to another expression", src, printed)
		}
		if again := back.String(tab); again != printed {
			t.Fatalf("no fixpoint: %q prints as %q, then as %q", src, printed, again)
		}
	})
}
