package schema

import "testing"

// FuzzParseText checks the compact schema syntax against its printer:
// whatever ParseText accepts, Text prints as source that ParseText accepts
// again and that prints back unchanged.
func FuzzParseText(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseText(src, nil)
		if err != nil {
			return
		}
		text := s.Text()
		back, err := ParseText(text, nil)
		if err != nil {
			t.Fatalf("Text output does not parse: %v\n%s", err, text)
		}
		if again := back.Text(); again != text {
			t.Fatalf("no fixpoint:\n%s\nvs\n%s", text, again)
		}
	})
}
