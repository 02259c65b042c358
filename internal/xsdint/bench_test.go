package xsdint

import (
	"fmt"
	"strings"
	"testing"

	"axml/internal/regex"
	"axml/internal/schema"
)

// benchSchema renders an exchange schema shaped like the benchmark's
// receivers: a report of blocks with one optional slot per function, half of
// the functions declared.
func benchSchema(b *testing.B) (string, *regex.Table) {
	shapes := []string{"r%d", "r%d.s%d?", "r%d.s%d*", "r%d*"}
	var text strings.Builder
	text.WriteString("root report\nelem report = title.block*\nelem block = heading.para*")
	out := make([]string, 8)
	for j := range out {
		shape := shapes[j%len(shapes)]
		if strings.Count(shape, "%d") == 2 {
			out[j] = fmt.Sprintf(shape, j, j)
		} else {
			out[j] = fmt.Sprintf(shape, j)
		}
		if j%2 == 0 {
			fmt.Fprintf(&text, ".(F%d|%s)?", j, out[j])
		} else {
			fmt.Fprintf(&text, ".(%s)?", out[j])
		}
	}
	text.WriteString("\nelem title = data\nelem heading = data\nelem para = data\nelem key = data\n")
	for j := range out {
		fmt.Fprintf(&text, "elem r%d = data\nelem s%d = data\n", j, j)
		if j%2 == 0 {
			fmt.Fprintf(&text, "func F%d = key -> %s\n", j, out[j])
		}
	}
	s, err := schema.ParseText(text.String(), nil)
	if err != nil {
		b.Fatal(err)
	}
	x, err := String(s, nil)
	if err != nil {
		b.Fatal(err)
	}
	return x, s.Table
}

// BenchmarkParse parses a receiver-sized exchange schema into an overlay of
// a shared symbol table, as the /exchange handler does.
func BenchmarkParse(b *testing.B) {
	x, table := benchSchema(b)
	b.SetBytes(int64(len(x)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(strings.NewReader(x), Options{Table: table.Overlay()}); err != nil {
			b.Fatal(err)
		}
	}
}
