package xmlio

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"axml/internal/doc"
)

// benchDoc renders a document shaped like the benchmark's populations:
// blocks of short text leaves, with a function call in every third block.
func benchDoc(blocks int) []byte {
	root := doc.Elem("page", doc.Elem("title", doc.TextNode("The Daily")))
	for i := 0; i < blocks; i++ {
		blk := doc.Elem("block",
			doc.Elem("head", doc.TextNode(fmt.Sprintf("heading %d", i))),
			doc.Elem("body", doc.TextNode(strings.Repeat("lorem ipsum ", 6))))
		if i%3 == 0 {
			blk.Children = append(blk.Children, doc.Call("F1", doc.Elem("key", doc.TextNode(fmt.Sprintf("k%d", i)))))
		}
		root.Children = append(root.Children, blk)
	}
	var b bytes.Buffer
	if err := Write(&b, root); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// BenchmarkParse compares the tokenizer-based parser with the encoding/xml
// reference on a 64 KiB document.
func BenchmarkParse(b *testing.B) {
	data := benchDoc(360)
	for _, bc := range []struct {
		name  string
		parse func() error
	}{
		{"tokenizer", func() error { _, err := ParseBytes(data); return err }},
		{"reader", func() error { _, err := Parse(bytes.NewReader(data)); return err }},
		{"encoding-xml", func() error { _, _, err := refParse(data); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.parse(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
