package xmlio

import (
	"io"
	"strings"

	"axml/internal/doc"
)

// ParseElementAt parses the element that start opened, reading the rest of
// it from tz. It lets embedding formats (SOAP envelopes, WSDL_int) delegate
// intensional-content parsing mid-stream.
func ParseElementAt(tz *Tokenizer, start *Token) (*doc.Node, error) {
	b := getBuilder(tz)
	defer putBuilder(b)
	return b.subtree(start)
}

// ParseChildrenAt parses a forest: all content of the open element named
// parent, up to and including its end tag. Whitespace-only text is dropped;
// other text becomes trimmed text nodes.
func ParseChildrenAt(tz *Tokenizer, parent string) ([]*doc.Node, error) {
	b := getBuilder(tz)
	defer putBuilder(b)
	return b.forest(parent)
}

// WriteFragment serializes one node without an XML declaration, starting at
// the given indentation depth. declareNS forces the int namespace
// declaration onto the top element; callers embedding fragments under a root
// that already declares it pass false.
func WriteFragment(w io.Writer, n *doc.Node, depth int, declareNS bool) error {
	b := getWriteBuf()
	defer putWriteBuf(b)
	p := &printer{b: b}
	p.node(n, depth, declareNS)
	_, err := w.Write(*b)
	return err
}

// Fragment renders one node as an indented string without the declaration.
func Fragment(n *doc.Node) string {
	var b strings.Builder
	_ = WriteFragment(&b, n, 0, n.HasFuncs())
	return b.String()
}
