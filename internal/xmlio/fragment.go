package xmlio

import "axml/internal/doc"

// ParseChildrenAt parses a forest: all content of the open element named
// parent, up to and including its end tag. Whitespace-only text is dropped;
// other text becomes trimmed text nodes.
func ParseChildrenAt(tz *Tokenizer, parent string) ([]*doc.Node, error) {
	b := getBuilder(tz)
	defer putBuilder(b)
	return b.forest(parent)
}

// AppendFragment appends each node of forest to dst without an XML
// declaration, indented from the given depth, and returns the extended
// slice; one printer prints the whole forest. declareNS puts the int
// namespace declaration on each top element; callers embedding the forest
// under an element that already declares it pass false.
func AppendFragment(dst []byte, forest []*doc.Node, depth int, declareNS bool) []byte {
	s := getSink(dst)
	p := printer{b: s}
	for _, n := range forest {
		p.node(n, depth, declareNS)
	}
	return putSink(s)
}
