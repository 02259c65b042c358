package xmlio

import "axml/internal/doc"

// ParseChildrenAt parses a forest: all content of the element start
// opened, up to and including its end tag. Whitespace-only text is
// dropped; other text becomes trimmed text nodes. It returns the element's
// local name, interned like the labels of the tokenizer's parses, and the
// forest. Successive calls on one tokenizer share its node and child-list
// slabs, but each forest's text values are a string of their own.
func ParseChildrenAt(tz *Tokenizer, start *Token) (string, []*doc.Node, error) {
	b := tz.builder()
	name := b.intern(start.Local)
	forest, err := b.forest(name)
	return name, forest, err
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
