// Package xmlio maps intensional documents to and from the XML syntax of
// Section 7 of the paper: function nodes are represented by elements in the
// namespace http://www.activexml.com/ns/int —
//
//	<int:fun endpointURL="http://forecast.example/soap"
//	         methodName="Get_Temp" namespaceURI="urn:weather">
//	  <int:params>
//	    <int:param><city>Paris</city></int:param>
//	  </int:params>
//	</int:fun>
//
// — appearing anywhere ordinary elements may appear. Serialization declares
// the int prefix on the root element whenever the document contains function
// nodes.
//
// Every parser of the module — documents, token streams, XML Schema_int,
// SOAP envelopes, WSDL_int — reads XML through this package's Tokenizer, a
// byte-level pull tokenizer that accepts what encoding/xml's strict decoder
// accepts, resolves namespaces by the same rules, and bounds nesting at
// MaxDepth.
//
// Following the paper's single label domain, element namespaces other than
// the intensional one are not modeled: prefixed names collapse to their
// local part on parse, and labels should not contain ':'.
package xmlio

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"sync"
	"unicode/utf8"

	"axml/internal/doc"
)

// Namespace is the intensional-markup namespace of the Active XML system.
const Namespace = "http://www.activexml.com/ns/int"

// Parse reads one intensional XML document. The input must hold exactly one
// root element: anything after it other than white space, comments and
// processing instructions is an error, as is nesting deeper than MaxDepth.
func Parse(r io.Reader) (*doc.Node, error) {
	tz := NewTokenizer(r)
	defer tz.Close()
	return parseDocument(tz)
}

// ParseString parses from a string.
func ParseString(s string) (*doc.Node, error) { return Parse(strings.NewReader(s)) }

// ParseBytes parses a document held in memory, scanning b in place.
func ParseBytes(b []byte) (*doc.Node, error) {
	tz := NewBytesTokenizer(b)
	defer tz.Close()
	return parseDocument(tz)
}

// parseDocument reads the prolog, the root element and the trailing
// miscellany.
func parseDocument(tz *Tokenizer) (*doc.Node, error) {
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("xmlio: no root element")
		}
		if err != nil {
			return nil, fmt.Errorf("xmlio: %w", err)
		}
		switch tok.Kind {
		case KindStart:
			b := getBuilder(tz)
			n, err := b.subtree(tok)
			putBuilder(b)
			if err != nil {
				return nil, err
			}
			if err := tz.Trailing(); err != nil {
				return nil, fmt.Errorf("xmlio: %w", err)
			}
			return n, nil
		case KindText:
			if !isBlank(tok.Data) {
				return nil, fmt.Errorf("xmlio: stray text %q before root element", tok.Data)
			}
		}
	}
}

// builder assembles document trees from tokens without recursion: one frame
// per open element, and one stack of finished children shared by all frames
// (each frame's children are the tail of kids from its base). Parameters of
// <int:params>/<int:param> wrappers stay in place on that stack, which
// flattens them into the enclosing function's children.
type builder struct {
	tz     *Tokenizer
	frames []frame
	kids   []*doc.Node
	// labels interns element labels and function attributes: a document
	// repeats a handful of names, so most nodes share their label string.
	labels [128]string
	// Nodes and child lists are carved from slabs that double in size up
	// to maxSlab within one parse, so a document costs few allocations for
	// them. Slabs are not carried over to the next parse, so one
	// document's nodes never keep another's alive.
	nodes              []doc.Node
	lists              []*doc.Node
	nodeSlab, listSlab int // size of the last slab of each kind
}

// maxSlab bounds slab sizes, in nodes and in child pointers.
const maxSlab = 256

// node returns a zeroed node from the node slab.
func (b *builder) node() *doc.Node {
	if len(b.nodes) == 0 {
		b.nodeSlab = min(max(2*b.nodeSlab, 8), maxSlab)
		b.nodes = make([]doc.Node, b.nodeSlab)
	}
	n := &b.nodes[0]
	b.nodes = b.nodes[1:]
	return n
}

// list returns a copy of kids with no spare capacity, so that appending to
// it never writes into the slab.
func (b *builder) list(kids []*doc.Node) []*doc.Node {
	if len(kids) > maxSlab/4 {
		return append([]*doc.Node(nil), kids...)
	}
	if len(b.lists) < len(kids) {
		b.listSlab = min(max(2*b.listSlab, 16), maxSlab)
		b.lists = make([]*doc.Node, b.listSlab)
	}
	l := b.lists[:len(kids):len(kids)]
	b.lists = b.lists[len(kids):]
	copy(l, kids)
	return l
}

type frameKind uint8

const (
	fElem   frameKind = iota // ordinary element
	fFun                     // <int:fun>
	fParams                  // <int:params>
	fParam                   // <int:param>
)

type frame struct {
	kind frameKind
	node *doc.Node // fElem, fFun
	base int       // len(kids) when the frame opened
}

var builderPool = sync.Pool{New: func() any { return new(builder) }}

func getBuilder(tz *Tokenizer) *builder {
	b := builderPool.Get().(*builder)
	b.tz = tz
	return b
}

func putBuilder(b *builder) {
	b.tz, b.nodes, b.lists, b.nodeSlab, b.listSlab = nil, nil, nil, 0, 0
	clear(b.kids[:cap(b.kids)])
	clear(b.frames[:cap(b.frames)])
	b.kids, b.frames = b.kids[:0], b.frames[:0]
	builderPool.Put(b)
}

// intern returns s as a string, reusing an earlier equal string.
func (b *builder) intern(s []byte) string {
	h := uint32(2166136261)
	for _, c := range s {
		h = (h ^ uint32(c)) * 16777619
	}
	e := &b.labels[h%uint32(len(b.labels))]
	if *e != string(s) {
		*e = string(s)
	}
	return *e
}

// subtree parses the element that start opened, through its end tag.
func (b *builder) subtree(start *Token) (*doc.Node, error) {
	if err := b.open(start, fElem); err != nil {
		return nil, err
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	n := b.kids[0]
	b.kids = b.kids[:0]
	return n, nil
}

// forest parses the content of an element the caller already opened,
// through its end tag.
func (b *builder) forest(parent string) ([]*doc.Node, error) {
	holder := &doc.Node{Kind: doc.Element, Label: parent}
	b.frames = append(b.frames, frame{kind: fElem, node: holder, base: len(b.kids)})
	if err := b.run(); err != nil {
		return nil, err
	}
	b.kids = b.kids[:0]
	return holder.Children, nil
}

// run consumes tokens until every open frame has closed.
func (b *builder) run() error {
	for len(b.frames) > 0 {
		tok, err := b.tz.Next()
		if err != nil {
			return b.inside(err)
		}
		top := &b.frames[len(b.frames)-1]
		switch tok.Kind {
		case KindStart:
			if err := b.open(tok, top.kind); err != nil {
				return err
			}
		case KindText:
			switch top.kind {
			case fFun:
				if !isBlank(tok.Data) {
					return fmt.Errorf("xmlio: stray text inside <int:fun>")
				}
			case fParams:
				if !isBlank(tok.Data) {
					return fmt.Errorf("xmlio: stray text inside <int:params>")
				}
			default:
				if v := bytes.TrimSpace(tok.Data); len(v) > 0 {
					n := b.node()
					n.Kind, n.Value = doc.Text, string(v)
					b.kids = append(b.kids, n)
				}
			}
		case KindEnd:
			b.close()
		}
	}
	return nil
}

// open pushes the frame for a start tag met inside a frame of kind parent,
// enforcing the <int:fun>/<int:params>/<int:param> grammar.
func (b *builder) open(tok *Token, parent frameKind) error {
	intensional := tok.Space == Namespace
	switch parent {
	case fFun:
		if !intensional || string(tok.Local) != "params" {
			return fmt.Errorf("xmlio: unexpected <%s> inside <int:fun>", tok.Local)
		}
		b.frames = append(b.frames, frame{kind: fParams})
		return nil
	case fParams:
		if !intensional || string(tok.Local) != "param" {
			return fmt.Errorf("xmlio: unexpected <%s> inside <int:params>", tok.Local)
		}
		b.frames = append(b.frames, frame{kind: fParam})
		return nil
	}
	if !intensional {
		n := b.node()
		n.Kind, n.Label = doc.Element, b.intern(tok.Local)
		b.frames = append(b.frames, frame{kind: fElem, node: n, base: len(b.kids)})
		return nil
	}
	if string(tok.Local) != "fun" {
		return fmt.Errorf("xmlio: unexpected intensional element <int:%s>", tok.Local)
	}
	ref := doc.ServiceRef{}
	for _, a := range tok.Attr {
		switch string(a.Local) {
		case "endpointURL":
			ref.Endpoint = b.intern(a.Value)
		case "methodName":
			ref.Method = b.intern(a.Value)
		case "namespaceURI":
			ref.Namespace = b.intern(a.Value)
		}
	}
	if ref.Method == "" {
		return fmt.Errorf("xmlio: <int:fun> without methodName")
	}
	n := b.node()
	n.Kind, n.Label = doc.Func, ref.Method
	if ref.Endpoint != "" || ref.Namespace != "" {
		n.Service = &ref
	}
	b.frames = append(b.frames, frame{kind: fFun, node: n, base: len(b.kids)})
	return nil
}

// close pops the innermost frame; an element or function takes the children
// gathered since it opened and becomes the next child of its parent.
func (b *builder) close() {
	f := b.frames[len(b.frames)-1]
	b.frames = b.frames[:len(b.frames)-1]
	if f.node == nil {
		return // params and param wrappers leave their children in place
	}
	if kids := b.kids[f.base:]; len(kids) > 0 {
		f.node.Children = b.list(kids)
	}
	b.kids = append(b.kids[:f.base], f.node)
}

// inside wraps a tokenizer error with the innermost open element.
func (b *builder) inside(err error) error {
	f := b.frames[len(b.frames)-1]
	switch f.kind {
	case fFun:
		return fmt.Errorf("xmlio: inside <int:fun %s>: %w", f.node.Label, err)
	case fParams:
		return fmt.Errorf("xmlio: inside <int:params>: %w", err)
	case fParam:
		return fmt.Errorf("xmlio: inside <int:param>: %w", err)
	}
	return fmt.Errorf("xmlio: inside <%s>: %w", f.node.Label, err)
}

// writeBufPool recycles the render buffers behind Write, String and
// WriteFragment: a document is rendered into a pooled buffer and handed on
// in one piece, so the hot serving path performs no per-node fmt formatting
// or writer calls.
var writeBufPool = sync.Pool{New: func() any { return new(appendSink) }}

// maxPooledWriteBuf bounds what a returned buffer may retain.
const maxPooledWriteBuf = 1 << 20

func getWriteBuf() *appendSink {
	b := writeBufPool.Get().(*appendSink)
	*b = (*b)[:0]
	return b
}

func putWriteBuf(b *appendSink) {
	if cap(*b) <= maxPooledWriteBuf {
		writeBufPool.Put(b)
	}
}

// Write serializes the document with two-space indentation and an XML
// declaration.
func Write(w io.Writer, n *doc.Node) error {
	b := getWriteBuf()
	defer putWriteBuf(b)
	(&printer{b: b}).document(n)
	_, err := w.Write(*b)
	return err
}

// flushWriterPool recycles the bufio.Writers behind WriteTo: serialization
// goes through a fixed 32 KiB window instead of materializing the whole
// document a second time.
var flushWriterPool = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, 32<<10) }}

// WriteTo serializes the document straight to w through a pooled
// bufio.Writer: same bytes as Write, but without an intermediate
// whole-document buffer — large responses flush in 32 KiB chunks.
func WriteTo(w io.Writer, n *doc.Node) error {
	return WriteSplicedTo(w, n, nil)
}

// Append appends the bytes Write would write for n to dst and returns the
// extended slice. Callers that frame or batch documents (WAL records,
// snapshots) render straight into a buffer they reuse, with no
// intermediate copy.
func Append(dst []byte, n *doc.Node) []byte {
	b := appendSink(dst)
	(&printer{b: &b}).document(n)
	return b
}

// String serializes to a string.
func String(n *doc.Node) (string, error) {
	b := getWriteBuf()
	defer putWriteBuf(b)
	(&printer{b: b}).document(n)
	return string(*b), nil
}

// MustString serializes, panicking on error (nodes cannot normally fail).
func MustString(n *doc.Node) string {
	s, err := String(n)
	if err != nil {
		panic(err)
	}
	return s
}

// sink is the minimal writer surface the printer needs: satisfied by
// appendSink (rendering into a buffer) and bufio.Writer (direct streaming
// to a destination). Error handling stays out of the printer — appendSink
// cannot fail and bufio.Writer keeps the first error sticky until Flush
// reports it.
type sink interface {
	io.Writer
	WriteString(s string) (int, error)
	WriteByte(b byte) error
}

// appendSink is the printer's sink over a growing byte slice.
type appendSink []byte

func (s *appendSink) Write(b []byte) (int, error) {
	*s = append(*s, b...)
	return len(b), nil
}

func (s *appendSink) WriteString(str string) (int, error) {
	*s = append(*s, str...)
	return len(str), nil
}

func (s *appendSink) WriteByte(c byte) error {
	*s = append(*s, c)
	return nil
}

type printer struct {
	b sink
	// rec, when set, is the rendering being built from the bytes b writes
	// into out (Render). pending holds the spans of the printed elements
	// whose parent is still open.
	rec     *Rendering
	out     *chunkSink
	pending []pendingSpan
	// from, when set, supplies the stored bytes of every element it holds
	// at the depth the element prints at (WriteSplicedTo).
	from *Rendering
}

// document prints a whole document: the XML declaration, the tree with
// two-space indentation, and a trailing newline. Only the root declares
// xmlns:int, and only when the document holds a function node.
func (p *printer) document(n *doc.Node) {
	p.b.WriteString(xml.Header)
	p.node(n, 0, p.from.holdsCalls(n))
	p.b.WriteByte('\n')
}

// indents covers the common nesting depths with precomputed two-space runs.
const indents = "                                                                "

func (p *printer) indent(depth int) {
	for n := 2 * depth; n > 0; {
		step := min(n, len(indents))
		p.b.WriteString(indents[:step])
		n -= step
	}
}

// escape writes s with XML text escaping, byte for byte what
// xml.EscapeText writes: markup characters and tab, newline and carriage
// return become character references, and every byte sequence XML cannot
// carry (invalid UTF-8, C0 controls, U+FFFE, U+FFFF) becomes U+FFFD.
// Documents overwhelmingly carry clean text, so the prefix EscapeText would
// leave unchanged is copied through as is.
func (p *printer) escape(s string) {
	i := cleanPrefix(s)
	p.b.WriteString(s[:i])
	if i < len(s) {
		_ = xml.EscapeText(p.b, []byte(s[i:]))
	}
}

// Byte-lane constants for cleanPrefix's word-at-a-time scan.
const (
	lanes01 = 0x0101010101010101
	lanes80 = 0x8080808080808080
)

// zeroLanes has the high bit set in some lane iff some byte of v is zero.
func zeroLanes(v uint64) uint64 { return (v - lanes01) &^ v }

// load64 reads eight bytes of s, little-endian; the compiler fuses it into
// one load.
func load64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// dirtyLanes has the high bit set in some lane iff some byte of x is below
// 0x20, non-ASCII, or one of " & ' < >.
func dirtyLanes(x uint64) uint64 {
	return ((x - 0x20*lanes01) &^ x) | // below 0x20
		x | // non-ASCII
		zeroLanes(x^'"'*lanes01) |
		zeroLanes((x^'&'*lanes01)&^lanes01) | // & or '
		zeroLanes((x^'<'*lanes01)&^(2*lanes01)) // < or >
}

// cleanPrefix returns the length of the longest prefix of s, ending on a
// rune boundary, that xml.EscapeText copies unchanged. Eight ASCII bytes
// are tested per step; a step holding a byte below 0x20, a markup
// character or a non-ASCII byte is settled one rune at a time.
func cleanPrefix(s string) int {
	i := 0
	for i+8 <= len(s) {
		if dirtyLanes(load64(s[i:]))&lanes80 == 0 {
			i += 8
			continue
		}
		for end := i + 8; i < end; {
			w := cleanRune(s[i:])
			if w == 0 {
				return i
			}
			i += w
		}
	}
	for i < len(s) {
		w := cleanRune(s[i:])
		if w == 0 {
			return i
		}
		i += w
	}
	return i
}

// cleanRune returns the width of the rune s starts with when
// xml.EscapeText copies it unchanged, and 0 when it would escape or
// replace it.
func cleanRune(s string) int {
	c := s[0]
	if c < utf8.RuneSelf {
		switch c {
		case '"', '&', '\'', '<', '>':
			return 0
		}
		if c < 0x20 {
			return 0
		}
		return 1
	}
	r, w := utf8.DecodeRuneInString(s)
	if w == 1 || r == 0xFFFE || r == 0xFFFF {
		return 0 // invalid UTF-8, or a noncharacter XML excludes
	}
	return w
}

// attr writes ` name="value"` with attribute-value escaping.
func (p *printer) attr(name, value string) {
	p.b.WriteByte(' ')
	p.b.WriteString(name)
	p.b.WriteString(`="`)
	p.escape(value)
	p.b.WriteByte('"')
}

func (p *printer) nsDecl(declareNS bool) {
	if declareNS {
		p.attr("xmlns:int", Namespace)
	}
}

// node prints n at depth; an element the splice source holds at this depth
// is copied from it.
func (p *printer) node(n *doc.Node, depth int, declareNS bool) {
	if sp, ok := p.from.at(n, depth); ok {
		p.b.Write(p.from.data[sp.start:sp.end])
		return
	}
	p.print(n, depth, declareNS)
}

// print is node without the splice lookup. It reports whether n's subtree
// holds a function node.
func (p *printer) print(n *doc.Node, depth int, declareNS bool) bool {
	switch n.Kind {
	case doc.Text:
		p.indent(depth)
		p.escape(n.Value)
		p.b.WriteByte('\n')
		return false
	case doc.Element:
		if p.rec == nil {
			return p.element(n, depth, declareNS)
		}
		start, mark, at := p.out.n, len(p.pending), len(p.rec.spine)
		p.rec.spine = append(p.rec.spine, n)
		calls := p.element(n, depth, declareNS)
		if !calls {
			p.rec.spine = p.rec.spine[:at]
		}
		p.settle(mark, calls)
		p.pending = append(p.pending, pendingSpan{n: n, calls: calls,
			span: elemSpan{start: int32(start), end: int32(p.out.n), depth: int32(depth)}})
		return calls
	case doc.Func:
		if p.rec == nil {
			p.fun(n, depth, declareNS)
			return true
		}
		mark, at := len(p.pending), len(p.rec.spine)
		p.fun(n, depth, declareNS)
		// A spine copy deep-copies function subtrees: no parameter is shared,
		// and no parameter is on the spine.
		p.pending, p.rec.spine = p.pending[:mark], p.rec.spine[:at]
		return true
	}
	return false
}

// element prints an element in one of its three forms: empty, inline
// single text, or block.
func (p *printer) element(n *doc.Node, depth int, declareNS bool) bool {
	p.indent(depth)
	p.b.WriteByte('<')
	p.b.WriteString(n.Label)
	p.nsDecl(declareNS)
	if len(n.Children) == 0 {
		p.b.WriteString("/>\n")
		return false
	}
	if len(n.Children) == 1 && n.Children[0].Kind == doc.Text {
		p.b.WriteByte('>')
		p.escape(n.Children[0].Value)
		p.b.WriteString("</")
		p.b.WriteString(n.Label)
		p.b.WriteString(">\n")
		return false
	}
	p.b.WriteString(">\n")
	calls := false
	for i := 0; i < len(n.Children); {
		if p.from != nil {
			if j := p.splice(n.Children, i, depth+1); j > i {
				i = j
				continue
			}
		}
		calls = p.print(n.Children[i], depth+1, false) || calls
		i++
	}
	p.indent(depth)
	p.b.WriteString("</")
	p.b.WriteString(n.Label)
	p.b.WriteString(">\n")
	return calls
}

// fun prints a function node with its parameters.
func (p *printer) fun(n *doc.Node, depth int, declareNS bool) {
	ref := doc.ServiceRef{Method: n.Label}
	if n.Service != nil {
		ref = *n.Service
	}
	p.indent(depth)
	p.b.WriteString("<int:fun")
	p.nsDecl(declareNS)
	if ref.Endpoint != "" {
		p.attr("endpointURL", ref.Endpoint)
	}
	p.attr("methodName", ref.Method)
	if ref.Namespace != "" {
		p.attr("namespaceURI", ref.Namespace)
	}
	if len(n.Children) == 0 {
		p.b.WriteString("/>\n")
		return
	}
	p.b.WriteString(">\n")
	p.indent(depth + 1)
	p.b.WriteString("<int:params>\n")
	for _, c := range n.Children {
		p.indent(depth + 2)
		p.b.WriteString("<int:param>\n")
		p.node(c, depth+3, false)
		p.indent(depth + 2)
		p.b.WriteString("</int:param>\n")
	}
	p.indent(depth + 1)
	p.b.WriteString("</int:params>\n")
	p.indent(depth)
	p.b.WriteString("</int:fun>\n")
}
