package xmlio

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf8"
)

// MaxDepth bounds element nesting: the start tag that would open element
// MaxDepth+1 is a syntax error. It is the bound encoding/xml applies to
// Unmarshal; without it a body of a few megabytes of nested start tags drives
// the recursive parsers layered on the tokenizer into a fatal stack overflow.
const MaxDepth = 10000

// TokenKind discriminates tokens.
type TokenKind uint8

const (
	// KindStart is a start tag; a self-closing tag yields KindStart then
	// KindEnd.
	KindStart TokenKind = iota + 1
	// KindEnd is an end tag, always matching the innermost open start tag.
	KindEnd
	// KindText is character data: a run of text between markup, or one
	// CDATA section.
	KindText
	// KindComment is a comment; Data is its content.
	KindComment
	// KindProcInst is a processing instruction; Local is its target and
	// Data its content.
	KindProcInst
	// KindDirective is a <!...> declaration such as DOCTYPE; Data is the raw
	// content between "<!" and ">".
	KindDirective
)

// Token is one step of a tokenized document. The token and everything it
// points to — Local, Data, the Attr slice with its names and values — belong
// to the tokenizer and are valid only until the next call to Next; copy what
// must outlive it.
type Token struct {
	Kind TokenKind
	// Space is the namespace of a start or end tag, resolved as
	// encoding/xml resolves it.
	Space string
	// Local is the local name of a start or end tag, or a processing
	// instruction's target.
	Local []byte
	// Attr lists a start tag's attributes in document order, namespace
	// declarations included.
	Attr []Attr
	// Data is the decoded character data of a text token, or the raw
	// content of a comment, processing instruction or directive.
	Data []byte
}

// Attr is one attribute of a start tag. Space is resolved like an element's,
// except that an unprefixed attribute has no namespace; namespace
// declarations keep the space "xmlns" (or, for xmlns itself, none).
type Attr struct {
	Space string
	Local []byte
	Value []byte
}

// Value returns the value of the first attribute named local, in any
// namespace, or "".
func (t *Token) Value(local string) string {
	for _, a := range t.Attr {
		if string(a.Local) == local {
			return string(a.Value)
		}
	}
	return ""
}

// Tokenizer is a pull tokenizer over UTF-8 XML. It scans a byte window: the
// whole input when built with NewBytesTokenizer, or a buffer refilled from
// an io.Reader (NewTokenizer), in which case a token never spans two
// windows — the window grows to hold the largest token.
//
// It accepts exactly what encoding/xml's strict Decoder.Token accepts, and
// returns the same tokens with the same namespace resolution, except that it
// rejects nesting deeper than MaxDepth. Malformed input yields an
// *xml.SyntaxError; a failing reader's error is returned as is.
type Tokenizer struct {
	buf    []byte
	pos    int       // next unscanned byte of buf
	r      io.Reader // nil: buf holds the whole input
	win    []byte    // the refill window kept for reuse between inputs
	rerr   error     // sticky read error, io.EOF once r is drained
	lines  int       // newlines in input discarded from the window
	err    error     // sticky result once tokenizing has failed or ended
	selfCl bool      // the last start tag closed itself: an end is due
	tok    Token     // the token Next returns

	open  []openElem
	names []byte // raw qualified names of the open elements, concatenated
	ns    []binding
	attrs []Attr
	avals []span // decoded attribute values, resolved into attrs once the tag is scanned
	text  []byte // decoded character data of the current token
	adec  []byte // decoded attribute values of the current start tag

	interned [16]string // recent namespace prefixes and URIs (intern)

	b *builder // the builder of this input's parses, until Close
}

type openElem struct {
	nameAt  int    // start of the raw name in names
	localAt int    // start of its local part in names
	space   string // resolved namespace, reused for the end tag
	nsLen   int    // len(ns) before the element's declarations
}

type binding struct {
	prefix string // "" for the default namespace
	uri    string
}

// span locates the decoded value of attribute attr in adec.
type span struct {
	attr, start, end int
}

// errMore asks Next to refill the window and rescan the current token.
var errMore = errors.New("xmlio: need more input")

// tokenizerPool recycles tokenizers with their windows and scratch buffers,
// so a parse allocates nothing to read its input.
var tokenizerPool = sync.Pool{New: func() any { return new(Tokenizer) }}

// maxPooledBuf bounds what a pooled tokenizer keeps of any one buffer, so a
// huge input does not pin its memory in the pool.
const maxPooledBuf = 1 << 20

// NewBytesTokenizer tokenizes b, which must not change while the tokenizer
// is in use. Close releases the tokenizer.
func NewBytesTokenizer(b []byte) *Tokenizer {
	t := tokenizerPool.Get().(*Tokenizer)
	t.reset(b, nil)
	return t
}

// NewTokenizer tokenizes the stream r through a refilled window. Close
// releases the tokenizer and its window.
func NewTokenizer(r io.Reader) *Tokenizer {
	t := tokenizerPool.Get().(*Tokenizer)
	if t.win == nil {
		t.win = make([]byte, 0, 8<<10)
	}
	t.reset(t.win[:0], r)
	return t
}

// reset readies t for a new input, keeping its scratch buffers.
func (t *Tokenizer) reset(b []byte, r io.Reader) {
	t.buf, t.pos, t.r, t.rerr, t.lines, t.err, t.selfCl = b, 0, r, nil, 0, nil, false
	if r == nil {
		t.rerr = io.EOF
	}
	t.open, t.names, t.ns = t.open[:0], t.names[:0], t.ns[:0]
}

// Close returns the tokenizer to a pool, and its builder to another;
// neither it nor the tokens it returned may be used afterwards.
func (t *Tokenizer) Close() {
	if t.r != nil {
		t.win = t.buf[:0]
	}
	t.buf, t.r, t.rerr, t.err = nil, nil, nil, nil
	for _, b := range []*[]byte{&t.win, &t.names, &t.text, &t.adec} {
		if cap(*b) > maxPooledBuf {
			*b = nil
		}
	}
	clear(t.ns[:cap(t.ns)])
	clear(t.open[:cap(t.open)])
	clear(t.attrs[:cap(t.attrs)])
	if t.b != nil {
		putBuilder(t.b)
		t.b = nil
	}
	tokenizerPool.Put(t)
}

// Next returns the next token, or io.EOF after the input ends with every
// element closed.
func (t *Tokenizer) Next() (*Token, error) {
	if t.err != nil {
		return nil, t.err
	}
	if t.selfCl {
		t.selfCl = false
		t.pop()
		return &t.tok, nil
	}
	for {
		n, err := t.scan()
		if err == errMore {
			if err = t.fill(); err == nil {
				continue
			}
		}
		if err != nil {
			t.err = err
			return nil, err
		}
		t.pos = n
		if t.tok.Kind == KindEnd {
			t.pop()
		}
		return &t.tok, nil
	}
}

// Trailing consumes the rest of the input after the root element closed:
// only blank text, comments and processing instructions may follow it.
func (t *Tokenizer) Trailing() error {
	for {
		tok, err := t.Next()
		switch {
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		case tok.Kind == KindComment || tok.Kind == KindProcInst:
		case tok.Kind == KindText && isBlank(tok.Data):
		default:
			t.err = t.syntaxError("content after the root element")
			return t.err
		}
	}
}

// isBlank reports whether b is empty after trimming Unicode white space, the
// test the parsers apply to text between elements.
func isBlank(b []byte) bool { return len(bytes.TrimSpace(b)) == 0 }

// fill makes room in the window and reads more input. It keeps the bytes of
// the token being scanned, from pos on.
func (t *Tokenizer) fill() error {
	if t.rerr != nil {
		return t.rerr
	}
	if t.pos > 0 {
		t.lines += bytes.Count(t.buf[:t.pos], nl)
		n := copy(t.buf, t.buf[t.pos:])
		t.buf, t.pos = t.buf[:n], 0
	}
	if len(t.buf) == cap(t.buf) {
		t.buf = append(t.buf, 0)[:len(t.buf)]
	}
	// A token that already fills half the window reads until the window is
	// full, so a large token is rescanned once per doubling rather than once
	// per read; otherwise one read suffices and a live stream never waits
	// for more than the next token needs.
	big := len(t.buf) >= cap(t.buf)/2
	for {
		n, err := t.r.Read(t.buf[len(t.buf):cap(t.buf)])
		t.buf = t.buf[:len(t.buf)+n]
		if err != nil {
			t.rerr = err
			return nil
		}
		if n > 0 && (!big || len(t.buf) == cap(t.buf)) {
			return nil
		}
	}
}

var nl = []byte{'\n'}

// more reports whether the window may still grow: scanners ask for a refill
// instead of treating its end as the end of input.
func (t *Tokenizer) more() bool { return t.rerr == nil }

// eof is the error for input ending inside a token.
func (t *Tokenizer) eof() error {
	if t.more() {
		return errMore
	}
	if t.rerr != io.EOF {
		return t.rerr
	}
	return t.syntaxError("unexpected EOF")
}

func (t *Tokenizer) syntaxError(msg string) error {
	end := min(t.pos, len(t.buf))
	return &xml.SyntaxError{Msg: msg, Line: 1 + t.lines + bytes.Count(t.buf[:end], nl)}
}

// scan reads the token starting at pos into tok and returns the position
// after it; errMore means the window ended first. Only a complete start tag
// changes the tokenizer's state, so a scan cut short can be repeated.
func (t *Tokenizer) scan() (int, error) {
	b, i := t.buf, t.pos
	if i >= len(b) {
		if t.more() {
			return 0, errMore
		}
		if t.rerr != io.EOF {
			return 0, t.rerr
		}
		if len(t.open) > 0 {
			return 0, t.syntaxError("unexpected EOF")
		}
		return 0, io.EOF
	}
	if b[i] != '<' {
		data, text, n, err := t.chars(i, 0, t.text[:0])
		t.text = text
		t.set(KindText, "", nil, nil, data)
		return n, err
	}
	if i+1 >= len(b) {
		return 0, t.eof()
	}
	switch b[i+1] {
	case '/':
		return t.endTag(i + 2)
	case '?':
		return t.procInst(i + 2)
	case '!':
		return t.bang(i + 2)
	}
	return t.startTag(i + 1)
}

// Byte classes for the character-data scanners.
const (
	cText  = 1 << iota // ends or needs attention in text content
	cAttr              // ends or needs attention in a quoted attribute value
	cName              // may appear in a name (non-ASCII bytes are checked later)
	cSpace             // XML white space
)

var class = func() (c [256]uint8) {
	for i := 0; i < 0x20; i++ {
		c[i] = cText | cAttr
	}
	c['\t'], c['\n'] = cSpace, cSpace
	c['\r'] = cText | cAttr | cSpace
	c[' '] = cSpace
	c['<'] = cText | cAttr
	c['&'] = cText | cAttr
	c['>'] = cText
	c['"'], c['\''] = cAttr, cAttr
	for i := 0x80; i < 0x100; i++ {
		c[i] = cText | cAttr | cName
	}
	for _, r := range "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_:.-" {
		c[r] |= cName
	}
	return c
}()

// chars scans character data from i: text content up to '<' or the end of
// input when quote is 0, else a quoted attribute value up to its closing
// quote (end is then past it). Entity and character references and CR/CRLF
// line ends are decoded by appending to dst, which comes back grown; data is
// that appended tail, or is borrowed from the window when nothing needed
// decoding. The checks are encoding/xml's: known entities, no "]]>" in text,
// no '<' in values, valid UTF-8 within the XML character range.
func (t *Tokenizer) chars(i int, quote byte, dst []byte) (data, grown []byte, end int, err error) {
	b := t.buf
	mask := uint8(cText)
	if quote != 0 {
		mask = cAttr
	}
	base := len(dst)
	decoded := false
	run, j := i, i // run: first byte not yet appended to dst
	for {
		for j < len(b) && class[b[j]]&mask == 0 {
			j++
		}
		if j >= len(b) {
			if quote != 0 || t.more() {
				return nil, dst, 0, t.eof()
			}
			break
		}
		c := b[j]
		if c == '<' {
			if quote != 0 {
				return nil, dst, 0, t.syntaxError("unescaped < inside quoted string")
			}
			break
		}
		if quote != 0 && c == quote {
			break
		}
		switch {
		case c == '"' || c == '\'':
			j++ // the other quote character
		case c == '>':
			if j-2 >= i && b[j-1] == ']' && b[j-2] == ']' {
				return nil, dst, 0, t.syntaxError("unescaped ]]> not in CDATA section")
			}
			j++
		case c == '&':
			r, n, err := t.reference(j)
			if err != nil {
				return nil, dst, 0, err
			}
			dst = utf8.AppendRune(append(dst, b[run:j]...), r)
			j += n
			run, decoded = j, true
		case c == '\r':
			dst = append(append(dst, b[run:j]...), '\n')
			if j++; j < len(b) && b[j] == '\n' {
				j++
			} else if j >= len(b) && t.more() {
				return nil, dst, 0, errMore
			}
			run, decoded = j, true
		case c >= utf8.RuneSelf:
			n, err := t.checkRune(j)
			if err != nil {
				return nil, dst, 0, err
			}
			j += n
		default:
			return nil, dst, 0, t.syntaxError(fmt.Sprintf("illegal character code %U", rune(c)))
		}
	}
	end = j
	if quote != 0 {
		end++
	}
	if !decoded {
		return b[i:j], dst, end, nil
	}
	dst = append(dst, b[run:j]...)
	return dst[base:], dst, end, nil
}

// checkRune checks the multi-byte character at b[j], returning its length.
func (t *Tokenizer) checkRune(j int) (int, error) {
	r, n := utf8.DecodeRune(t.buf[j:])
	if r == utf8.RuneError && n == 1 {
		if !utf8.FullRune(t.buf[j:]) && t.more() {
			return 0, errMore
		}
		return 0, t.syntaxError("invalid UTF-8")
	}
	if !inCharRange(r) {
		return 0, t.syntaxError(fmt.Sprintf("illegal character code %U", r))
	}
	return n, nil
}

// inCharRange reports whether r is in the XML Char production.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// reference decodes the entity or character reference at b[i] == '&',
// returning the character and the reference's length.
func (t *Tokenizer) reference(i int) (rune, int, error) {
	b := t.buf
	j := i + 1
	if j >= len(b) {
		return 0, 0, t.eof()
	}
	if b[j] == '#' {
		j++
		if j >= len(b) {
			return 0, 0, t.eof()
		}
		base := 10
		if b[j] == 'x' {
			base = 16
			j++
		}
		digits := j
		for ; j < len(b) && isDigit(b[j], base); j++ {
		}
		if j >= len(b) {
			return 0, 0, t.eof()
		}
		if b[j] != ';' {
			return 0, 0, t.syntaxError("invalid character entity " + string(b[i:j]) + " (no semicolon)")
		}
		n, err := strconv.ParseUint(string(b[digits:j]), base, 64)
		if err != nil || n > unicode.MaxRune {
			return 0, 0, t.syntaxError("invalid character entity " + string(b[i:j+1]))
		}
		r := rune(n)
		if !utf8.ValidRune(r) {
			r = utf8.RuneError // string(rune(n)) of a surrogate
		}
		if !inCharRange(r) {
			return 0, 0, t.syntaxError(fmt.Sprintf("illegal character code %U", r))
		}
		return r, j + 1 - i, nil
	}
	for ; j < len(b) && class[b[j]]&cName != 0; j++ {
	}
	if j >= len(b) {
		return 0, 0, t.eof()
	}
	if b[j] != ';' {
		return 0, 0, t.syntaxError("invalid character entity " + string(b[i:j]) + " (no semicolon)")
	}
	var r rune
	switch string(b[i+1 : j]) {
	case "lt":
		r = '<'
	case "gt":
		r = '>'
	case "amp":
		r = '&'
	case "apos":
		r = '\''
	case "quot":
		r = '"'
	default:
		return 0, 0, t.syntaxError("invalid character entity " + string(b[i:j+1]))
	}
	return r, j + 1 - i, nil
}

func isDigit(c byte, base int) bool {
	return '0' <= c && c <= '9' || base == 16 && ('a' <= c && c <= 'f' || 'A' <= c && c <= 'F')
}

// name scans a name at i, returning its end. ok is false when no name starts
// at i; an invalid name is a syntax error.
func (t *Tokenizer) name(i int) (end int, ok bool, err error) {
	b := t.buf
	var hi byte // OR of the name's bytes: below 0x80 means all ASCII
	j := i
	for ; j < len(b) && class[b[j]]&cName != 0; j++ {
		hi |= b[j]
	}
	if j >= len(b) {
		return 0, false, t.eof()
	}
	if j == i {
		return 0, false, nil
	}
	// Every ASCII name byte may follow the first character.
	if hi < utf8.RuneSelf && nameStart(b[i]) || hi >= utf8.RuneSelf && isName(b[i:j]) {
		return j, true, nil
	}
	return 0, false, t.syntaxError("invalid XML name: " + string(b[i:j]))
}

// nameStart reports whether an ASCII byte may begin a name.
func nameStart(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':'
}

// nameBytes returns the end of the run of name bytes at i, unchecked. Input
// may not end inside a name.
func (t *Tokenizer) nameBytes(i int) (int, error) {
	b := t.buf
	for j := i; j < len(b); j++ {
		if class[b[j]]&cName == 0 {
			return j, nil
		}
	}
	return 0, t.eof()
}

// isName checks the XML Name production over bytes the name scanner took.
func isName(s []byte) bool {
	if c := s[0]; c < utf8.RuneSelf && !nameStart(c) {
		return false
	}
	for k := 0; k < len(s); {
		r, n := utf8.DecodeRune(s[k:])
		if r == utf8.RuneError && n == 1 {
			return false
		}
		if !unicode.Is(nameFirst, r) && (k == 0 || !unicode.Is(nameSecond, r)) {
			return false
		}
		k += n
	}
	return true
}

// qname splits a raw qualified name the way encoding/xml does: one colon
// with both sides non-empty separates prefix and local part, no colon or an
// empty side leaves the whole name local, and more colons are invalid.
func qname(s []byte) (prefix, local []byte, ok bool) {
	k := -1
	for i, c := range s {
		if c == ':' {
			if k >= 0 {
				return nil, nil, false
			}
			k = i
		}
	}
	if k <= 0 || k == len(s)-1 {
		return nil, s, true
	}
	return s[:k], s[k+1:], true
}

// space skips white space from i.
func (t *Tokenizer) space(i int) int {
	b := t.buf
	for i < len(b) && class[b[i]]&cSpace != 0 {
		i++
	}
	return i
}

// startTag scans a start tag whose name begins at i, just past '<'.
func (t *Tokenizer) startTag(i int) (int, error) {
	b := t.buf
	nameEnd, ok, err := t.name(i)
	if err != nil {
		return 0, err
	}
	var prefix, local []byte
	if ok {
		prefix, local, ok = qname(b[i:nameEnd])
	}
	if !ok {
		return 0, t.syntaxError("expected element name after <")
	}
	t.attrs, t.avals, t.adec = t.attrs[:0], t.avals[:0], t.adec[:0]
	j := nameEnd
	empty, prefixed, declares := false, false, false
	for {
		j = t.space(j)
		if j >= len(b) {
			return 0, t.eof()
		}
		if b[j] == '/' {
			if j+1 >= len(b) {
				return 0, t.eof()
			}
			if b[j+1] != '>' {
				return 0, t.syntaxError("expected /> in element")
			}
			empty = true
			j += 2
			break
		}
		if b[j] == '>' {
			j++
			break
		}
		an, ok, err := t.name(j)
		if err != nil {
			return 0, err
		}
		var ap, al []byte
		if ok {
			ap, al, ok = qname(b[j:an])
		}
		if !ok {
			return 0, t.syntaxError("expected attribute name in element")
		}
		j = t.space(an)
		if j >= len(b) {
			return 0, t.eof()
		}
		if b[j] != '=' {
			return 0, t.syntaxError("attribute name without = in element")
		}
		j = t.space(j + 1)
		if j >= len(b) {
			return 0, t.eof()
		}
		q := b[j]
		if q != '"' && q != '\'' {
			return 0, t.syntaxError("unquoted or missing attribute value in element")
		}
		before := len(t.adec)
		var v []byte
		var end int
		v, t.adec, end, err = t.chars(j+1, q, t.adec)
		if err != nil {
			return 0, err
		}
		if len(t.adec) > before {
			// A decoded value is located by offset: adec may move as it
			// grows. A borrowed one is final.
			t.avals = append(t.avals, span{attr: len(t.attrs), start: before, end: len(t.adec)})
		}
		// The prefix travels in Space until the names resolve below.
		t.attrs = append(t.attrs, Attr{Space: rawSpace(ap), Local: al, Value: v})
		prefixed = prefixed || ap != nil
		declares = declares || string(ap) == "xmlns" || ap == nil && string(al) == "xmlns"
		j = end
	}
	if len(t.open) >= MaxDepth {
		return 0, t.syntaxError(fmt.Sprintf("element nesting exceeds %d levels", MaxDepth))
	}
	for _, sp := range t.avals {
		t.attrs[sp.attr].Value = t.adec[sp.start:sp.end]
	}
	// Declarations apply to the element's own name and attributes, so they
	// are bound first.
	nsLen := len(t.ns)
	if declares {
		for _, a := range t.attrs {
			switch {
			case a.Space == "xmlns":
				t.ns = append(t.ns, binding{prefix: t.intern(a.Local), uri: t.internURI(a.Value)})
			case a.Space == "" && string(a.Local) == "xmlns":
				t.ns = append(t.ns, binding{uri: t.internURI(a.Value)})
			}
		}
	}
	space := t.resolve(prefix, local)
	if prefixed {
		for k := range t.attrs {
			a := &t.attrs[k]
			a.Space = t.resolveAttr(a.Space)
		}
	}
	at := len(t.names)
	t.open = append(t.open, openElem{nameAt: at, localAt: at + nameEnd - i - len(local), space: space, nsLen: nsLen})
	t.names = append(t.names, b[i:nameEnd]...)
	t.selfCl = empty
	t.set(KindStart, space, local, t.attrs, nil)
	return j, nil
}

// rawSpace holds an attribute's prefix as a string until resolution; the
// prefixes that matter for resolution are interned.
func rawSpace(prefix []byte) string {
	switch string(prefix) {
	case "":
		return ""
	case "xmlns":
		return "xmlns"
	case "xml":
		return "xml"
	}
	return string(prefix)
}

const xmlURL = "http://www.w3.org/XML/1998/namespace"

// resolve maps an element's prefix to its namespace with encoding/xml's
// rules (Decoder.translate).
func (t *Tokenizer) resolve(prefix, local []byte) string {
	switch {
	case string(prefix) == "xmlns":
		return "xmlns"
	case string(prefix) == "xml":
		return xmlURL
	case len(prefix) == 0 && string(local) == "xmlns":
		return ""
	}
	for k := len(t.ns) - 1; k >= 0; k-- {
		if t.ns[k].prefix == string(prefix) {
			return t.ns[k].uri
		}
	}
	if len(prefix) == 0 {
		return ""
	}
	return string(prefix)
}

// resolveAttr resolves an attribute's prefix, held as a string.
func (t *Tokenizer) resolveAttr(prefix string) string {
	switch prefix {
	case "", "xmlns":
		return prefix
	case "xml":
		return xmlURL
	}
	for k := len(t.ns) - 1; k >= 0; k-- {
		if t.ns[k].prefix == prefix {
			return t.ns[k].uri
		}
	}
	return prefix
}

// internURI copies a namespace URI, sharing the string for the namespaces
// this module speaks.
func (t *Tokenizer) internURI(v []byte) string {
	for _, s := range knownURIs {
		if string(v) == s {
			return s
		}
	}
	return t.intern(v)
}

// intern copies a declared prefix or namespace URI, reusing the string of
// an earlier declaration with the same bytes: a pooled tokenizer keeps the
// last few across inputs, and a peer's documents and envelopes declare the
// same handful. Long values are copied without being kept.
func (t *Tokenizer) intern(v []byte) string {
	if len(v) > maxInterned {
		return string(v)
	}
	h := uint32(2166136261)
	for _, c := range v {
		h = (h ^ uint32(c)) * 16777619
	}
	e := &t.interned[h%uint32(len(t.interned))]
	if *e != string(v) {
		*e = string(v)
	}
	return *e
}

// maxInterned bounds the declarations intern keeps.
const maxInterned = 256

var knownURIs = [...]string{
	Namespace,
	"http://www.w3.org/2001/XMLSchema",
	"http://schemas.xmlsoap.org/soap/envelope/",
	"http://schemas.xmlsoap.org/wsdl/",
}

// set fills in tok field by field, which is cheaper than assigning a
// composite literal.
func (t *Tokenizer) set(kind TokenKind, space string, local []byte, attr []Attr, data []byte) {
	t.tok.Kind, t.tok.Space, t.tok.Local, t.tok.Attr, t.tok.Data = kind, space, local, attr, data
}

// topName returns the raw qualified name of the innermost open element.
func (t *Tokenizer) topName() []byte {
	return t.names[t.open[len(t.open)-1].nameAt:]
}

// pop closes the innermost open element, making tok its end tag. The local
// name stays readable in names until the next start tag.
func (t *Tokenizer) pop() {
	top := &t.open[len(t.open)-1]
	t.set(KindEnd, top.space, t.names[top.localAt:], nil, nil)
	t.open = t.open[:len(t.open)-1]
	t.ns = t.ns[:top.nsLen]
	t.names = t.names[:top.nameAt]
}

// endTag scans an end tag whose name begins at i, just past "</". The
// returned token carries the raw name in Local; Next pops the element.
func (t *Tokenizer) endTag(i int) (int, error) {
	b := t.buf
	nameEnd, err := t.nameBytes(i)
	if err != nil {
		return 0, err
	}
	raw := b[i:nameEnd]
	j := t.space(nameEnd)
	if j >= len(b) {
		return 0, t.eof()
	}
	if len(raw) == 0 || b[j] != '>' || len(t.open) == 0 || !bytes.Equal(t.topName(), raw) {
		return 0, t.badEndTag(raw, b[j])
	}
	// The name equals the innermost start tag's, which was checked.
	t.tok.Kind = KindEnd
	return j + 1, nil
}

// badEndTag reports what is wrong with an end tag named raw and followed by
// c, checking in encoding/xml's order.
func (t *Tokenizer) badEndTag(raw []byte, c byte) error {
	_, local, ok := qname(raw)
	if !ok || len(raw) == 0 {
		return t.syntaxError("expected element name after </")
	}
	if !isName(raw) {
		return t.syntaxError("invalid XML name: " + string(raw))
	}
	if c != '>' {
		return t.syntaxError("invalid characters between </" + string(raw) + " and >")
	}
	if len(t.open) == 0 {
		return t.syntaxError("unexpected end element </" + string(local) + ">")
	}
	_, open, _ := qname(t.topName())
	return t.syntaxError("element <" + string(open) + "> closed by </" + string(local) + ">")
}

// procInst scans a processing instruction whose target begins at i, just
// past "<?". An <?xml?> declaration must declare version 1.0 and UTF-8, if
// anything.
func (t *Tokenizer) procInst(i int) (int, error) {
	b := t.buf
	nameEnd, ok, err := t.name(i)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, t.syntaxError("expected target name after <?")
	}
	j := t.space(nameEnd)
	k := bytes.Index(b[j:], []byte("?>"))
	if k < 0 {
		return 0, t.eof()
	}
	data := b[j : j+k]
	if string(b[i:nameEnd]) == "xml" {
		if ver := procInstParam(data, "version="); len(ver) > 0 && string(ver) != "1.0" {
			return 0, fmt.Errorf("xmlio: unsupported XML version %q; only version 1.0 is supported", ver)
		}
		if enc := procInstParam(data, "encoding="); len(enc) > 0 && !bytes.EqualFold(enc, []byte("utf-8")) {
			return 0, fmt.Errorf("xmlio: encoding %q declared; only UTF-8 is supported", enc)
		}
	}
	t.set(KindProcInst, "", b[i:nameEnd], nil, data)
	return j + k + 2, nil
}

// procInstParam returns the value that follows param, which ends in '=',
// in quotes (" or ') in an XML declaration, exactly as loosely as
// encoding/xml finds it. It scans s in place.
func procInstParam(s []byte, param string) []byte {
	lenp := len(param)
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := bytes.Index(sub, []byte(param))
		if k < 0 || lenp+k >= len(sub) {
			return nil
		}
		i += lenp + k + 1
		if c := sub[lenp+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return nil
	}
	j := bytes.IndexByte(s[i:], sep)
	if j < 0 {
		return nil
	}
	return s[i : i+j]
}

// bang scans what follows "<!" at i: a comment, a CDATA section or a
// directive.
func (t *Tokenizer) bang(i int) (int, error) {
	b := t.buf
	if i >= len(b) {
		return 0, t.eof()
	}
	switch b[i] {
	case '-':
		if i+1 >= len(b) {
			return 0, t.eof()
		}
		if b[i+1] != '-' {
			return 0, t.syntaxError("invalid sequence <!- not part of <!--")
		}
		// The first "--" in the content must close the comment.
		start := i + 2
		k := bytes.Index(b[start:], []byte("--"))
		if k < 0 || start+k+2 >= len(b) {
			return 0, t.eof()
		}
		if b[start+k+2] != '>' {
			return 0, t.syntaxError(`invalid sequence "--" not allowed in comments`)
		}
		t.set(KindComment, "", nil, nil, b[start:start+k])
		return start + k + 3, nil
	case '[':
		const cdata = "CDATA["
		for k := 0; k < len(cdata); k++ {
			if i+1+k >= len(b) {
				return 0, t.eof()
			}
			if b[i+1+k] != cdata[k] {
				return 0, t.syntaxError("invalid <![ sequence")
			}
		}
		return t.cdata(i + 1 + len(cdata))
	}
	return t.directive(i)
}

// cdata scans a CDATA section's content from i up to "]]>".
func (t *Tokenizer) cdata(i int) (int, error) {
	b := t.buf
	start, run := i, i
	decoding := false
	out := t.text[:0]
	j := i
	for {
		if j >= len(b) {
			if t.more() {
				return 0, errMore
			}
			if t.rerr != io.EOF {
				return 0, t.rerr
			}
			return 0, t.syntaxError("unexpected EOF in CDATA section")
		}
		c := b[j]
		switch {
		case c == '>' && j-2 >= start && b[j-1] == ']' && b[j-2] == ']':
			data := b[start : j-2]
			if decoding {
				out = append(out, b[run:j-2]...)
				t.text = out
				data = out
			}
			t.set(KindText, "", nil, nil, data)
			return j + 1, nil
		case c == '\r':
			if !decoding {
				decoding = true
			}
			out = append(out, b[run:j]...)
			out = append(out, '\n')
			j++
			if j < len(b) && b[j] == '\n' {
				j++
			} else if j >= len(b) && t.more() {
				return 0, errMore
			}
			run = j
		case c >= utf8.RuneSelf:
			n, err := t.checkRune(j)
			if err != nil {
				return 0, err
			}
			j += n
		case c < 0x20 && c != '\t' && c != '\n':
			return 0, t.syntaxError(fmt.Sprintf("illegal character code %U", rune(c)))
		default:
			j++
		}
	}
}

// directive scans a <!...> declaration from i, just past "<!". As in
// encoding/xml the first byte is taken literally; after it quotes group,
// nested '<' and '>' balance, and embedded comments are skipped.
func (t *Tokenizer) directive(i int) (int, error) {
	b := t.buf
	j := i + 1
	var inquote byte
	depth := 0
	for {
		if j >= len(b) {
			return 0, t.eof()
		}
		c := b[j]
		if inquote == 0 && c == '>' && depth == 0 {
			t.set(KindDirective, "", nil, nil, b[i:j])
			return j + 1, nil
		}
		j++
	handle:
		switch {
		case c == inquote:
			inquote = 0
		case inquote != 0:
		case c == '\'' || c == '"':
			inquote = c
		case c == '>':
			depth--
		case c == '<':
			const open = "!--"
			for k := 0; k < len(open); k++ {
				if j >= len(b) {
					return 0, t.eof()
				}
				c = b[j]
				j++
				if c != open[k] {
					depth++
					goto handle
				}
			}
			// An embedded comment runs to the first "-->".
			k := bytes.Index(b[j:], []byte("-->"))
			if k < 0 {
				return 0, t.eof()
			}
			j += k + 3
		}
	}
}
