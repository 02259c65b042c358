// Streaming I/O: token-event sources over documents and an incremental
// emitter that reproduces the batch printer's byte format exactly.
//
// A TokenSource flattens one document into a SAX-style event sequence. The
// one intensional wrinkle: an <int:fun> subtree — parameters and all — is
// delivered as a single EventFunc carrying the parsed node, because no
// consumer can act on half a function (its parameters travel with the call).
// Everything else streams as Start/Text/End events with O(depth) state.
package xmlio

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"time"

	"axml/internal/doc"
)

// EventKind discriminates stream events.
type EventKind uint8

const (
	// EventStart opens an ordinary (non-intensional) element.
	EventStart EventKind = iota
	// EventText carries character data. The reader source trims and drops
	// whitespace-only runs, exactly as Parse does; the tree source passes
	// text node values through untouched, exactly as the tree engine sees
	// them.
	EventText
	// EventFunc delivers one complete <int:fun> subtree as a parsed node.
	EventFunc
	// EventEnd closes the innermost open element.
	EventEnd
	// EventEOF follows the root element's close; the source is exhausted.
	EventEOF
)

// Event is one step of a document stream.
type Event struct {
	Kind  EventKind
	Label string    // EventStart: element label
	Text  string    // EventText: character data
	Node  *doc.Node // EventFunc: the function subtree
}

// TokenSource yields one document as a flat event stream.
type TokenSource interface {
	Next() (Event, error)
}

// ---------------------------------------------------------------------------
// Reader source: tokens straight from the wire, without tree materialization.

// ReaderSource streams a document from an io.Reader: the input is never
// materialized, so resident memory is bounded by the tokenizer's window (the
// largest token) plus whatever function subtrees are in flight. Parsing
// semantics match Parse token for token (namespace dispatch, whitespace
// trimming, the <int:fun>/<int:params>/<int:param> grammar and its error
// messages, the nesting bound and the trailing-content rule).
type ReaderSource struct {
	tz     *Tokenizer
	b      *builder // function subtrees and label interning
	open   []string // open element labels, for error context
	state  uint8
	closed bool
}

// ReaderSource states.
const (
	rsProlog  uint8 = iota // before the root element
	rsRoot                 // inside the root element
	rsTrailer              // the root closed; the rest of the input is unchecked
	rsDone                 // EventEOF reported
)

// NewReaderSource streams one document from r. Call Close when done to
// return the pooled tokenizer.
func NewReaderSource(r io.Reader) *ReaderSource {
	tz := NewTokenizer(r)
	return &ReaderSource{tz: tz, b: getBuilder(tz)}
}

// Close releases pooled resources; the source is unusable afterwards.
func (s *ReaderSource) Close() {
	if s.closed {
		return
	}
	s.closed = true
	putBuilder(s.b)
	s.tz.Close()
}

// Next returns the next event. After the root element closes the source
// consumes the rest of the input, which may hold only white space, comments
// and processing instructions, before it reports EventEOF.
func (s *ReaderSource) Next() (Event, error) {
	switch s.state {
	case rsDone:
		return Event{Kind: EventEOF}, nil
	case rsTrailer:
		if err := s.tz.Trailing(); err != nil {
			return Event{}, fmt.Errorf("xmlio: %w", err)
		}
		s.state = rsDone
		return Event{Kind: EventEOF}, nil
	}
	for {
		tok, err := s.tz.Next()
		if err != nil {
			if err == io.EOF {
				return Event{}, fmt.Errorf("xmlio: no root element")
			}
			if len(s.open) > 0 {
				return Event{}, fmt.Errorf("xmlio: inside <%s>: %w", s.open[len(s.open)-1], err)
			}
			return Event{}, fmt.Errorf("xmlio: %w", err)
		}
		switch tok.Kind {
		case KindStart:
			if tok.Space == Namespace {
				if string(tok.Local) != "fun" {
					return Event{}, fmt.Errorf("xmlio: unexpected intensional element <int:%s>", tok.Local)
				}
				n, err := s.b.subtree(tok)
				if err != nil {
					return Event{}, err
				}
				if s.state == rsProlog { // function root: a complete document
					s.state = rsTrailer
				}
				return Event{Kind: EventFunc, Node: n}, nil
			}
			s.state = rsRoot
			label := s.b.intern(tok.Local)
			s.open = append(s.open, label)
			return Event{Kind: EventStart, Label: label}, nil
		case KindText:
			if len(s.open) == 0 {
				if !isBlank(tok.Data) {
					return Event{}, fmt.Errorf("xmlio: stray text %q before root element", tok.Data)
				}
				continue // prolog whitespace
			}
			v := bytes.TrimSpace(tok.Data)
			if len(v) == 0 {
				continue
			}
			return Event{Kind: EventText, Text: string(v)}, nil
		case KindEnd:
			s.open = s.open[:len(s.open)-1]
			if len(s.open) == 0 {
				s.state = rsTrailer
			}
			return Event{Kind: EventEnd}, nil
		}
	}
}

// ---------------------------------------------------------------------------
// Tree source: walk an already-materialized document as events.

// TreeSource streams an in-memory document. The peer's store hands out
// trees, so its streaming path replays them as events; only O(depth) walker
// state is added on top of the existing tree.
type TreeSource struct {
	stack []treeFrame
}

type treeFrame struct {
	n *doc.Node
	i int // next child index
}

// NewTreeSource streams the document rooted at root.
func NewTreeSource(root *doc.Node) *TreeSource {
	holder := &doc.Node{Kind: doc.Element, Children: []*doc.Node{root}}
	return &TreeSource{stack: []treeFrame{{n: holder}}}
}

// Next returns the next event of the walk.
func (s *TreeSource) Next() (Event, error) {
	for {
		if len(s.stack) == 0 {
			return Event{Kind: EventEOF}, nil
		}
		fr := &s.stack[len(s.stack)-1]
		if fr.i >= len(fr.n.Children) {
			s.stack = s.stack[:len(s.stack)-1]
			if len(s.stack) == 0 {
				return Event{Kind: EventEOF}, nil
			}
			return Event{Kind: EventEnd}, nil
		}
		ch := fr.n.Children[fr.i]
		fr.i++
		switch ch.Kind {
		case doc.Text:
			return Event{Kind: EventText, Text: ch.Value}, nil
		case doc.Func:
			return Event{Kind: EventFunc, Node: ch}, nil
		default:
			s.stack = append(s.stack, treeFrame{n: ch})
			return Event{Kind: EventStart, Label: ch.Label}, nil
		}
	}
}

// ---------------------------------------------------------------------------
// Emitter: incremental serialization, byte-identical to Write.

// Element form stages. The batch printer picks one of three forms per
// element — <e/>, inline single-text, block — by looking at the whole child
// list; the emitter defers that choice until forced, so streamed bytes
// match the batch output exactly.
const (
	stOpen  uint8 = iota // "<label" written; no children seen yet
	stText               // exactly one text child held back, form undecided
	stBlock              // ">\n" committed; children print in block form
)

type emFrame struct {
	label string
	stage uint8
	text  string
}

// Emitter writes a document incrementally: start tags flow out as elements
// open, so the first byte of a large response leaves before the document is
// fully processed. Buffered subtrees (resolved islands) are flushed through
// the same printer the batch path uses.
//
// Errors are sticky in the underlying bufio.Writer and reported by End.
type Emitter struct {
	bw *bufio.Writer
	p  printer
	fr []emFrame
	cw countWriter
}

// countWriter records the bytes that actually reached the destination and
// the wall-clock time of the first such write (first-byte latency).
type countWriter struct {
	w     io.Writer
	n     int64
	first time.Time
}

func (c *countWriter) Write(p []byte) (int, error) {
	if c.first.IsZero() && len(p) > 0 {
		c.first = time.Now()
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// NewEmitter starts a document on w (XML declaration included).
func NewEmitter(w io.Writer) *Emitter {
	e := &Emitter{}
	e.cw.w = w
	e.bw = flushWriterPool.Get().(*bufio.Writer)
	e.bw.Reset(&e.cw)
	e.p.b = e.bw
	e.bw.WriteString(xml.Header)
	return e
}

// commit forces the innermost open element into block form, flushing any
// held-back text as a block-form text line.
func (e *Emitter) commit() {
	if len(e.fr) == 0 {
		return
	}
	fr := &e.fr[len(e.fr)-1]
	switch fr.stage {
	case stOpen:
		e.bw.WriteString(">\n")
	case stText:
		e.bw.WriteString(">\n")
		e.p.indent(len(e.fr))
		e.p.escape(fr.text)
		e.bw.WriteByte('\n')
		fr.text = ""
	default:
		return
	}
	fr.stage = stBlock
}

// StartElement opens a child element of the innermost open element.
func (e *Emitter) StartElement(label string) {
	e.commit()
	e.p.indent(len(e.fr))
	e.bw.WriteByte('<')
	e.bw.WriteString(label)
	e.fr = append(e.fr, emFrame{label: label})
}

// Text emits one text child of the innermost open element.
func (e *Emitter) Text(v string) {
	fr := &e.fr[len(e.fr)-1]
	if fr.stage == stOpen {
		fr.stage, fr.text = stText, v
		return
	}
	e.commit()
	e.p.indent(len(e.fr))
	e.p.escape(v)
	e.bw.WriteByte('\n')
}

// Tree emits a complete subtree as a child of the innermost open element
// (or at the root level when nothing is open).
func (e *Emitter) Tree(n *doc.Node) {
	e.commit()
	e.p.node(n, len(e.fr), false)
}

// EndElement closes the innermost open element in whichever form its
// children allow.
func (e *Emitter) EndElement() {
	fr := e.fr[len(e.fr)-1]
	e.fr = e.fr[:len(e.fr)-1]
	switch fr.stage {
	case stOpen:
		e.bw.WriteString("/>\n")
	case stText:
		e.bw.WriteByte('>')
		e.p.escape(fr.text)
		e.bw.WriteString("</")
		e.bw.WriteString(fr.label)
		e.bw.WriteString(">\n")
	default:
		e.p.indent(len(e.fr))
		e.bw.WriteString("</")
		e.bw.WriteString(fr.label)
		e.bw.WriteString(">\n")
	}
}

// Finish closes the innermost open element with kids as its remaining
// children. When nothing was emitted into the element yet, the full child
// list is in hand and the empty and inline single-text forms stay
// reachable — exactly the batch printer's choice.
func (e *Emitter) Finish(kids []*doc.Node) {
	if fr := &e.fr[len(e.fr)-1]; fr.stage == stOpen {
		switch {
		case len(kids) == 0:
			e.fr = e.fr[:len(e.fr)-1]
			e.bw.WriteString("/>\n")
			return
		case len(kids) == 1 && kids[0].Kind == doc.Text:
			e.fr = e.fr[:len(e.fr)-1]
			e.bw.WriteByte('>')
			e.p.escape(kids[0].Value)
			e.bw.WriteString("</")
			e.bw.WriteString(fr.label)
			e.bw.WriteString(">\n")
			return
		}
	}
	for _, k := range kids {
		e.Tree(k)
	}
	e.EndElement()
}

// End terminates the document (trailing newline) and flushes, returning the
// first write error encountered anywhere. The emitter is spent afterwards.
func (e *Emitter) End() error {
	e.bw.WriteByte('\n')
	err := e.bw.Flush()
	e.release()
	return err
}

// Abort discards buffered-but-unflushed bytes and releases pooled state;
// used when a rewrite fails mid-stream. BytesWritten reports whether the
// destination already saw output.
func (e *Emitter) Abort() {
	if e.bw == nil {
		return
	}
	e.release()
}

func (e *Emitter) release() {
	e.bw.Reset(io.Discard)
	flushWriterPool.Put(e.bw)
	e.bw = nil
	e.p.b = nil
}

// BytesWritten reports the bytes that reached the destination writer.
func (e *Emitter) BytesWritten() int64 { return e.cw.n }

// FirstByteAt reports when the first byte reached the destination; ok is
// false when nothing was flushed yet.
func (e *Emitter) FirstByteAt() (time.Time, bool) { return e.cw.first, !e.cw.first.IsZero() }
