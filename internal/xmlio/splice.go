package xmlio

import (
	"bufio"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"axml/internal/doc"
)

// Rendering is a document's canonical bytes — exactly what Write writes
// for it — together with the byte span and print depth of every element a
// spine copy of the document shares (doc.Node.SpineCopy): each
// function-free element whose parent holds a function node, and the root of
// a function-free document. The printer's output for an element depends
// only on its subtree and its depth: depth sets the indentation, and the
// xmlns:int declaration goes on the root alone. So wherever that same,
// unchanged element prints at that same depth, its stored bytes can be
// copied instead of printed (WriteSplicedTo).
//
// A Rendering also records the document's spine: the elements that hold
// a function node outside every function's parameters, in document order,
// which are the elements a spine copy copies (doc.Node.SpineCopyAlong).
//
// A Rendering is immutable once built and safe for concurrent readers. It
// refers to the tree it was built from by node identity, so it stays valid
// only while that tree is not mutated.
//
// Every Rendering has an ID no other Rendering of the process has, so a
// consumer can remember one (a checked version, say) by a number that
// holds no pointer and cannot be confused with a later rendering built at
// a reused address.
type Rendering struct {
	id    uint64
	data  []byte
	spans map[*doc.Node]elemSpan
	spine []*doc.Node
}

// renderings numbers Renderings; IDs start at 1.
var renderings atomic.Uint64

// elemSpan locates one element's bytes in a Rendering.
type elemSpan struct {
	start, end int32
	// depth is the indentation level the element printed at.
	depth int32
}

// pendingSpan is the span of an element Render has printed but not yet
// placed: whether it goes into the table depends on its parent, which is
// still open.
type pendingSpan struct {
	n     *doc.Node
	span  elemSpan
	calls bool
}

// settle closes the children of an element: the spans pending since mark
// are its element children's, and when the element holds a function node
// its function-free children — the subtrees a spine copy shares — go into
// the table. Every span since mark is then dropped.
func (p *printer) settle(mark int, calls bool) {
	if calls {
		for _, c := range p.pending[mark:] {
			if !c.calls {
				p.rec.spans[c.n] = c.span
			}
		}
	}
	p.pending = p.pending[:mark]
}

// Render builds the rendering of the document rooted at n. Its bytes are
// held at their exact size. A document too large for 32-bit offsets gets
// no spans: WriteSplicedTo then prints all of it.
func Render(n *doc.Node) *Rendering {
	var s chunkSink
	r := &Rendering{id: renderings.Add(1), spans: make(map[*doc.Node]elemSpan)}
	p := &printer{b: &s, rec: r, out: &s}
	p.document(n)
	// The root is shared whole when the document holds no function node.
	p.settle(0, true)
	r.data = s.bytes()
	if len(r.spine) > 0 {
		r.spine = append([]*doc.Node(nil), r.spine...) // exact size
	}
	if len(r.data) > math.MaxInt32 {
		r.spans = nil
	}
	return r
}

// chunkSize is the size of the pooled chunks Render prints into.
const chunkSize = 64 << 10

var chunkPool = sync.Pool{New: func() any { return new([chunkSize]byte) }}

// chunkSink is Render's sink. It prints into pooled fixed-size chunks and
// counts the bytes, so a rendering of unknown size is copied once, into an
// exact-size slice; a growing buffer would allocate, clear and copy it
// again at every growth.
type chunkSink struct {
	chunks []*[chunkSize]byte
	n      int
}

// tail returns the free part of the last chunk, adding a chunk when the
// last one is full.
func (s *chunkSink) tail() []byte {
	off := s.n % chunkSize
	if off == 0 && s.n/chunkSize == len(s.chunks) {
		s.chunks = append(s.chunks, chunkPool.Get().(*[chunkSize]byte))
	}
	return s.chunks[s.n/chunkSize][off:]
}

func (s *chunkSink) Write(b []byte) (int, error) {
	for rest := b; len(rest) > 0; {
		k := copy(s.tail(), rest)
		rest, s.n = rest[k:], s.n+k
	}
	return len(b), nil
}

func (s *chunkSink) WriteString(str string) (int, error) {
	for rest := str; len(rest) > 0; {
		k := copy(s.tail(), rest)
		rest, s.n = rest[k:], s.n+k
	}
	return len(str), nil
}

func (s *chunkSink) WriteByte(c byte) error {
	s.tail()[0] = c
	s.n++
	return nil
}

// bytes returns the printed bytes in one exact-size slice and hands the
// chunks back to the pool.
func (s *chunkSink) bytes() []byte {
	out := make([]byte, s.n)
	for i, c := range s.chunks {
		copy(out[i*chunkSize:], c[:])
		chunkPool.Put(c)
	}
	s.chunks = nil
	return out
}

// Bytes returns the canonical bytes; callers must not modify them.
func (r *Rendering) Bytes() []byte { return r.data }

// Spine returns the document's spine elements in document order; callers
// must not modify the slice.
func (r *Rendering) Spine() []*doc.Node { return r.spine }

// ID returns r's process-unique identifier, never 0.
func (r *Rendering) ID() uint64 { return r.id }

// Shares reports whether n is one of the elements a spine copy of r's
// document shares with it: a function-free element whose parent holds a
// function node, or the root of a function-free document. A nil r, or one
// of a document too large for spans, shares nothing.
func (r *Rendering) Shares(n *doc.Node) bool {
	if r == nil || n.Kind != doc.Element {
		return false
	}
	_, ok := r.spans[n]
	return ok
}

// at returns the span of n when r holds n at the given depth. A nil r
// holds nothing.
func (r *Rendering) at(n *doc.Node, depth int) (elemSpan, bool) {
	if r == nil || n.Kind != doc.Element {
		return elemSpan{}, false
	}
	sp, ok := r.spans[n]
	return sp, ok && int(sp.depth) == depth
}

// holdsCalls is doc.Node.HasFuncs, answered from r where it can: every
// element r holds is function-free, whatever depth it prints at.
func (r *Rendering) holdsCalls(n *doc.Node) bool {
	if r == nil {
		return n.HasFuncs()
	}
	switch n.Kind {
	case doc.Func:
		return true
	case doc.Text:
		return false
	}
	if _, ok := r.spans[n]; ok {
		return false
	}
	for _, c := range n.Children {
		if r.holdsCalls(c) {
			return true
		}
	}
	return false
}

// splice copies, in one write, the stored bytes of the longest run of
// kids[i:] that r holds at depth, back to back. It returns the index after
// the run, which is i when r does not hold kids[i] at depth.
func (p *printer) splice(kids []*doc.Node, i, depth int) int {
	sp, ok := p.from.at(kids[i], depth)
	if !ok {
		return i
	}
	start, end := sp.start, sp.end
	j := i + 1
	for ; j < len(kids); j++ {
		next, ok := p.from.at(kids[j], depth)
		if !ok || next.start != end {
			break
		}
		end = next.end
	}
	p.b.Write(p.from.data[start:end])
	return j
}

// WriteSplicedTo writes to w the bytes WriteTo writes for n, through a
// pooled bufio.Writer. Every element of n that from holds at the depth it
// prints at is copied from from's bytes, and adjacent copied siblings go
// out as one write; everything else is printed. n is typically a rewritten
// spine copy of from's document (doc.Node.SpineCopy), so an exchange
// prints only the copied spine and the forests services returned. A nil
// from prints all of n.
func WriteSplicedTo(w io.Writer, n *doc.Node, from *Rendering) error {
	bw := flushWriterPool.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Reset(io.Discard)
		flushWriterPool.Put(bw)
	}()
	(&printer{b: bw, from: from}).document(n)
	return bw.Flush()
}
