// Streaming enforcement: a one-pass SAX-style drive of the rewriting
// machinery with O(depth) resident memory.
//
// The tree engine (exec.go) materializes the whole document, statically
// checks it, then rewrites. The streaming engine consumes token events and
// keeps only a frontier:
//
//   - one frame per open element holding a *residual target*: the Brzozowski
//     derivative of the element's content model by the symbols of the
//     children already emitted. For a function-free prefix the derivative is
//     an exact quotient — a suffix completes the word iff it rewrites into
//     the residual — so accepted children stream straight to the writer and
//     are never retained;
//   - an *island*: from the first function child onward, the rest of the
//     element's children are buffered, because keep-or-invoke decisions and
//     result splices are word-global to the right of a function occurrence.
//     At the element's close the island is resolved by the *real* executor
//     (rewriteWord against the residual, element recursion for the
//     survivors), so decisions, instrument counters and audit records come
//     from the same code path as the tree engine;
//   - function subtrees themselves (parameters travel with the call), and
//     the content of a data element from its first non-text child on
//     (collapseToData resolves it at the close). Text ahead of that streams:
//     it collapses to itself, and the emitter holds one text back, so the
//     element still takes the form the batch printer picks from the whole
//     child list.
//
// Streaming is restricted to configurations where it provably matches the
// tree engine byte for byte: Safe mode (Possible-mode backtracking revisits
// emitted prefixes) and targets whose content models admit no function
// symbol at any position (so no function can be *kept*, which also
// guarantees the output needs no xmlns:int declaration). Everything else
// falls back to the tree path.
//
// Audit equivalence: the tree engine records phase-1 parameter
// materializations for the whole document first (doc.FuncsBottomUp order),
// then word-level and recursive records in document order. The streaming
// engine materializes each function at its arrival event — sources deliver
// complete subtrees at close-tag time, which *is* bottom-up order — into a
// phase-1 buffer, captures per-element bundles as frames close, and splices
// phase1 ++ bundle(root) into the audit at the end: the same order, merely
// assembled instead of chronological.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/telemetry"
	"axml/internal/xmlio"
)

// ErrStreamUnsupported reports input or configuration the streaming engine
// cannot handle; callers holding the document as a tree should re-run on
// the tree path (RewriteDocumentStream does so automatically).
var ErrStreamUnsupported = errors.New("core: streaming enforcement unavailable")

// streamFallbackReasons enumerates the causes pre-registered on the
// axml_stream_fallbacks_total counter.
var streamFallbackReasons = []string{"mode", "target", "func-root", "wild-func"}

// StreamResult reports how a streaming rewrite went.
type StreamResult struct {
	// Streamed is false when the tree engine served the request; then
	// FallbackReason names why ("mode", "target", "func-root", "wild-func").
	Streamed       bool
	FallbackReason string
	// PeakBufferedBytes/Nodes measure the largest resident frontier —
	// the O(depth) claim, observable per rewrite.
	PeakBufferedBytes int
	PeakBufferedNodes int
	// BytesWritten counts output bytes that reached the writer.
	BytesWritten int64
	// FirstByte is the latency to the first output byte (0 if none left
	// the buffer before completion).
	FirstByte time.Duration
	// Calls is the number of audited invocations.
	Calls int
}

// CanStream reports whether the streaming engine handles this
// rewriter/mode combination; reason is "" when it does.
func (rw *Rewriter) CanStream(mode Mode) (bool, string) {
	if mode != Safe {
		return false, "mode"
	}
	if !rw.Compiled.StreamableTarget() {
		return false, "target"
	}
	return true, ""
}

// StreamableTarget reports whether no target content model admits a
// function (or pattern-expanded function) symbol at any position. Then a
// keep decision can never succeed, every function is surely invoked, and
// streamed output is provably function-free. Computed once per Compiled.
func (c *Compiled) StreamableTarget() bool {
	c.streamOnce.Do(func() { c.streamable = c.computeStreamable() })
	return c.streamable
}

func (c *Compiled) computeStreamable() bool {
	for label := range c.Target.Labels {
		r, isData, ok := c.ContentModel(label)
		if !ok || isData || r == nil {
			continue
		}
		for _, cls := range regex.Positions(r).Classes {
			if cls.Negated {
				return false // could admit a function symbol
			}
			for _, s := range cls.Syms {
				if c.funcs[s] != nil {
					return false
				}
			}
		}
	}
	return true
}

// streamPrescan reports whether the tree can stream: a function node under
// a target-undeclared (wildcard) element survives rewriting untouched, and
// the emitter cannot represent it without the root xmlns:int declaration
// the batch printer would add. One pointer walk, no allocation; only the
// elements holding a function node are looked up in the target. Function
// parameters are scanned as fresh roots: parameters of an invoked call are
// consumed, and a call that cannot be invoked fails the word check on both
// engines. holds reports whether n's subtree holds a function node.
func (rw *Rewriter) streamPrescan(n *doc.Node) (ok, holds bool) {
	switch n.Kind {
	case doc.Func:
		for _, c := range n.Children {
			if ok, _ := rw.streamPrescan(c); !ok {
				return false, true
			}
		}
		return true, true
	case doc.Element:
		for _, c := range n.Children {
			ok, h := rw.streamPrescan(c)
			if !ok {
				return false, true
			}
			holds = holds || h
		}
		if holds {
			if _, _, declared := rw.Compiled.ContentModel(n.Label); !declared {
				return false, true
			}
		}
		return true, holds
	}
	return true, false
}

// RewriteDocumentStream enforces the exchange schema on root and writes the
// serialized result to w in one pass, falling back to the tree engine (plus
// direct serialization) for configurations streaming cannot handle. The
// document is mutated like RewriteDocument; pass a clone to keep the
// original.
func (rw *Rewriter) RewriteDocumentStream(ctx context.Context, root *doc.Node, w io.Writer, mode Mode) (*StreamResult, error) {
	reason := ""
	if ok, r := rw.CanStream(mode); !ok {
		reason = r
	} else if root.Kind != doc.Element {
		reason = "func-root"
	} else if ok, _ := rw.streamPrescan(root); !ok {
		reason = "wild-func"
	}
	if reason != "" {
		rw.Instruments.countStreamFallback(reason)
		res := &StreamResult{FallbackReason: reason}
		out, err := rw.RewriteDocument(ctx, root, mode)
		if err != nil {
			return res, err
		}
		return res, xmlio.WriteTo(w, out)
	}
	return rw.runStream(ctx, xmlio.NewTreeSource(root), w)
}

// RewriteStream enforces the exchange schema on a token stream — no tree is
// ever materialized. Unlike RewriteDocumentStream it cannot fall back (the
// stream is consumed as it goes): unsupported configurations return
// ErrStreamUnsupported before any token is read, and documents that turn
// out to need the tree path (function nodes in wildcard territory) fail
// mid-stream with the same error.
func (rw *Rewriter) RewriteStream(ctx context.Context, src xmlio.TokenSource, w io.Writer, mode Mode) (*StreamResult, error) {
	if ok, reason := rw.CanStream(mode); !ok {
		rw.Instruments.countStreamFallback(reason)
		return &StreamResult{FallbackReason: reason}, fmt.Errorf("%w: %s", ErrStreamUnsupported, reason)
	}
	return rw.runStream(ctx, src, w)
}

// runStream is the instrumented entry, mirroring RewriteForest:
// rewrite ID, stamped event sink, span, latency and stream metrics.
func (rw *Rewriter) runStream(ctx context.Context, src xmlio.TokenSource, w io.Writer) (*StreamResult, error) {
	if rw.Invoker == nil {
		return nil, fmt.Errorf("core: Rewriter has no Invoker; use CheckForest for static analysis")
	}
	id := telemetry.TraceIDFrom(ctx)
	if id == "" {
		id = telemetry.NewID()
		ctx = telemetry.WithTraceID(ctx, id)
	}
	ins := rw.Instruments
	sink := &stampSink{inner: rw.Audit, extra: rw.Events, ins: ins, id: id}
	if ins == nil {
		return rw.streamBody(ctx, src, w, sink, time.Now())
	}
	ctx = telemetry.WithRegistry(ctx, ins.Registry())
	ctx, span := telemetry.StartSpan(ctx, "rewrite.stream")
	span.SetAttr("rewrite_id", id)
	span.SetAttr("k", strconv.Itoa(rw.K))
	start := time.Now()
	res, err := rw.streamBody(ctx, src, w, sink, start)
	ins.observeRewrite(Safe, time.Since(start), err, id)
	if res != nil {
		ins.observeStream(res.PeakBufferedBytes, res.PeakBufferedNodes, res.FirstByte, err)
	}
	span.End(err)
	return res, err
}

// streamBody drives the event loop. Decisions and invocations run on a
// sequential executor sharing one execState, so verdicts, memos, the call
// budget and instrument counters behave exactly as on the sequential tree
// engine; with Parallelism > 1 a speculation pool overlaps the wall-clock
// work of surely-invoked calls with parsing without touching any ordering.
func (rw *Rewriter) streamBody(ctx context.Context, src xmlio.TokenSource, w io.Writer, sink EventSink, start time.Time) (*StreamResult, error) {
	res := &StreamResult{Streamed: true}
	srw := *rw
	srw.Parallelism = 0
	var spec *specPool
	if rw.Parallelism > 1 {
		spec = newSpecPool(WithEventSink(ctx, sink), rw.Invoker, rw.Parallelism)
		srw.Invoker = &specInvoker{pool: spec}
		defer spec.close()
	}
	ex := &executor{rw: &srw, ctx: WithEventSink(ctx, sink), mode: Safe,
		st: &execState{paramsDone: map[*doc.Node]bool{}, permafrost: map[*doc.Node]bool{}}}
	em := xmlio.NewEmitter(w)

	var g *streamEngine
	bundle, err := func() ([]CallRecord, error) {
		for {
			ev, err := src.Next()
			if err != nil {
				return nil, err
			}
			if g == nil {
				// First event: establish the document word type, as
				// documentType does on the tree path.
				label := rw.Compiled.Target.Root
				if label == "" {
					if ev.Kind != xmlio.EventStart {
						return nil, &NotSafeError{Msg: "document root is a function node and the target schema declares no root label"}
					}
					label = ev.Label
				}
				if rw.Compiled.Target.Labels[label] == nil {
					return nil, &NotSafeError{Msg: fmt.Sprintf("root label %q is not declared by the target schema", label)}
				}
				typ := regex.Sym(rw.Compiled.Table.Intern(label))
				g = &streamEngine{rw: &srw, ex: ex, em: em, c: rw.Compiled,
					d: rw.Compiled.Deriver(), spec: spec, phase1: &trail{},
					frames: make([]sFrame, 1, 16),
					labels: map[string]*labelInfo{}}
				g.frames[0] = sFrame{virtual: true, content: typ, resid: typ}
			}
			switch ev.Kind {
			case xmlio.EventStart:
				if err := g.start(ev.Label); err != nil {
					return nil, err
				}
			case xmlio.EventText:
				if err := g.text(ev.Text); err != nil {
					return nil, err
				}
			case xmlio.EventFunc:
				if err := g.fun(ev.Node); err != nil {
					return nil, err
				}
			case xmlio.EventEnd:
				if err := g.end(); err != nil {
					return nil, err
				}
			case xmlio.EventEOF:
				return g.finish()
			}
		}
	}()
	if g != nil {
		res.PeakBufferedBytes = g.peakBytes
		res.PeakBufferedNodes = g.peakNodes
	}
	if err != nil {
		em.Abort()
		res.BytesWritten = em.BytesWritten()
		return res, err
	}
	if err := em.End(); err != nil {
		return res, err
	}
	// The audit trail becomes visible only now, in tree-engine order:
	// phase-1 parameter materializations first, then the document bundle.
	for _, r := range g.phase1.calls {
		rw.Audit.Record(r)
	}
	for _, r := range bundle {
		rw.Audit.Record(r)
	}
	res.BytesWritten = em.BytesWritten()
	if t, ok := em.FirstByteAt(); ok {
		res.FirstByte = t.Sub(start)
	}
	res.Calls = len(g.phase1.calls) + len(bundle)
	return res, nil
}

// sFrame is the engine's per-open-element state. Frames live by value on
// the engine's stack, so opening an element allocates nothing; a frame's
// path is rendered from the stack only when an error or an island needs it.
type sFrame struct {
	label string
	// index is the element's position among its parent's children — the
	// index the tree engine's error paths use.
	index int
	// Exactly one of these classifications applies: virtual (the synthetic
	// forest-level frame), wild (target-undeclared: verbatim passthrough),
	// isData (atomic content), or structured (resid tracks the residual
	// content model).
	virtual bool
	wild    bool
	isData  bool
	content *regex.Regex
	resid   *regex.Regex
	// childIdx counts direct children in arrival order — the same indices
	// the tree engine's recursion uses in error paths. preCount snapshots
	// it when the island begins (island positions shift under splices;
	// prefix positions do not).
	childIdx int
	preCount int
	// island buffers the unresolved suffix of the child word; islandOn
	// flips at the first function child, or at the first non-text child
	// of a data frame, whose text streams until then.
	islandOn bool
	island   []*doc.Node
	// records accumulates the audit bundles of closed streamed children,
	// in document order.
	records []CallRecord
	// bufBytes/bufNodes account this frame's share of the buffered frontier.
	bufBytes int
	bufNodes int
}

// streamEngine is the event-loop state: the frame stack, the island
// subtree build stack, the phase-1 audit buffer and frontier accounting.
type streamEngine struct {
	rw     *Rewriter
	ex     *executor
	em     *xmlio.Emitter
	c      *Compiled
	d      *regex.Deriver
	spec   *specPool
	frames []sFrame
	// bstack tracks elements under construction inside the current island:
	// events below an island build real subtrees for the executor.
	bstack []*doc.Node
	phase1 *trail
	// labels memoizes, for one rewrite, what every element open would
	// otherwise look up in the shared, locked tables: a label's symbol,
	// its target declaration and the residual step it last took.
	labels map[string]*labelInfo

	curBytes, peakBytes int
	curNodes, peakNodes int
}

// labelInfo is the per-rewrite memo of one element label, seeded from the
// label's frozen entry.
type labelInfo struct {
	sym      regex.Symbol
	content  *regex.Regex
	isData   bool
	declared bool
	// from and to remember the label's last residual step. The Deriver
	// hands out one residual per state and symbol, so a label that keeps
	// arriving in the same context steps from the same pointer.
	from, to *regex.Regex
}

func (g *streamEngine) label(l string) *labelInfo {
	li := g.labels[l]
	if li == nil {
		e := g.c.names[l]
		li = &labelInfo{sym: g.c.symOf(e, l)}
		if e != nil && e.declared {
			li.content, li.isData, li.declared = e.content.re, e.data, true
		}
		g.labels[l] = li
	}
	return li
}

// step derives the residual r by the label's symbol.
func (g *streamEngine) step(r *regex.Regex, li *labelInfo) *regex.Regex {
	if li.from != r {
		li.from, li.to = r, g.d.Derive(r, li.sym)
	}
	return li.to
}

func (g *streamEngine) cur() *sFrame { return &g.frames[len(g.frames)-1] }

// framePath returns the path of fr, whose ancestors are the stacked frames
// above (the virtual frame names no node).
func framePath(ancestors []sFrame, fr *sFrame) nodePath {
	if fr.virtual {
		return nodePath{}
	}
	var up *nodePath
	for i := 1; i < len(ancestors); i++ {
		up = &nodePath{up: up, label: ancestors[i].label, index: ancestors[i].index}
	}
	return nodePath{up: up, label: fr.label, index: fr.index}
}

// curPath returns the path of the innermost open frame.
func (g *streamEngine) curPath() nodePath {
	return framePath(g.frames[:len(g.frames)-1], g.cur())
}

// account charges a buffered subtree to fr and updates the peak frontier.
func (g *streamEngine) account(fr *sFrame, n *doc.Node) {
	b, c := n.Size(), n.Count()
	fr.bufBytes += b
	fr.bufNodes += c
	g.curBytes += b
	g.curNodes += c
	if g.curBytes > g.peakBytes {
		g.peakBytes = g.curBytes
	}
	if g.curNodes > g.peakNodes {
		g.peakNodes = g.curNodes
	}
}

// releaseBuf returns fr's buffered share to the frontier accounting.
func (g *streamEngine) releaseBuf(fr *sFrame) {
	g.curBytes -= fr.bufBytes
	g.curNodes -= fr.bufNodes
	fr.bufBytes, fr.bufNodes = 0, 0
}

// addIsland appends a direct child to the current frame's island, starting
// the island if needed.
func (g *streamEngine) addIsland(n *doc.Node) {
	fr := g.cur()
	if !fr.islandOn {
		fr.islandOn = true
		fr.preCount = fr.childIdx
	}
	fr.island = append(fr.island, n)
	fr.childIdx++
	g.account(fr, n)
}

// start handles an element-open event.
func (g *streamEngine) start(label string) error {
	if len(g.bstack) > 0 {
		n := doc.Elem(label)
		top := g.bstack[len(g.bstack)-1]
		top.Children = append(top.Children, n)
		g.account(g.cur(), n)
		g.bstack = append(g.bstack, n)
		return nil
	}
	fr := g.cur()
	if fr.islandOn || fr.isData {
		// An element inside atomic content is an error collapseToData
		// reports at the close, as the tree engine does.
		n := doc.Elem(label)
		g.addIsland(n)
		g.bstack = append(g.bstack, n)
		return nil
	}
	if fr.wild {
		g.em.StartElement(label)
		g.push(label, 0, nil, false, true)
		return nil
	}
	// Structured (or virtual) frame: the child's symbol extends the
	// function-free prefix, so step the residual. A dead residual means no
	// suffix can complete the word — the tree engine's static check would
	// refuse the document too.
	li := g.label(label)
	fr.resid = g.step(fr.resid, li)
	if fr.resid.IsNever() {
		return &NotSafeError{Path: g.curPath().String(), Msg: fmt.Sprintf(
			"child %q cannot extend any word matching %s", label, fr.content.String(g.c.Table))}
	}
	idx := fr.childIdx
	fr.childIdx++
	if !li.declared && g.rw.ctx.Strict {
		at := nodePath{up: g.curPath().box(), label: label, index: idx}
		return &NotSafeError{Path: at.String(), Msg: fmt.Sprintf(
			"element %q is not declared by the target schema", label)}
	}
	g.em.StartElement(label)
	g.push(label, idx, li.content, li.isData, !li.declared)
	return nil
}

// push opens a frame. Frames open and close once per element, so the slot
// is filled field by field: storing a whole sFrame costs a bulk write
// barrier while the garbage collector marks. A closed frame leaves its slot
// with no island or records (see end).
func (g *streamEngine) push(label string, index int, content *regex.Regex, isData, wild bool) {
	n := len(g.frames)
	if n == cap(g.frames) {
		g.frames = append(g.frames, sFrame{})
	} else {
		g.frames = g.frames[:n+1]
	}
	f := &g.frames[n]
	f.label, f.index, f.content, f.resid = label, index, content, content
	f.virtual, f.wild, f.isData, f.islandOn = false, wild, isData, false
	f.childIdx, f.preCount, f.bufBytes, f.bufNodes = 0, 0, 0, 0
}

// text handles a character-data event.
func (g *streamEngine) text(v string) error {
	if len(g.bstack) > 0 {
		n := doc.TextNode(v)
		top := g.bstack[len(g.bstack)-1]
		top.Children = append(top.Children, n)
		g.account(g.cur(), n)
		return nil
	}
	fr := g.cur()
	if fr.wild {
		g.em.Text(v)
		return nil
	}
	if fr.virtual {
		if strings.TrimSpace(v) != "" {
			return &NotSafeError{Msg: fmt.Sprintf("stray text %q at document level", v)}
		}
		return nil
	}
	if !fr.isData && strings.TrimSpace(v) != "" {
		return &NotSafeError{Path: g.curPath().String(), Msg: fmt.Sprintf(
			"element %q has structured content but contains text", fr.label)}
	}
	if fr.islandOn {
		g.addIsland(doc.TextNode(v))
		return nil
	}
	// Text ahead of any function streams through: whitespace in a
	// structured element (the tree engine keeps the node, so it still
	// occupies a child index), and the atomic content of a data element,
	// which collapses to itself. The emitter holds a lone text back, so
	// the element still takes the form the batch printer picks.
	fr.childIdx++
	g.em.Text(v)
	return nil
}

// fun handles a complete function subtree.
func (g *streamEngine) fun(n *doc.Node) error {
	if len(g.bstack) == 0 && g.cur().wild {
		return fmt.Errorf("%w: function node under wildcard element %q", ErrStreamUnsupported, g.cur().label)
	}
	// Phase 1 at arrival: sources deliver function subtrees at close-tag
	// time, which is doc.FuncsBottomUp order over the whole document —
	// records land in the phase-1 buffer in tree-engine order. Nested
	// functions inside n's parameters are handled by the recursive
	// materialization, again exactly as the tree engine does.
	g.ex.audit = g.phase1
	if err := g.ex.materializeParams(n, nodePath{}); err != nil {
		return err
	}
	if len(g.bstack) > 0 {
		top := g.bstack[len(g.bstack)-1]
		top.Children = append(top.Children, n)
		g.account(g.cur(), n)
		return nil
	}
	g.addIsland(n)
	// Overlap invocation with parsing: under a streamable target a keep
	// can never pass the word check, so a callable direct occurrence is
	// surely invoked — dispatch it now and let the decision loop claim
	// the result. Data-frame functions go through collapseToData with its
	// own invocability rules; leave those synchronous.
	if g.spec != nil && !g.cur().isData && g.ex.callable(&item{node: n}) {
		g.spec.dispatch(n)
	}
	return nil
}

// end handles an element-close event.
func (g *streamEngine) end() error {
	if len(g.bstack) > 0 {
		g.bstack = g.bstack[:len(g.bstack)-1]
		return nil
	}
	// Pop the frame. Its slot stays intact until the next push; what it
	// buffered is dropped below, so the stack keeps no nodes of a closed
	// element.
	top := len(g.frames) - 1
	fr := &g.frames[top]
	g.frames = g.frames[:top]
	parent := g.cur()
	switch {
	case fr.wild:
		// Wildcard territory: the tree engine leaves the subtree untouched.
		g.em.EndElement()
		return nil
	case fr.isData && !fr.islandOn:
		// Text only, already streamed: it collapses to itself.
		g.em.EndElement()
		return nil
	case fr.isData:
		own := &trail{}
		g.ex.audit = own
		kids, err := g.ex.collapseToData(fr.island, framePath(g.frames, fr))
		if err != nil {
			return err
		}
		g.em.Finish(kids)
		g.releaseBuf(fr)
		parent.records = append(parent.records, own.calls...)
		fr.island = nil
		return nil
	case fr.islandOn:
		out, bundle, err := g.resolveIsland(fr)
		if err != nil {
			return err
		}
		g.em.Finish(out)
		parent.records = append(parent.records, bundle...)
		fr.island, fr.records = nil, nil
		return nil
	default:
		// Function-free word: acceptance is exactly nullability of the
		// residual.
		if !fr.resid.Nullable() {
			return &NotSafeError{Path: framePath(g.frames, fr).String(), Msg: fmt.Sprintf(
				"children of %q form an incomplete word for %s", fr.label, fr.content.String(g.c.Table))}
		}
		g.em.EndElement()
		if fr.records != nil {
			parent.records = append(parent.records, fr.records...)
			fr.records = nil
		}
		return nil
	}
}

// resolveIsland runs the real decision machinery on the buffered suffix
// against the frame's residual target: a static word pre-check (mirroring
// staticCheck.element), the executor's rewriteWord, then element recursion
// over the survivors. It returns the rewritten suffix and the frame's
// complete audit bundle — own word records, then the streamed prefix
// children's bundles, then the island recursion's records, which is the
// tree engine's bundle order for this element. fr is closed: its ancestors
// are the stacked frames.
func (g *streamEngine) resolveIsland(fr *sFrame) ([]*doc.Node, []CallRecord, error) {
	ex := g.ex
	at := framePath(g.frames, fr)
	toks := make([]Token, 0, len(fr.island))
	for _, n := range fr.island {
		if n.Kind == doc.Text {
			continue
		}
		tok := Token{Sym: g.c.symbol(n.Label), Node: n}
		if n.Kind == doc.Func && !ex.callable(&item{node: n}) {
			tok.Frozen = true
		}
		toks = append(toks, tok)
	}
	ok, err := g.rw.wordOK(toks, fr.resid, Safe)
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		return nil, nil, &NotSafeError{Path: at.String(), Msg: fmt.Sprintf(
			"children %s do not Safe-rewrite into %s within depth %d",
			forestLabels(fr.island), fr.resid.String(g.c.Table), g.rw.K)}
	}
	own := &trail{}
	ex.audit = own
	out, _, err := ex.rewriteWord(fr.island, adhoc(fr.resid), at)
	if err != nil {
		return nil, nil, err
	}
	rec := &trail{}
	ex.audit = rec
	up := at.box()
	for j, n := range out {
		switch n.Kind {
		case doc.Func:
			// Unreachable under the streamability gate; refuse rather than
			// emit bytes the batch printer would have namespaced.
			return nil, nil, fmt.Errorf("core: internal: function %q survived a streaming rewrite", n.Label)
		case doc.Element:
			if err := ex.element(n, nodePath{up: up, label: n.Label, index: fr.preCount + j}, false); err != nil {
				return nil, nil, err
			}
		}
	}
	bundle := make([]CallRecord, 0, len(own.calls)+len(fr.records)+len(rec.calls))
	bundle = append(bundle, own.calls...)
	bundle = append(bundle, fr.records...)
	bundle = append(bundle, rec.calls...)
	g.releaseBuf(fr)
	return out, bundle, nil
}

// finish closes the virtual forest frame at end of document and returns the
// document bundle.
func (g *streamEngine) finish() ([]CallRecord, error) {
	fr := &g.frames[0]
	if fr.islandOn {
		out, bundle, err := g.resolveIsland(fr)
		if err != nil {
			return nil, err
		}
		for _, n := range out {
			g.em.Tree(n)
		}
		return bundle, nil
	}
	if !fr.resid.Nullable() {
		return nil, &NotSafeError{Msg: fmt.Sprintf(
			"document word is incomplete for %s", fr.content.String(g.c.Table))}
	}
	return fr.records, nil
}

// ---------------------------------------------------------------------------
// Speculative invocation: overlap service calls with parsing.

// specPool runs surely-invoked calls ahead of their decision point. The
// decision loop still performs every invocation through the executor —
// validation, converters, the call budget and the audit record all happen
// at claim time in document order — only the wall-clock wait overlaps
// parsing. Unclaimed in-flight calls are cancelled when the rewrite ends.
type specPool struct {
	inner  Invoker
	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{}
	wg     sync.WaitGroup

	mu      sync.Mutex
	pending map[*doc.Node]*specCall
}

type specCall struct {
	done chan struct{}
	res  []*doc.Node
	err  error
}

func newSpecPool(ctx context.Context, inner Invoker, degree int) *specPool {
	ctx, cancel := context.WithCancel(ctx)
	return &specPool{inner: inner, ctx: ctx, cancel: cancel,
		sem: make(chan struct{}, degree), pending: map[*doc.Node]*specCall{}}
}

// dispatch starts call speculatively when a worker slot is free; otherwise
// the call simply happens synchronously at decision time.
func (p *specPool) dispatch(call *doc.Node) {
	select {
	case p.sem <- struct{}{}:
	default:
		return
	}
	sc := &specCall{done: make(chan struct{})}
	p.mu.Lock()
	p.pending[call] = sc
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		sc.res, sc.err = p.inner.Invoke(p.ctx, call)
		close(sc.done)
		<-p.sem
	}()
}

func (p *specPool) claim(call *doc.Node) *specCall {
	p.mu.Lock()
	sc := p.pending[call]
	if sc != nil {
		delete(p.pending, call)
	}
	p.mu.Unlock()
	return sc
}

// close cancels unclaimed in-flight calls and waits for the workers.
func (p *specPool) close() {
	p.cancel()
	p.wg.Wait()
}

// specInvoker resolves claims against the pool before falling back to the
// wrapped invoker. The executor calls it synchronously from the decision
// loop, so audit order is untouched.
type specInvoker struct {
	pool *specPool
}

func (s *specInvoker) Invoke(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
	if sc := s.pool.claim(call); sc != nil {
		select {
		case <-sc.done:
			return sc.res, sc.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s.pool.inner.Invoke(ctx, call)
}
