package core

import (
	"context"
	"errors"
	"sync"

	"axml/internal/doc"
	"axml/internal/regex"
)

// This file implements the parallel materialization engine: the paper's
// rewriting discipline only constrains invocation order *within one
// content-model word* (Section 4) — calls sitting in disjoint element
// subtrees, and the whole mixed-mode speculative pass (Section 5), carry no
// ordering obligations at all. The engine exploits exactly that slack:
//
//   - sibling element subtrees rewrite concurrently (each subtree's content
//     models are analyzed in isolation), with document order preserved by
//     slot assignment rather than execution order;
//   - the mixed-mode pre-invocation pass gathers every admissible outermost
//     call and issues them as one concurrent batch, round by round;
//   - safe-mode word rewriting pipelines within a word: the left-to-right
//     scan fixes keep/invoke verdicts without performing any call, then the
//     decided invocations dispatch as one concurrent batch and splice back
//     left-to-right; occurrences arriving inside spliced results — the
//     genuinely dependent positions — are decided in the next round.
//
// Within-word verdicts made while calls are pending are only final when
// they provably coincide with the sequential engine's (see scan);
// dependent positions defer to the next round, so the engine makes exactly
// the decisions the sequential one would, in batches.
//
// Possible mode keeps its sequential within-word loop (backtracking re-reads
// earlier decisions), but still gains subtree- and pre-invoke-level
// concurrency.
//
// Determinism: a parallelism degree of 1 (or 0) takes the sequential code
// paths untouched — byte-for-byte identical trees, errors and audit order.
// At higher degrees, every fan-out buffers its audit (call records and
// policy events) per slot and flushes the buffers in document order, so the
// trail is deterministic for a fixed degree even though execution order is
// not.

// DefaultParallelism is the degree selected when RewriterConfig leaves
// Parallelism zero: sequential execution, the paper's original discipline.
const DefaultParallelism = 1

// parScheduler bounds the number of concurrently executing rewriting tasks.
// It hands out degree-1 extra worker slots; the spawning goroutine always
// counts as the remaining one, running tasks inline when no slot is free, so
// nested fan-outs can never deadlock on the pool.
type parScheduler struct {
	degree int
	slots  chan struct{}
}

// newParScheduler returns nil for degree <= 1: the executor treats a nil
// scheduler as "run the sequential code paths".
func newParScheduler(degree int) *parScheduler {
	if degree <= 1 {
		return nil
	}
	return &parScheduler{degree: degree, slots: make(chan struct{}, degree-1)}
}

// tryAcquire claims a worker slot without blocking.
func (s *parScheduler) tryAcquire() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *parScheduler) release() { <-s.slots }

// runSlots executes n slot tasks. With no scheduler (or a single slot) it
// degenerates to the sequential loop, stopping at the first error — the
// pre-parallel behavior. With a scheduler it fans the slots out, cancelling
// the remaining ones on the first failure, and flushes each slot's buffered
// audit trail in slot order once all are done. The returned error is the
// first slot's (in document order) whose failure is not a cancellation
// artifact of some other slot's.
func (ex *executor) runSlots(n int, fn func(child *executor, i int) error) error {
	if n == 0 {
		return nil
	}
	sched := ex.st.sched
	if sched == nil || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(ex, i); err != nil {
				return err
			}
		}
		return nil
	}
	cctx, cancel := context.WithCancel(ex.ctx)
	defer cancel()
	bufs := make([]*trail, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	run := func(i int) {
		if err := cctx.Err(); err != nil {
			errs[i] = err
			return
		}
		child := &executor{rw: ex.rw, ctx: WithEventSink(cctx, bufs[i]), mode: ex.mode,
			audit: bufs[i], st: ex.st}
		if err := fn(child, i); err != nil {
			errs[i] = err
			cancel()
		}
	}
	ins := ex.rw.Instruments
	for i := 0; i < n; i++ {
		bufs[i] = &trail{}
		if sched.tryAcquire() {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer sched.release()
				ins.taskStart(true)
				defer ins.taskEnd()
				run(i)
			}(i)
		} else {
			ins.taskStart(false)
			run(i)
			ins.taskEnd()
		}
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		ex.flushSlot(bufs[i])
	}
	return firstSlotError(ex.ctx, errs)
}

// flushSlot replays a slot's buffered trail into the parent executor's audit
// and event sink, preserving the slot's internal order.
func (ex *executor) flushSlot(buf *trail) {
	buf.mu.Lock()
	defer buf.mu.Unlock()
	for _, e := range buf.events {
		Emit(ex.ctx, e)
	}
	for _, c := range buf.calls {
		ex.audit.Record(c)
	}
}

// recorder takes an executor's call records: the Rewriter's Audit, or a
// trail buffering one parallel slot.
type recorder interface {
	Record(r CallRecord)
}

// trail buffers the calls and events of one parallel slot until they are
// replayed, in document order, into the Rewriter's Audit. Unlike Audit it
// keeps everything — it lives for one rewriting — so the replay is exact
// however many calls one slot makes.
type trail struct {
	mu     sync.Mutex
	calls  []CallRecord
	events []InvokeEvent
}

func (t *trail) Record(r CallRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls = append(t.calls, r)
}

func (t *trail) RecordEvent(e InvokeEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, e)
}

// firstSlotError picks the error to surface from a fan-out: the first slot,
// in document order, that failed for a reason of its own. Cancellation
// errors are only reported when nothing better exists (or when the whole
// rewriting's context is done, in which case they are the true cause).
func firstSlotError(ctx context.Context, errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if ctx.Err() == nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return first
}

// ---------------------------------------------------------------------------
// Safe-mode within-word pipelining.

// decideParallel is the parallel counterpart of decideFrom for Safe mode:
// round after round, it fixes every verdict no pending call can change
// (scan), dispatches the invocations decided concurrently, and splices the
// results back left-to-right, until every position is kept or exhausted.
// The first round reads the verdicts the plan made (executor.plan) instead
// of analyzing those positions again.
//
// The deferral rule (see scan) keeps the engine's decisions — and therefore
// the final tree and the set of calls made — identical to the sequential
// engine's at every degree; only the dispatch order (and so the
// wall-clock) differs. Safe mode never revisits a keep (there is no
// backtracking), so decisions from earlier rounds stand. Every round
// batches at least the leftmost undecided invocation, so the loop
// terminates.
func (w *wordRun) decideParallel() error {
	ex := w.ex
	for {
		pending, err := w.scan(false, nil)
		if err != nil {
			return err
		}
		if len(pending) == 0 {
			return nil
		}
		ex.rw.Instruments.round(phaseWord, len(pending))
		results := make([][]*doc.Node, len(pending))
		err = ex.runSlots(len(pending), func(child *executor, k int) error {
			it := w.items[pending[k]]
			res, err := child.invoke(it.node, it.depth+1)
			if err != nil {
				return err
			}
			results[k] = res
			return nil
		})
		if err != nil {
			return err
		}
		next := make([]*item, 0, len(w.items))
		k := 0
		for j, it := range w.items {
			if k < len(pending) && pending[k] == j {
				for _, n := range results[k] {
					next = append(next, &item{node: n, depth: it.depth + 1})
					if n.Kind == doc.Func {
						// Output instances conform: parameters arrive
						// materialized.
						ex.markParamsDone(n)
					}
				}
				k++
				continue
			}
			next = append(next, it)
		}
		w.items = next
	}
}

// scan makes one left-to-right pass over the word's undecided callable
// positions, fixing every keep-or-invoke verdict no pending call can
// change, without making a call. It marks the positions it decides to
// invoke pending and returns them, in order, appended to pending.
//
// Verdicts made while earlier positions' calls are pending must coincide
// with the decisions the sequential engine (decideFrom) would make after
// seeing those calls' actual results:
//
//   - A keep verdict (wordOK true with the position frozen and every pending
//     call treated as a still-invocable occurrence) quantifies over the
//     pending calls' whole output languages, so it implies the sequential
//     verdict for whatever they actually return. Keeps are always final.
//   - An invoke verdict (wordOK false) is final only while every pending
//     call before the position will splice one known word
//     (singletonOutput): then quantifying over its outputs is the same as
//     splicing that word, and the verdict is exactly the sequential one.
//     Once a pending call can answer with more than one word, the safe
//     strategy may need to adapt to the answer (keep a later occurrence on
//     one output, call it on another), so such positions are open: they
//     defer to the next round, where they are re-analyzed against the
//     actual spliced results — precisely the word state the sequential
//     engine decides them in.
//
// A position the plan decided takes the plan's verdict without an
// analysis. With plan set, the pass is the plan's own (executor.plan): it
// counts no decision, since the executor counts each one when it reads it,
// and it stops before the first open position, leaving it and the rest of
// the word unanalyzed for the executor to decide as it always did.
func (w *wordRun) scan(plan bool, pending []int) ([]int, error) {
	ex := w.ex
	ins := ex.rw.Instruments
	open := false // a pending position to the left can answer more than one word
	for j, it := range w.items {
		if it.pending || !ex.callable(it) {
			continue
		}
		if open && plan {
			break
		}
		keep, err := w.keeps(it)
		if err != nil {
			return nil, err
		}
		switch {
		case keep:
			it.kept = true
			if !plan {
				ins.countKeep()
			}
		case open:
			// Dependent position: the verdict could change once the
			// pending calls' actual results are spliced. Leave it
			// undecided for the next round.
			ins.countDefer()
		default:
			if !plan {
				ins.countInvoke()
			}
			it.pending = true
			pending = append(pending, j)
			open = !ex.singletonOutput(it.node)
		}
	}
	return pending, nil
}

// singletonOutput reports whether invoking the function occurrence will
// splice one word known in advance: its declared output type denotes
// exactly one word of labels none of which names a function or pattern
// (atomic data produces no label tokens at all, so data-returning
// functions count), and returns are validated against it. For such
// functions, quantifying over the output language is the same as splicing
// the actual result, which makes verdicts fixed while the call is in
// flight exact.
func (ex *executor) singletonOutput(n *doc.Node) bool {
	c := ex.rw.Compiled
	fi := c.funcOf(n.Label)
	if fi == nil || !ex.rw.ValidateReturns {
		return false
	}
	if fi.Out == nil {
		return true
	}
	return singletonWord(fi.Out) && !mentionsFunc(c, fi.Out)
}

// mentionsFunc reports whether the regex names a function or pattern.
func mentionsFunc(c *Compiled, r *regex.Regex) bool {
	if r.Op == regex.OpSym {
		return c.Func(r.Sym) != nil
	}
	for _, s := range r.Subs {
		if mentionsFunc(c, s) {
			return true
		}
	}
	return false
}

// singletonWord reports whether the regex denotes exactly one word.
// Conservative: classes and unions report false even when their members
// happen to coincide.
func singletonWord(r *regex.Regex) bool {
	switch r.Op {
	case regex.OpEmpty, regex.OpSym:
		return true
	case regex.OpConcat:
		for _, s := range r.Subs {
			if !singletonWord(s) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// ---------------------------------------------------------------------------
// Batched mixed-mode pre-invocation.

// preTask is one admissible outermost call gathered for a pre-invocation
// batch round.
type preTask struct {
	parent *doc.Node // the container whose Children hold the call
	node   *doc.Node
	depth  int
	res    []*doc.Node
	keep   bool // transient failure: leave the occurrence intensional
}

// preInvokeBatch is the parallel mixed-mode speculative pass: round after
// round it gathers every admissible outermost call of the forest (walking
// sequentially, materializing parameters as the sequential pass would),
// issues the round as one concurrent batch through the invocation layer, and
// splices the results in document order. Calls appearing inside results are
// picked up by the next round at depth+1 while the depth bound allows.
func (ex *executor) preInvokeBatch(forest []*doc.Node, depth int) ([]*doc.Node, error) {
	pred := ex.rw.PreInvoke
	if pred == nil {
		pred = speculable
	}
	holder := &doc.Node{Kind: doc.Element, Children: forest}
	// depthAt overrides the inherited depth for the roots of spliced
	// results; everything below such a root inherits it during the walk.
	depthAt := map[*doc.Node]int{}
	for {
		var tasks []*preTask
		if err := ex.gatherPre(holder, depth, nodePath{}, pred, depthAt, &tasks); err != nil {
			return nil, err
		}
		if len(tasks) == 0 {
			return holder.Children, nil
		}
		ex.rw.Instruments.round(phasePre, len(tasks))
		err := ex.runSlots(len(tasks), func(child *executor, k int) error {
			t := tasks[k]
			res, err := child.invoke(t.node, t.depth+1)
			if err != nil {
				if child.ctx.Err() == nil && IsTransientCall(err) {
					// Best-effort pass: a flaky endpoint leaves the call
					// intensional; the safe analysis decides whether the
					// document still rewrites without it.
					child.freeze(t.node)
					Emit(child.ctx, InvokeEvent{Func: t.node.Label, Endpoint: EndpointOf(t.node),
						Kind: EventDegraded, Err: err.Error()})
					t.keep = true
					return nil
				}
				return err
			}
			t.res = res
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Splice each round's results into their containers, in document
		// order, then let the next gather round see the new occurrences.
		byParent := map[*doc.Node]map[*doc.Node]*preTask{}
		for _, t := range tasks {
			m := byParent[t.parent]
			if m == nil {
				m = map[*doc.Node]*preTask{}
				byParent[t.parent] = m
			}
			m[t.node] = t
		}
		for parent, m := range byParent {
			next := make([]*doc.Node, 0, len(parent.Children))
			for _, ch := range parent.Children {
				t, ok := m[ch]
				if !ok || t.keep {
					next = append(next, ch)
					continue
				}
				for _, r := range t.res {
					depthAt[r] = t.depth + 1
					if r.Kind == doc.Func {
						ex.markParamsDone(r)
					}
					next = append(next, r)
				}
			}
			parent.Children = next
		}
	}
}

// gatherPre walks one container collecting the admissible outermost calls of
// the current round. It mirrors the sequential pass's admission logic:
// depth-bounded, declared, invocable, admitted by the PreInvoke predicate,
// with parameters materialized (sequentially — parameter materialization may
// itself invoke) and not frozen by earlier failures.
func (ex *executor) gatherPre(container *doc.Node, depth int, at nodePath, pred func(*FuncInfo) bool, depthAt map[*doc.Node]int, tasks *[]*preTask) error {
	c := ex.rw.Compiled
	var up *nodePath
	for _, n := range container.Children {
		d := depth
		if over, ok := depthAt[n]; ok {
			d = over
		}
		if n.Kind == doc.Element {
			if up == nil {
				up = at.box()
			}
			if err := ex.gatherPre(n, d, nodePath{up: up, label: n.Label, index: plainStep}, pred, depthAt, tasks); err != nil {
				return err
			}
			continue
		}
		if n.Kind != doc.Func || d >= ex.rw.K {
			continue
		}
		fi := c.funcOf(n.Label)
		if fi == nil || !fi.Invocable || !pred(fi) {
			continue
		}
		if ex.isFrozen(n) {
			continue
		}
		for _, f := range doc.FuncsBottomUp(n) {
			if err := ex.materializeParams(f, at); err != nil {
				return err
			}
		}
		if ex.isFrozen(n) {
			continue
		}
		*tasks = append(*tasks, &preTask{parent: container, node: n, depth: d})
	}
	return nil
}
