package core

import (
	"context"
	"errors"
	"sync"

	"axml/internal/doc"
	"axml/internal/regex"
)

// This file holds the executor's slot pool and its Safe-mode round loop.
// The paper's rewriting discipline only constrains invocation order *within
// one content-model word* (Section 4): calls sitting in disjoint element
// subtrees, and the calls of Mixed mode's speculative pass (Section 5),
// carry no ordering obligation at all. The executor fans exactly that slack
// out through runSlots:
//
//   - sibling element subtrees rewrite in slots of their own (each
//     subtree's content models are analyzed in isolation);
//   - Mixed mode's pre-pass gives each element subtree and each speculable
//     call of a forest a slot (preInvoke);
//   - a Safe word decides in rounds (decideRounds): a left-to-right scan
//     fixes keep-or-invoke verdicts without making a call, the round's
//     calls take a slot each and splice back left to right, and the
//     positions whose verdict depends on a call's answer are decided in
//     the next round.
//
// Rewriter.Parallelism sizes the pool and selects no code path: degree 1
// runs every slot inline, in order, so it makes the calls the depth-first,
// one-call-at-a-time executor makes, in its order. Above degree 1 every
// fan-out buffers its audit (call records and policy events) per slot and
// flushes the buffers in document order, so trees, audit order, events and
// errors are those of degree 1 even though execution order is not. Only a
// failed fan-out differs: other slots may have finished calls before the
// failure cancelled them.

// DefaultParallelism is the degree selected when RewriterConfig leaves
// Parallelism zero: one slot, so every slot runs inline.
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
// scheduler as "run every slot inline".
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
// runs them inline, in order, stopping at the first error. With a
// scheduler it fans the slots out, cancelling the remaining ones on the
// first failure, and flushes each slot's buffered audit trail in slot
// order once all are done. The returned error is the first slot's (in
// document order) whose failure is not a cancellation artifact of some
// other slot's.
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
// Safe-mode rounds.

// pendingCall is an invocation a round decided: the position of its item
// in the word and, once dispatched, what the call returned.
type pendingCall struct {
	at  int
	res []*doc.Node
}

// decideRounds is the Safe-mode decision loop: round after round, it scans
// the word (scan), dispatches the invocations the scan decided, one slot
// each, and splices the results back left to right, until every position
// is kept or exhausted. A run the plan scanned (executor.plan) arrives with
// its first round decided, so scanned skips that round's scan.
//
// A round's calls are a left-to-right prefix of the word's undecided
// positions in which every call but the last splices one known word
// holding no call (singletonOutput). So the next round starts on the last
// call's returned occurrences, which is where a one-call-at-a-time loop
// (decideFrom) continues, and decides every position as that loop does, in
// its order. Safe mode never revisits a keep (there is no backtracking),
// and every round dispatches at least one call, so the loop terminates.
func (w *wordRun) decideRounds(scanned bool) error {
	ex := w.ex
	for {
		if !scanned {
			var err error
			if w.calls, err = w.scan(w.calls[:0]); err != nil {
				return err
			}
		}
		scanned = false
		if len(w.calls) == 0 {
			return nil
		}
		ex.rw.Instruments.round(len(w.calls))
		if err := ex.runSlots(len(w.calls), w.dispatch); err != nil {
			return err
		}
		w.splice()
	}
}

// dispatch makes the k-th call of the round on a slot's executor.
func (w *wordRun) dispatch(child *executor, k int) error {
	c := &w.calls[k]
	it := w.items[c.at]
	var err error
	c.res, err = child.invoke(it.node, it.depth+1)
	return err
}

// splice replaces the item of each of the round's calls by items holding
// the nodes the call returned, one level deeper, in word order. When every
// call returned one node, each call's item takes its node in place: no
// other item refers to a called one, which was neither kept nor is still
// forced.
func (w *wordRun) splice() {
	ex := w.ex
	size, single := len(w.items), true
	for _, c := range w.calls {
		size += len(c.res) - 1
		single = single && len(c.res) == 1
	}
	if single {
		for _, c := range w.calls {
			it, n := w.items[c.at], c.res[0]
			*it = item{node: n, depth: it.depth + 1}
			if n.Kind == doc.Func {
				ex.markParamsDone(n)
			}
		}
		return
	}
	next := make([]*item, 0, size)
	k := 0
	for j, it := range w.items {
		if k == len(w.calls) || w.calls[k].at != j {
			next = append(next, it)
			continue
		}
		for _, n := range w.calls[k].res {
			next = append(next, &item{node: n, depth: it.depth + 1})
			if n.Kind == doc.Func {
				// Output instances conform: parameters arrive materialized.
				ex.markParamsDone(n)
			}
		}
		k++
	}
	w.items = next
}

// scan makes one left-to-right pass over the word's undecided callable
// positions, deciding them without making a call: it keeps a position when
// keeping it preserves the verdict, and appends those it decides to invoke
// to calls, in order. It stops before the first position a pending call
// leaves open.
//
// Its verdicts are the ones a one-call-at-a-time loop (decideFrom) makes
// after seeing the actual results of the calls to the left:
//
//   - While every pending call to the left will splice one known word
//     holding no call (singletonOutput), quantifying over its outputs is
//     the same as splicing that word, so keep and invoke verdicts are
//     exactly the sequential ones.
//   - A pending call that can answer with more than one word, or with a
//     call, leaves every position to its right open: the safe strategy may
//     need to adapt to the answer (keep a later occurrence on one output,
//     call it on another). The scan stops there, and the next round
//     decides those positions against the actual results — precisely the
//     word state the sequential loop decides them in. So no position is
//     analyzed twice.
func (w *wordRun) scan(calls []pendingCall) ([]pendingCall, error) {
	ex := w.ex
	ins := ex.rw.Instruments
	for j, it := range w.items {
		if !ex.callable(it) {
			continue
		}
		keep, err := w.keeps(it)
		if err != nil {
			return nil, err
		}
		if keep {
			it.kept = true
			ins.countKeep()
			continue
		}
		ins.countInvoke()
		calls = append(calls, pendingCall{at: j})
		if !ex.singletonOutput(it.node) {
			break // the positions to its right wait for its answer
		}
	}
	return calls, nil
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
