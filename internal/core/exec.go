package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/telemetry"
	"axml/internal/xmlio"
)

// RewriteDocument rewrites the document in place into the target schema and
// returns the (possibly new) root: when the root itself is a function node,
// invoking it replaces it by the returned element. The returned document is
// an instance of the target schema, or an error explains why the rewriting
// was refused (safe mode) or failed (possible mode, with any side-effecting
// calls already recorded in the Audit). Cancellation or deadline expiry of
// ctx aborts the rewriting between (and, for context-aware invokers, during)
// service calls, returning the context's error; calls already performed
// remain recorded in the Audit.
func (rw *Rewriter) RewriteDocument(ctx context.Context, root *doc.Node, mode Mode) (*doc.Node, error) {
	return rw.RewriteSpineCopy(ctx, root, nil, mode)
}

// RewriteSpineCopy is RewriteDocument for a spine copy of a stored
// version: root must be a spine copy (doc.Node.SpineCopy or SpineCopyAlong)
// of the very tree from was rendered from, and from is nil when the version
// has no rendering yet. The first check of the version that passes under
// the Rewriter's Compiled is remembered there by from's ID; later checks of
// it skip the subtrees from shares, which are immutable and hold no call,
// and so does the search for calls. Passing the rendering of another tree
// would let a later check skip subtrees no check has seen.
func (rw *Rewriter) RewriteSpineCopy(ctx context.Context, root *doc.Node, from *xmlio.Rendering, mode Mode) (*doc.Node, error) {
	typ, err := rw.documentType(root)
	if err != nil {
		return nil, err
	}
	out, err := rw.rewriteForestContext(ctx, []*doc.Node{root}, typ, from, mode)
	if err != nil {
		return nil, err
	}
	if len(out) != 1 {
		return nil, &NotSafeError{Msg: fmt.Sprintf("document rewriting produced %d roots", len(out))}
	}
	return out[0], nil
}

// RewriteForest rewrites a forest into the given word type — the operation
// the Schema Enforcement module applies to service parameters (typ = τ_in)
// and results (typ = τ_out) — under ctx, with RewriteDocument's cancellation
// contract. Trees are mutated in place; the returned slice is the new top
// level. With Rewriter.Parallelism above 1 the rewriting runs on the parallel
// materialization engine (see parallel.go); at 1 it takes the sequential
// code paths unchanged.
//
// Read-only invariant: no executor — sequential or parallel, in any mode —
// writes into a function-free subtree of its input. Writes land only on
// function nodes (their parameters), on elements with a function node below
// them (their children), and on forests services returned, which belong to
// the caller (service.Handler). So the input may share its function-free
// subtrees with a stored document: doc.Node.SpineCopy copies exactly the
// part a rewriting writes.
func (rw *Rewriter) RewriteForest(ctx context.Context, forest []*doc.Node, typ *regex.Regex, mode Mode) ([]*doc.Node, error) {
	return rw.rewriteForestContext(ctx, forest, typ, nil, mode)
}

// rewriteForestContext is RewriteForest over a forest that is a
// spine copy of the version from renders, when from is not nil (see
// RewriteSpineCopy).
func (rw *Rewriter) rewriteForestContext(ctx context.Context, forest []*doc.Node, typ *regex.Regex, from *xmlio.Rendering, mode Mode) ([]*doc.Node, error) {
	if rw.Invoker == nil {
		return nil, fmt.Errorf("core: Rewriter has no Invoker; use CheckForest for static analysis")
	}
	// Every top-level rewriting carries an ID — generated here unless the
	// caller pinned one with telemetry.WithTraceID — stamped on call records,
	// policy events and spans so a slow trace matches its audit trail.
	id := telemetry.TraceIDFrom(ctx)
	if id == "" {
		id = telemetry.NewID()
		ctx = telemetry.WithTraceID(ctx, id)
	}
	ins := rw.Instruments
	sink := &stampSink{inner: rw.Audit, extra: rw.Events, ins: ins, id: id}
	if ins == nil {
		return rw.rewriteForest(ctx, forest, typ, from, mode, sink)
	}
	ctx = telemetry.WithRegistry(ctx, ins.Registry())
	ctx, span := telemetry.StartSpan(ctx, rewriteSpanName(mode))
	span.SetAttr("rewrite_id", id)
	span.SetAttr("k", strconv.Itoa(rw.K))
	start := time.Now()
	out, err := rw.rewriteForest(ctx, forest, typ, from, mode, sink)
	ins.observeRewrite(mode, time.Since(start), err, id)
	span.End(err)
	return out, err
}

// rewriteForest is the uninstrumented body of rewriteForestContext; sink is
// the (stamping) event sink the whole rewriting reports into.
func (rw *Rewriter) rewriteForest(ctx context.Context, forest []*doc.Node, typ *regex.Regex, from *xmlio.Rendering, mode Mode, sink EventSink) ([]*doc.Node, error) {
	ex := &executor{rw: rw, ctx: WithEventSink(ctx, sink), mode: mode, audit: rw.Audit,
		st: &execState{
			paramsDone: map[*doc.Node]bool{},
			permafrost: map[*doc.Node]bool{},
			sched:      newParScheduler(rw.Parallelism),
		}}
	if mode == Mixed {
		var pre []*doc.Node
		var err error
		if ex.st.sched != nil {
			pre, err = ex.preInvokeBatch(forest, 0)
		} else {
			pre, err = ex.preInvoke(forest, 0, nodePath{})
		}
		if err != nil {
			return nil, err
		}
		forest = pre
		ex.mode = Safe
	}
	// Refuse before the first call: Safe (and Mixed, past its speculative
	// pass) decides safety statically, and Possible refuses a hopeless
	// request with zero side effects — its later failures stem from unlucky
	// actual returns. Either way the check's proof travels on.
	checkMode := Safe
	if mode == Possible {
		checkMode = Possible
	}
	proof, err := rw.checkForest(forest, typ, checkMode, from)
	if err != nil {
		return nil, err
	}
	ex.st.proof = proof
	return ex.forest(forest, proof.top, nodePath{}, true)
}

// execState is the rewriting state shared by every branch of one execution,
// including all parallel branches: the parameter/permafrost memos, the call
// budget and the worker scheduler. A nil sched selects the sequential code
// paths throughout.
type execState struct {
	mu sync.Mutex
	// paramsDone marks function nodes whose parameters have been
	// materialized into input instances (or arrived conformant from an
	// invocation result).
	paramsDone map[*doc.Node]bool
	// permafrost marks functions that can never be invoked: undeclared,
	// non-invocable, or parameters beyond repair in lenient mode.
	permafrost map[*doc.Node]bool
	calls      int
	sched      *parScheduler
	// proof is the successful static check of the forest, installed before
	// the first word is rewritten (nil during Mixed mode's speculative
	// pass); it is read-only from then on.
	proof *staticCheck
}

// executor is one branch's view of a rewriting: the shared state plus the
// branch's context (carrying its event sink) and call-record sink. The
// top-level executor records into the Rewriter's audit; parallel branches
// record into per-slot buffers that runSlots flushes in document order.
type executor struct {
	rw *Rewriter
	// ctx governs the whole rewriting and carries the branch's event sink;
	// it is passed to every Invoker.Invoke.
	ctx   context.Context
	mode  Mode
	audit recorder
	st    *execState
}

func (ex *executor) paramsReady(n *doc.Node) bool {
	ex.st.mu.Lock()
	defer ex.st.mu.Unlock()
	return ex.st.paramsDone[n]
}

func (ex *executor) markParamsDone(n *doc.Node) {
	ex.st.mu.Lock()
	defer ex.st.mu.Unlock()
	ex.st.paramsDone[n] = true
}

func (ex *executor) isFrozen(n *doc.Node) bool {
	ex.st.mu.Lock()
	defer ex.st.mu.Unlock()
	return ex.st.permafrost[n]
}

func (ex *executor) freeze(n *doc.Node) {
	ex.st.mu.Lock()
	defer ex.st.mu.Unlock()
	ex.st.permafrost[n] = true
}

// reserveCall claims one unit of the invocation budget.
func (ex *executor) reserveCall() error {
	ex.st.mu.Lock()
	defer ex.st.mu.Unlock()
	if ex.st.calls >= ex.rw.MaxCalls {
		return fmt.Errorf("core: invocation budget of %d calls exhausted (recursive service?)", ex.rw.MaxCalls)
	}
	ex.st.calls++
	return nil
}

func (ex *executor) callCount() int {
	ex.st.mu.Lock()
	defer ex.st.mu.Unlock()
	return ex.st.calls
}

// forest runs the three phases on one forest against a word type and
// returns the rewritten top level. at is the path of the node whose
// children the forest is; proven says the static check covered the forest
// (see descend).
func (ex *executor) forest(forest []*doc.Node, typ *model, at nodePath, proven bool) ([]*doc.Node, error) {
	// Phase 1: parameters, deepest functions first.
	var shared *xmlio.Rendering
	if ex.st.proof != nil {
		shared = ex.st.proof.shared
	}
	var funcs []*doc.Node
	for _, tree := range forest {
		funcs = funcsBottomUp(tree, shared, funcs[:0])
		for _, f := range funcs {
			if err := ex.materializeParams(f, at); err != nil {
				return nil, err
			}
		}
	}
	// Phase 3 at this level: rewrite the word of root labels.
	out, fresh := forest, []bool(nil)
	if !proven || hasFunc(forest) {
		var err error
		if out, fresh, err = ex.rewriteWord(forest, typ, at); err != nil {
			return nil, err
		}
	}
	// Phase 2: recurse into element subtrees.
	if err := ex.descend(out, fresh, at, proven); err != nil {
		return nil, err
	}
	return out, nil
}

// funcsBottomUp appends to out the function nodes of n in
// doc.FuncsBottomUp order, without walking the subtrees shared shares:
// those of a verified version's rendering, which hold none.
func funcsBottomUp(n *doc.Node, shared *xmlio.Rendering, out []*doc.Node) []*doc.Node {
	if shared.Shares(n) {
		return out
	}
	for _, c := range n.Children {
		out = funcsBottomUp(c, shared, out)
	}
	if n.Kind == doc.Func {
		out = append(out, n)
	}
	return out
}

// hasFunc reports whether a word holds a function node.
func hasFunc(word []*doc.Node) bool {
	for _, n := range word {
		if n.Kind == doc.Func {
			return true
		}
	}
	return false
}

// descend rewrites the element subtrees of a rewritten word — independent
// of one another, so they fan out onto the scheduler when one is
// configured. fresh marks the word's nodes an invocation returned (nil:
// none). It skips what the static check proved: a call-free element
// subtree of a proven word, not returned by an invocation, had each of its
// words accepted by the check, and for a function-free word w the fork
// automaton A_w^k is w itself, so acceptance was membership in the
// content model. Rewriting would change nothing there, and the final
// verification would only repeat the check. Returned subtrees are never
// proven: returns need not have been validated.
func (ex *executor) descend(kids []*doc.Node, fresh []bool, at nodePath, proven bool) error {
	var slots []int
	for i, n := range kids {
		if n.Kind != doc.Element {
			continue
		}
		if proven && (fresh == nil || !fresh[i]) && !ex.st.proof.holdsCalls[n] {
			continue
		}
		slots = append(slots, i)
	}
	if len(slots) == 0 {
		return nil
	}
	up := at.box()
	return ex.runSlots(len(slots), func(child *executor, k int) error {
		i := slots[k]
		n := kids[i]
		return child.element(n, nodePath{up: up, label: n.Label, index: i}, proven && (fresh == nil || !fresh[i]))
	})
}

// materializeParams rewrites f's parameters into its input type, memoized.
// Failures freeze f in lenient mode and abort in strict mode. The parameter
// forest is proven when its static sub-check succeeded.
func (ex *executor) materializeParams(f *doc.Node, at nodePath) error {
	if ex.paramsReady(f) || ex.isFrozen(f) {
		return nil
	}
	c := ex.rw.Compiled
	fail := func(err error) error {
		if ex.rw.StrictParams {
			return err
		}
		ex.freeze(f)
		return nil
	}
	params := nodePath{up: at.box(), label: f.Label, index: paramStep}
	e := c.names[f.Label]
	if e == nil || e.fi == nil {
		return fail(&NotSafeError{Path: at.String(), Msg: fmt.Sprintf("function %q is not declared by either schema", f.Label)})
	}
	if e.fi.In == nil {
		kids, err := ex.collapseToData(f.Children, params)
		if err != nil {
			return fail(err)
		}
		f.Children = kids
		ex.markParamsDone(f)
		return nil
	}
	proven := ex.st.proof != nil && ex.st.proof.paramsOK[f]
	kids, err := ex.forest(f.Children, &e.in, params, proven)
	if err != nil {
		return fail(err)
	}
	f.Children = kids
	ex.markParamsDone(f)
	return nil
}

// collapseToData materializes a forest into pure text: data-returning
// invocable functions are called, anything else non-text is an error.
func (ex *executor) collapseToData(children []*doc.Node, at nodePath) ([]*doc.Node, error) {
	c := ex.rw.Compiled
	out := make([]*doc.Node, 0, len(children))
	for _, ch := range children {
		switch ch.Kind {
		case doc.Text:
			out = append(out, ch)
		case doc.Func:
			fi := c.funcOf(ch.Label)
			if fi == nil || !fi.Invocable || fi.Out != nil || ex.rw.K < 1 {
				return nil, &NotSafeError{Path: at.String(), Msg: fmt.Sprintf("cannot collapse %q to atomic data", ch.Label)}
			}
			if err := ex.materializeParams(ch, at); err != nil {
				return nil, err
			}
			if ex.isFrozen(ch) {
				return nil, &NotSafeError{Path: at.String(), Msg: fmt.Sprintf("parameters of %q cannot be fixed", ch.Label)}
			}
			res, err := ex.invoke(ch, 1)
			if err != nil {
				return nil, err
			}
			out = append(out, res...)
		default:
			return nil, &NotSafeError{Path: at.String(), Msg: fmt.Sprintf("element %q where atomic data is required", ch.Label)}
		}
	}
	return out, nil
}

// element rewrites one element node in place; at is its path. A proven
// element's function-free word was settled by the static check and is
// left as it is.
func (ex *executor) element(e *doc.Node, at nodePath, proven bool) error {
	ent := ex.rw.Compiled.names[e.Label]
	if ent == nil || !ent.declared {
		if ex.rw.ctx.Strict {
			return &NotSafeError{Path: at.String(), Msg: fmt.Sprintf("element %q is not declared by the target schema", e.Label)}
		}
		return nil
	}
	if ent.data {
		kids, err := ex.collapseToData(e.Children, at)
		if err != nil {
			return err
		}
		e.Children = kids
		return nil
	}
	for _, ch := range e.Children {
		if ch.Kind == doc.Text && strings.TrimSpace(ch.Value) != "" {
			return &NotSafeError{Path: at.String(), Msg: fmt.Sprintf("element %q has structured content but contains text", e.Label)}
		}
	}
	kids, fresh := e.Children, []bool(nil)
	if !proven || hasFunc(kids) {
		var err error
		if kids, fresh, err = ex.rewriteWord(e.Children, &ent.content, at); err != nil {
			return err
		}
		e.Children = kids
	}
	return ex.descend(kids, fresh, at, proven)
}

// item is one child slot during word rewriting.
type item struct {
	node    *doc.Node
	depth   int
	kept    bool // decided keep (tentative in possible mode)
	forced  bool // backtracking flipped this occurrence to "must call"
	pending bool // decided invoke, dispatch deferred to the round's batch
}

// rewriteWord performs the per-node decision loop: scan left to right, for
// each invocable function occurrence test whether keeping it preserves the
// verdict; keep if so, invoke otherwise. In possible mode a final mismatch
// backtracks over keeps made after the last call (left-to-right rewritings
// never revisit positions left of an invocation).
//
// Safe mode on the parallel engine pipelines within the word: verdicts are
// fixed by the same left-to-right scan, but the decided invocations dispatch
// as one concurrent batch per round (decideParallel). Possible mode always
// runs the sequential loop — backtracking revisits earlier decisions, which
// a concurrent batch could not honor.
//
// Besides the rewritten word it returns which of its nodes an invocation
// returned (nil when none did).
func (ex *executor) rewriteWord(children []*doc.Node, typ *model, at nodePath) ([]*doc.Node, []bool, error) {
	w := &wordRun{ex: ex, typ: typ.re}
	w.items = make([]*item, len(children))
	backing := make([]item, len(children)) // one allocation for the whole word
	for i, ch := range children {
		backing[i].node = ch
		w.items[i] = &backing[i]
	}
	if ex.st.sched != nil && ex.mode == Safe {
		if err := w.decideParallel(); err != nil {
			return nil, nil, err
		}
	} else if err := w.decideFrom(0); err != nil {
		return nil, nil, err
	}
	// Final verification, with possible-mode backtracking over keeps made
	// after the last invocation (left-to-right rewritings never revisit
	// positions left of a performed call).
	for {
		nodes := make([]*doc.Node, len(w.items))
		var fresh []bool
		for i, it := range w.items {
			nodes[i] = it.node
			if it.depth > 0 {
				if fresh == nil {
					fresh = make([]bool, len(w.items))
				}
				fresh[i] = true
			}
		}
		if ex.rw.Compiled.matchWord(ex.rw.ctx, typ, nodes) {
			return nodes, fresh, nil
		}
		if ex.mode != Possible || len(w.kept) == 0 {
			return nil, nil, &NotSafeError{
				Path: at.String(),
				Msg: fmt.Sprintf("rewriting finished on %v which does not match %s (mode %s, %d calls made)",
					forestLabels(nodes), typ.re.String(ex.rw.Compiled.Table), ex.mode, ex.callCount()),
			}
		}
		// Flip the most recent keep to a forced call and resume there.
		ex.rw.Instruments.countBacktrack()
		flip := w.kept[len(w.kept)-1]
		w.kept = w.kept[:len(w.kept)-1]
		flip.kept = false
		flip.forced = true
		pos := 0
		for i, it := range w.items {
			if it == flip {
				pos = i
				break
			}
		}
		if err := w.decideFrom(pos); err != nil {
			return nil, nil, err
		}
	}
}

// wordRun carries the mutable state of one word-rewriting pass.
type wordRun struct {
	ex    *executor
	typ   *regex.Regex
	items []*item
	kept  []*item // keeps decided since the last invocation
	// tokScratch backs tokens(): each verdict consumes its slice before the
	// next decision rebuilds it, and a word run never queries concurrently.
	tokScratch []Token
}

// decideFrom runs the left-to-right decision loop starting at index j: for
// every invocable occurrence, tentatively keep it and test the verdict;
// invoke it when keeping breaks the verdict (or when backtracking forced it).
func (w *wordRun) decideFrom(j int) error {
	ex := w.ex
	for j < len(w.items) {
		it := w.items[j]
		if !ex.callable(it) {
			j++
			continue
		}
		if !it.forced {
			it.kept = true
			ok, err := ex.rw.wordOK(w.tokens(), w.typ, ex.mode)
			if err != nil {
				return err
			}
			if ok {
				w.kept = append(w.kept, it)
				ex.rw.Instruments.countKeep()
				j++
				continue
			}
			it.kept = false
		}
		ex.rw.Instruments.countInvoke()
		res, err := ex.invoke(it.node, it.depth+1)
		if err != nil {
			if ex.degradable(err) {
				// Possible mode treats an exhausted policy like an unlucky
				// answer: freeze the occurrence and let the final
				// verification backtrack over the remaining keeps instead of
				// aborting the whole rewrite.
				ex.freeze(it.node)
				it.forced = false
				Emit(ex.ctx, InvokeEvent{Func: it.node.Label, Endpoint: EndpointOf(it.node),
					Kind: EventDegraded, Err: err.Error()})
				j++
				continue
			}
			return err
		}
		spliced := make([]*item, 0, len(w.items)-1+len(res))
		spliced = append(spliced, w.items[:j]...)
		for _, n := range res {
			spliced = append(spliced, &item{node: n, depth: it.depth + 1})
			if n.Kind == doc.Func {
				// Output instances conform: parameters arrive materialized.
				ex.markParamsDone(n)
			}
		}
		spliced = append(spliced, w.items[j+1:]...)
		w.items = spliced
		w.kept = w.kept[:0] // nothing left of a call may flip
		// Do not advance: returned occurrences are processed in order.
	}
	return nil
}

// callable reports whether the item is a function occurrence the executor
// may still invoke.
func (ex *executor) callable(it *item) bool {
	if it.node.Kind != doc.Func || it.kept || it.depth >= ex.rw.K {
		return false
	}
	if ex.isFrozen(it.node) {
		return false
	}
	fi := ex.rw.Compiled.funcOf(it.node.Label)
	if fi == nil || !fi.Invocable {
		return false
	}
	return ex.paramsReady(it.node)
}

// tokens projects items to analysis tokens; kept and uncallable functions
// are frozen.
func (w *wordRun) tokens() []Token {
	ex := w.ex
	c := ex.rw.Compiled
	out := w.tokScratch[:0]
	for _, it := range w.items {
		if it.node.Kind == doc.Text {
			continue
		}
		tok := Token{Sym: c.symbol(it.node.Label), Node: it.node, Depth: it.depth}
		if it.node.Kind == doc.Func && (it.kept || !ex.callable(it)) {
			tok.Frozen = true
		}
		out = append(out, tok)
	}
	w.tokScratch = out
	return out
}

// degradable reports whether an invocation failure should be degraded to a
// frozen occurrence plus backtracking (Possible mode, transient failure, and
// the rewriting itself not cancelled) rather than aborting the rewrite.
func (ex *executor) degradable(err error) bool {
	return ex.mode == Possible && ex.ctx.Err() == nil && IsTransientCall(err)
}

// invoke performs one service call with validation and auditing.
func (ex *executor) invoke(call *doc.Node, depth int) ([]*doc.Node, error) {
	if err := ex.ctx.Err(); err != nil {
		return nil, err
	}
	if err := ex.reserveCall(); err != nil {
		return nil, err
	}
	ins := ex.rw.Instruments
	ictx := ex.ctx
	var span *telemetry.Span
	var start time.Time
	var epi *endpointInstruments
	if ins != nil {
		epi = ins.endpoint(EndpointOf(call))
		ictx, span = telemetry.StartSpan(ex.ctx, epi.spanName)
		span.SetAttr("func", call.Label)
		start = time.Now()
	}
	res, err := ex.rw.Invoker.Invoke(ictx, call)
	if epi != nil {
		epi.seconds.ObserveExemplar(time.Since(start).Seconds(), span.TraceID())
		if err != nil {
			epi.errors.Inc()
		}
		span.End(err)
	}
	if err != nil {
		return nil, fmt.Errorf("core: invoking %q: %w", call.Label, err)
	}
	if ex.rw.ValidateReturns {
		if err := ex.rw.ctx.IsOutputInstance(call.Label, res); err != nil {
			fixed, ok := ex.applyConverters(call, res)
			if !ok {
				return nil, fmt.Errorf("core: %q returned a non-conforming result: %w", call.Label, err)
			}
			res = fixed
		}
	}
	var cost float64
	if fi := ex.rw.Compiled.funcOf(call.Label); fi != nil {
		cost = fi.Cost
	}
	ex.audit.Record(CallRecord{Func: call.Label, Depth: depth, Cost: cost,
		ResultNodes: len(res), Rewrite: telemetry.TraceIDFrom(ex.ctx)})
	return res, nil
}

// preInvoke is the Mixed mode's speculative pass: invoke every outermost
// function the PreInvoke predicate admits (default: side-effect-free and
// zero cost), splice the actual results, and recurse into them while depth
// allows. The subsequent safe analysis then works on the concrete data.
// This is the sequential pass; the parallel engine batches the same
// admissible calls per round instead (preInvokeBatch in parallel.go).
//
// It returns forest itself when nothing in it changed, and writes an
// element's children only when they did: a function-free subtree, which
// may be shared with a stored document, is walked but never written.
func (ex *executor) preInvoke(forest []*doc.Node, depth int, at nodePath) ([]*doc.Node, error) {
	pred := ex.rw.PreInvoke
	if pred == nil {
		pred = func(fi *FuncInfo) bool { return !fi.SideEffects && fi.Cost == 0 }
	}
	c := ex.rw.Compiled
	var out []*doc.Node // nil until the forest differs from its input
	keep := func(n *doc.Node) {
		if out != nil {
			out = append(out, n)
		}
	}
	var up *nodePath
	for i, n := range forest {
		if n.Kind == doc.Element {
			if up == nil {
				up = at.box()
			}
			kids, err := ex.preInvoke(n.Children, depth, nodePath{up: up, label: n.Label, index: plainStep})
			if err != nil {
				return nil, err
			}
			if !sameForest(kids, n.Children) {
				n.Children = kids
			}
			keep(n)
			continue
		}
		if n.Kind != doc.Func || depth >= ex.rw.K {
			keep(n)
			continue
		}
		fi := c.funcOf(n.Label)
		if fi == nil || !fi.Invocable || !pred(fi) {
			keep(n)
			continue
		}
		for _, f := range doc.FuncsBottomUp(n) {
			if err := ex.materializeParams(f, at); err != nil {
				return nil, err
			}
		}
		if ex.isFrozen(n) {
			keep(n)
			continue
		}
		res, err := ex.invoke(n, depth+1)
		if err != nil {
			if ex.ctx.Err() == nil && IsTransientCall(err) {
				// The speculative pass is best-effort: a flaky endpoint
				// leaves the call intensional and the safe analysis decides
				// whether the document still rewrites without it.
				ex.freeze(n)
				Emit(ex.ctx, InvokeEvent{Func: n.Label, Endpoint: EndpointOf(n),
					Kind: EventDegraded, Err: err.Error()})
				keep(n)
				continue
			}
			return nil, err
		}
		for _, r := range res {
			if r.Kind == doc.Func {
				ex.markParamsDone(r)
			}
		}
		deeper, err := ex.preInvoke(res, depth+1, at)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = make([]*doc.Node, i, len(forest)-1+len(deeper))
			copy(out, forest[:i])
		}
		out = append(out, deeper...)
	}
	if out == nil {
		return forest, nil
	}
	return out, nil
}

// sameForest reports whether a and b are the same slice of nodes.
func sameForest(a, b []*doc.Node) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
