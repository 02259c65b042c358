package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"axml/internal/automata"
	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/schema"
	"axml/internal/telemetry"
	"axml/internal/xmlio"
)

// Mode selects the rewriting discipline.
type Mode uint8

const (
	// Safe guarantees success before invoking anything (Section 4).
	Safe Mode = iota
	// Possible proceeds when success is merely reachable, backtracking on
	// unlucky returns without un-invoking anything (Section 5).
	Possible
	// Mixed pre-invokes cheap side-effect-free calls to shrink the search,
	// then requires safety for the rest (Section 5, "A Mixed Approach").
	Mixed
)

func (m Mode) String() string {
	switch m {
	case Safe:
		return "safe"
	case Possible:
		return "possible"
	case Mixed:
		return "mixed"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Rewriter drives tree-level rewriting of intensional documents into an
// exchange schema: the Schema Enforcement module's core (Section 7).
type Rewriter struct {
	Compiled *Compiled
	// K bounds rewriting depth (Definition 7); typical values are 1–3.
	K int
	// Invoker performs service calls; nil Rewriters can only Check.
	Invoker Invoker
	// ValidateReturns verifies every returned forest is an output instance
	// of the invoked function before splicing it (the Schema Enforcement
	// module's receive-side check). Default true (RewriterConfig.SkipValidation).
	ValidateReturns bool
	// MaxCalls caps total invocations per rewriting as a runaway valve
	// (recursive services). Default DefaultMaxCalls.
	MaxCalls int
	// Converters optionally restructure non-conforming service results
	// before the exchange is failed (the paper's "automatic converters"
	// extension); tried in order, first conforming restructuring wins.
	Converters Converters
	// Audit, if set, records every invocation.
	Audit *Audit
	// Events, if set, observes every invocation-policy event (retries,
	// timeouts, breaker transitions…) after rewrite-ID stamping, in
	// addition to Audit and the Instruments counters — the peer hangs
	// its structured event log here.
	Events EventSink
	// Parallelism is the size of the executor's slot pool: the maximum
	// number of concurrently executing rewriting branches (sibling
	// subtrees, Mixed mode's pre-invocations, the calls of a Safe round).
	// It selects no code path: values <= 1 run every slot inline, in
	// order, and higher values give the same trees, audit order, events
	// and errors.
	Parallelism int
	// Instruments, if set, reports the rewriting pipeline into a telemetry
	// registry (see instruments.go): per-mode latency, keep/invoke/
	// backtrack decisions, per-endpoint call latency, bridged policy events
	// and tracing spans. Nil (the default) is a zero-overhead no-op.
	Instruments *Instruments

	ctx *schema.Context
	// reference decides Safe words one call at a time (decideFrom) with no
	// plan, the sequential reference the round loop is tested against.
	// Only tests set it.
	reference bool
}

// DefaultDepth is the rewriting depth bound selected when RewriterConfig
// leaves Depth zero.
const DefaultDepth = 2

// DefaultMaxCalls is the per-rewriting invocation budget selected when
// RewriterConfig leaves MaxCalls zero.
const DefaultMaxCalls = 10000

// RewriterConfig is the options struct behind NewRewriterWithConfig and
// NewRewriterForConfig. The zero value is usable: depth DefaultDepth,
// validated returns, a fresh Audit.
type RewriterConfig struct {
	// Depth bounds rewriting depth (Definition 7); 0 selects DefaultDepth.
	// Depth 0 (no call may be invoked) is set through Rewriter.K after
	// construction.
	Depth int
	// Invoker performs service calls; nil configures a check-only rewriter.
	Invoker Invoker
	// Policies wrap Invoker with execution middleware (timeouts, retries,
	// circuit breaking — see internal/invoke). Policies[0] is outermost.
	Policies []InvokePolicy
	// SkipValidation disables the receive-side output-instance check
	// (Rewriter.ValidateReturns, inverted so the zero value validates).
	SkipValidation bool
	// MaxCalls caps invocations per rewriting; 0 selects DefaultMaxCalls.
	MaxCalls int
	// Converters restructure non-conforming service results.
	Converters Converters
	// Audit receives the invocation trail; nil allocates a fresh one, so a
	// configured rewriter always audits.
	Audit *Audit
	// Events optionally observes stamped policy events (Rewriter.Events).
	Events EventSink
	// Parallelism is the size of the executor's slot pool
	// (Rewriter.Parallelism); 0 selects DefaultParallelism, one slot.
	Parallelism int
	// Telemetry, if set, instruments the rewriter (and the shared Compiled's
	// word-level analyses) against this registry; see internal/telemetry.
	// Nil leaves every instrumentation path a no-op.
	Telemetry *telemetry.Registry
}

// NewRewriterWithConfig builds a rewriter for the (sender, target) schema
// pair from an options struct, compiling the pair analysis from scratch.
// Callers serving many messages over the same pair should compile once (or
// use a CompiledCache) and build per-message rewriters with
// NewRewriterForConfig.
func NewRewriterWithConfig(sender, target *schema.Schema, cfg RewriterConfig) *Rewriter {
	return NewRewriterForConfig(Compile(sender, target), cfg)
}

// NewRewriterForConfig builds a rewriter over an existing compiled analysis
// from an options struct. The rewriter itself is cheap per-message state; the
// Compiled may be shared by any number of concurrent rewriters. Stateful
// policies (circuit breakers, concurrency limits) are instantiated here: to
// share breaker state across messages, wrap one Invoker with ApplyPolicies
// once and pass the result instead.
func NewRewriterForConfig(c *Compiled, cfg RewriterConfig) *Rewriter {
	depth := cfg.Depth
	if depth == 0 {
		depth = DefaultDepth
	}
	maxCalls := cfg.MaxCalls
	if maxCalls == 0 {
		maxCalls = DefaultMaxCalls
	}
	audit := cfg.Audit
	if audit == nil {
		audit = &Audit{}
	}
	parallelism := cfg.Parallelism
	if parallelism == 0 {
		parallelism = DefaultParallelism
	}
	inv := cfg.Invoker
	if inv != nil {
		inv = ApplyPolicies(inv, cfg.Policies)
	}
	var ins *Instruments
	if cfg.Telemetry != nil {
		ins = NewInstruments(cfg.Telemetry)
		c.SetInstruments(ins)
	}
	return &Rewriter{
		Compiled:        c,
		K:               depth,
		Invoker:         inv,
		ValidateReturns: !cfg.SkipValidation,
		MaxCalls:        maxCalls,
		Converters:      cfg.Converters,
		Audit:           audit,
		Events:          cfg.Events,
		Parallelism:     parallelism,
		Instruments:     ins,
		ctx:             schema.NewContext(c.Target, c.Sender),
	}
}

// Context exposes the validation context (target schema with sender-side
// signatures).
func (rw *Rewriter) Context() *schema.Context { return rw.ctx }

// wordOK asks the word-level verdict through the Compiled's word-verdict
// memo: the verdict depends only on the token word, target, k and mode, so
// repeated words across messages skip the automata constructions entirely.
// key is the caller's scratch for the memo key, reused across its words.
func (rw *Rewriter) wordOK(key *[]byte, tokens []Token, target *regex.Regex, mode Mode) (bool, error) {
	return rw.Compiled.wordVerdict(key, mode, tokens, target, rw.K)
}

// ---------------------------------------------------------------------------
// Static checking (no invocations): can the forest be rewritten at all?

// CheckDocument reports whether the document can be rewritten into the
// target schema under the given mode, without invoking anything.
func (rw *Rewriter) CheckDocument(root *doc.Node, mode Mode) error {
	typ, err := rw.documentType(root)
	if err != nil {
		return err
	}
	_, err = rw.checkForest([]*doc.Node{root}, typ, mode, nil)
	return err
}

// documentType returns the expected word type of the document root: the
// schema's distinguished root label when declared, else the root's own
// label. The declared root's type is frozen on its entry; any other is
// built per call.
func (rw *Rewriter) documentType(root *doc.Node) (*model, error) {
	c := rw.Compiled
	label := c.Target.Root
	if label == "" {
		if root.Kind != doc.Element {
			return nil, &NotSafeError{Msg: "document root is a function node and the target schema declares no root label"}
		}
		label = root.Label
	}
	if c.Target.Labels[label] == nil {
		return nil, &NotSafeError{Msg: fmt.Sprintf("root label %q is not declared by the target schema", label)}
	}
	e := c.names[label]
	if e.root != nil {
		return e.root, nil
	}
	return adhoc(regex.Sym(e.sym)), nil
}

// CheckForest reports whether the forest can be rewritten into the word type
// typ (with every subtree an instance of the target schema), statically.
func (rw *Rewriter) CheckForest(forest []*doc.Node, typ *regex.Regex, mode Mode) error {
	_, err := rw.checkForest(forest, adhoc(typ), mode, nil)
	return err
}

// checkForest is CheckForest returning, on success, what the check proved;
// the executors consult it to skip the words the proof already settled.
//
// from, when not nil, is the rendering of the stored version the forest is
// a spine copy of (doc.Node.SpineCopyAlong), so every element from shares
// is an immutable stored subtree without a function node. Once a check of
// that version has passed under this Compiled and context strictness, its
// later checks skip those subtrees: the check of a call-free subtree reads
// nothing else, and it passed. A check that passes records the version; a
// failed one records nothing.
func (rw *Rewriter) checkForest(forest []*doc.Node, typ *model, mode Mode, from *xmlio.Rendering) (*staticCheck, error) {
	sc := &staticCheck{rw: rw, mode: mode, paramsOK: map[*doc.Node]bool{}, holdsCalls: map[*doc.Node]int{}, top: typ, list: mode == Safe}
	sc.words = sc.wordsBuf[:0]
	c, strict := rw.Compiled, rw.ctx.Strict
	if from != nil && c.isVerified(from.ID(), strict) {
		sc.shared = from
		c.instruments().countVerifiedCheck()
	}
	if err := sc.forest(forest, sc.top, nil); err != nil {
		return nil, err
	}
	if from != nil && sc.shared == nil {
		c.markVerified(from.ID(), strict)
	}
	return sc, nil
}

// staticCheck decides, without invoking anything, whether a forest
// rewrites into a word type. A successful check is also a proof the
// executors share: every word it accepted without a function node is a
// word of its content model (for such a word w the fork automaton A_w^k is
// w itself), so the executor need not decide or verify it again.
type staticCheck struct {
	rw   *Rewriter
	mode Mode
	// paramsOK records, per function node, whether its parameter forest
	// passed its sub-check — and was therefore checked in full.
	paramsOK map[*doc.Node]bool
	// holdsCalls marks the elements with a function node somewhere below
	// them; every other element the check reached is call-free. An element
	// whose own word the check listed maps to 1 + the word's index in
	// words, any other to 0.
	holdsCalls map[*doc.Node]int
	// words lists, when list is set (the top-level check of a Safe
	// rewriting), the words holding a function node that the check
	// decided outside parameter forests, in the order the executor
	// rewrites them: the words its plan scans (executor.plan), which so
	// walks no tree. wordsBuf backs the first few.
	words    []checkedWord
	wordsBuf [4]checkedWord
	list     bool
	// scratch backs tokens() across the whole traversal: each word check
	// fully consumes its token slice before the next one is built (the word
	// engines never retain it), so one allocation serves every forest.
	scratch []Token
	// key backs the word-verdict memo keys of the words the check asks
	// about, likewise.
	key []byte
	// ents is a stack of the entries of the words being checked, one run
	// per word from the root to the current one: word() pushes the entries
	// of a word's nodes, which each node's own check receives, and the
	// word's check pops them when done. So every label is resolved once.
	ents []*entry
	// top is the word type of the checked forest.
	top *model
	// shared, when set, is the rendering of a version an earlier check
	// verified under this Compiled: the check neither descends into nor
	// walks the elements it shares (see checkForest).
	shared *xmlio.Rendering
}

// checkedWord is a word holding a function node that the check decided:
// its nodes and word type, and the executor's run over it once the plan
// has scanned it (run.ex is set).
type checkedWord struct {
	word []*doc.Node
	typ  *model
	run  wordRun
}

// holds reports whether the element e has a function node below it.
func (sc *staticCheck) holds(e *doc.Node) bool {
	_, ok := sc.holdsCalls[e]
	return ok
}

// planned returns the plan's run over the word of the element e, or nil;
// sc may be nil (no check has run yet).
func (sc *staticCheck) planned(e *doc.Node) *wordRun {
	if sc == nil {
		return nil
	}
	if i := sc.holdsCalls[e]; i > 0 && sc.words[i-1].run.ex != nil {
		return &sc.words[i-1].run
	}
	return nil
}

// forest checks one forest against a word type: parameters bottom-up, then
// the root-label word, then each element subtree top-down. at is the path
// of the node whose children the forest is (nil at the top).
func (sc *staticCheck) forest(forest []*doc.Node, typ *model, at *nodePath) error {
	for _, tree := range forest {
		funcs, _ := sc.funcsBottomUp(tree, nil)
		for _, f := range funcs {
			if err := sc.funcParams(f, at); err != nil {
				return err
			}
		}
	}
	base := len(sc.ents)
	defer func() { sc.ents = sc.ents[:base] }()
	ok, err := sc.word(forest, typ)
	if err != nil {
		return err
	}
	if !ok {
		labels, where := wordText(sc.rw.ctx, typ.re, forest)
		return &NotSafeError{
			Path: pathAt(at),
			Msg: fmt.Sprintf("word %s does not %s-rewrite into %s within depth %d%s",
				labels, sc.mode, typ.re.String(sc.rw.Compiled.Table), sc.rw.K, where),
		}
	}
	return sc.elements(forest, base, at)
}

// elements checks the element subtrees of a word whose entries word()
// pushed at base; at is the path of the node whose children they are.
func (sc *staticCheck) elements(word []*doc.Node, base int, at *nodePath) error {
	j := base
	for i, n := range word {
		switch n.Kind {
		case doc.Text:
			continue
		case doc.Element:
			if sc.shared.Shares(n) {
				break // verified with its version
			}
			if err := sc.element(n, sc.ents[j], nodePath{up: at, label: n.Label, index: i}); err != nil {
				return err
			}
		}
		j++
	}
	return nil
}

// funcsBottomUp is doc.FuncsBottomUp that also marks, in holdsCalls, every
// element with a function node below it. It reports whether n's subtree
// holds a function node. It does not walk the subtrees of a verified
// version's rendering, which hold none.
func (sc *staticCheck) funcsBottomUp(n *doc.Node, out []*doc.Node) ([]*doc.Node, bool) {
	if sc.shared.Shares(n) {
		return out, false
	}
	holds := false
	for _, c := range n.Children {
		var h bool
		out, h = sc.funcsBottomUp(c, out)
		holds = holds || h
	}
	switch n.Kind {
	case doc.Func:
		return append(out, n), true
	case doc.Element:
		if holds {
			sc.holdsCalls[n] = 0
		}
	}
	return out, holds
}

// funcParams decides whether f's parameters can be rewritten into its input
// type, and records in paramsOK that they can; a function whose parameters
// cannot be fixed fails the check, as in the paper. Inner functions were
// decided first (bottom-up order).
func (sc *staticCheck) funcParams(f *doc.Node, at *nodePath) error {
	if sc.paramsOK[f] {
		return nil
	}
	e := sc.rw.Compiled.names[f.Label]
	switch {
	case e == nil || e.fi == nil:
		return &NotSafeError{Path: pathAt(at), Msg: fmt.Sprintf("function %q is not declared by either schema", f.Label)}
	case e.fi.In == nil:
		if !sc.dataChildrenOK(f.Children) {
			return &NotSafeError{Path: pathAt(at), Msg: fmt.Sprintf("parameters of %q cannot become atomic data", f.Label)}
		}
	default:
		sub := &staticCheck{rw: sc.rw, mode: sc.mode, paramsOK: sc.paramsOK, holdsCalls: sc.holdsCalls}
		params := nodePath{up: at, label: f.Label, index: paramStep}
		if err := sub.forest(f.Children, &e.in, &params); err != nil {
			return err
		}
	}
	sc.paramsOK[f] = true
	return nil
}

// pathAt renders an optional path.
func pathAt(at *nodePath) string {
	if at == nil {
		return ""
	}
	return at.String()
}

// dataChildrenOK: a forest collapses to atomic data iff every member is a
// text node or an invocable function returning atomic data whose own
// parameters are fine.
func (sc *staticCheck) dataChildrenOK(children []*doc.Node) bool {
	c := sc.rw.Compiled
	for _, ch := range children {
		switch ch.Kind {
		case doc.Text:
			continue
		case doc.Func:
			fi := c.funcOf(ch.Label)
			if fi == nil || !fi.Invocable || fi.Out != nil || sc.rw.K < 1 {
				return false
			}
			// Decided on demand when called outside the bottom-up sweep.
			if sc.funcParams(ch, nil) != nil {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// element checks one element subtree top-down; ent is the entry of its
// label (nil: undeclared) and at its path.
func (sc *staticCheck) element(e *doc.Node, ent *entry, at nodePath) error {
	c := sc.rw.Compiled
	if ent == nil || !ent.declared {
		if sc.rw.ctx.Strict {
			return &NotSafeError{Path: at.String(), Msg: fmt.Sprintf("element %q is not declared by the target schema", e.Label)}
		}
		return nil // wildcard territory: unconstrained
	}
	if ent.data {
		if !sc.dataChildrenOK(e.Children) {
			return &NotSafeError{Path: at.String(), Msg: fmt.Sprintf("data element %q contains children that cannot become atomic data", e.Label)}
		}
		return nil
	}
	// Non-text structural check mirrors validation: stray text is fatal.
	for _, ch := range e.Children {
		if ch.Kind == doc.Text && strings.TrimSpace(ch.Value) != "" {
			return &NotSafeError{Path: at.String(), Msg: fmt.Sprintf("element %q has structured content but contains text", e.Label)}
		}
	}
	base, listed := len(sc.ents), len(sc.words)
	defer func() { sc.ents = sc.ents[:base] }()
	ok, err := sc.word(e.Children, &ent.content)
	if err != nil {
		return err
	}
	if len(sc.words) > listed {
		sc.holdsCalls[e] = len(sc.words)
	}
	if !ok {
		labels, where := wordText(sc.rw.ctx, ent.content.re, e.Children)
		return &NotSafeError{
			Path: at.String(),
			Msg: fmt.Sprintf("children %s do not %s-rewrite into %s within depth %d%s",
				labels, sc.mode, ent.content.re.String(c.Table), sc.rw.K, where),
		}
	}
	return sc.elements(e.Children, base, &at)
}

// word decides one word of the check against typ, pushing the entries of
// its nodes onto ents. A word naming no function has no fork: its
// automaton A_w^k is the word itself, so in every mode its
// verdict is membership in the content model. Such a word takes one step of
// the model's DFA per node, or is matched by schema.Context.MatchWord when
// the model has no DFA, and builds no word-verdict memo key; a word with a
// function goes through the memo.
func (sc *staticCheck) word(forest []*doc.Node, typ *model) (bool, error) {
	c := sc.rw.Compiled
	base := len(sc.ents)
	sc.ents = slices.Grow(sc.ents, len(forest))
	calls := false
	for _, n := range forest {
		if n.Kind != doc.Text {
			e := c.names[n.Label]
			sc.ents = append(sc.ents, e)
			calls = calls || e != nil && e.fi != nil
		}
	}
	if calls {
		ok, err := sc.rw.wordOK(&sc.key, sc.tokens(forest, base), typ.re, sc.mode)
		if ok && sc.list {
			sc.words = append(sc.words, checkedWord{word: forest, typ: typ})
		}
		return ok, err
	}
	c.instruments().observeWordVerdict(sc.mode)
	d := c.dfaOf(typ)
	if d == nil {
		return sc.rw.ctx.MatchWord(typ.re, forest), nil
	}
	// A symbol the model does not mention, declared or not, takes the DFA's
	// other column, so the steps decide membership for every word.
	s, j := d.Start, base
	for _, n := range forest {
		if n.Kind == doc.Text {
			continue
		}
		if s = d.Step(s, c.symOf(sc.ents[j], n.Label)); s == automata.NoState {
			return false, nil
		}
		j++
	}
	return d.Accept[s], nil
}

// tokens builds the word tokens of a forest whose entries word() pushed at
// base. No token is frozen: the check got this far only if every function
// had its parameters proven, and the fork automaton gives a non-invocable
// function no call option.
func (sc *staticCheck) tokens(forest []*doc.Node, base int) []Token {
	c := sc.rw.Compiled
	out := slices.Grow(sc.scratch[:0], len(forest))
	j := base
	for _, n := range forest {
		if n.Kind == doc.Text {
			continue
		}
		out = append(out, Token{Sym: c.symOf(sc.ents[j], n.Label), Node: n})
		j++
	}
	sc.scratch = out
	return out
}

// nodePath names a node in error messages: the chain of steps from the top
// of the rewritten forest down to it. A step is carried as (parent, label,
// index) rather than as a rendered segment, so the engines build no path
// for the many nodes that never fail; the string is rendered only when an
// error is built. The zero value is the forest itself and renders as "".
type nodePath struct {
	up    *nodePath
	label string
	// index is the node's position among its parent's children, rendered
	// "label[index]"; plainStep and paramStep render "label" and "@label".
	index int
}

const (
	plainStep = -1 // an element step without position (mixed-mode pre-invocation)
	paramStep = -2 // the parameter forest of the function labelled label
)

// box returns p as a parent for its children's paths. The forest boxes to
// nil; any other step costs one allocation, which callers make once per
// node they descend below.
func (p nodePath) box() *nodePath {
	if p.label == "" {
		return nil
	}
	return &p
}

// String renders the path as /seg/seg/... It measures the chain, then
// fills one buffer from the end, so no step pointer is stored anywhere: a
// path of stack-allocated steps stays on the stack.
func (p nodePath) String() string {
	if p.label == "" {
		return ""
	}
	var digits [20]byte
	n := 0
	for q := &p; q != nil; q = q.up {
		n += 1 + len(q.label)
		switch {
		case q.index == paramStep:
			n++
		case q.index >= 0:
			n += 2 + len(strconv.AppendInt(digits[:0], int64(q.index), 10))
		}
	}
	buf := make([]byte, n)
	for q := &p; q != nil; q = q.up {
		if q.index >= 0 {
			d := strconv.AppendInt(digits[:0], int64(q.index), 10)
			n--
			buf[n] = ']'
			n -= len(d)
			copy(buf[n:], d)
			n--
			buf[n] = '['
		}
		n -= len(q.label)
		copy(buf[n:], q.label)
		if q.index == paramStep {
			n--
			buf[n] = '@'
		}
		n--
		buf[n] = '/'
	}
	return string(buf)
}

// maxListedLabels caps the labels a refusal lists, so that its text, the
// whole body of a 422, does not grow with the width of the refused element.
const maxListedLabels = 8

// wordText renders a refused word for a NotSafeError in bounded text. A
// word of at most maxListedLabels labels is listed whole, "[a b c]", and
// where is empty. A longer one is listed by its first maxListedLabels
// labels, "…" and its length, and where says, after a colon, where it
// leaves the content model typ, read as ctx.MatchPrefix reads it: at the
// first child the model stops matching, or at its end.
func wordText(ctx *schema.Context, typ *regex.Regex, word []*doc.Node) (labels, where string) {
	var b strings.Builder
	b.WriteByte('[')
	n := 0
	for _, node := range word {
		if node.Kind == doc.Text {
			continue
		}
		if n < maxListedLabels {
			if n > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(node.Label)
		}
		n++
	}
	if n <= maxListedLabels {
		b.WriteByte(']')
		return b.String(), ""
	}
	b.WriteString(" …] (length ")
	b.WriteString(strconv.Itoa(n))
	b.WriteByte(')')
	i, match := ctx.MatchPrefix(typ, word)
	switch {
	case i < len(word):
		where = fmt.Sprintf(": the model stops matching at child %d <%s>", i, word[i].Label)
	case !match:
		where = ": the word ends before the model does"
	}
	return b.String(), where
}
