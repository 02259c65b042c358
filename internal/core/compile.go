// Package core implements the rewriting algorithms of Milo et al.,
// "Exchanging Intensional XML Data" (SIGMOD 2003): k-depth left-to-right
// *safe* rewriting (Section 4, Figure 3), *possible* rewriting (Section 5,
// Figure 9), the *mixed* strategy, the lazy pruned variant of Section 7
// (Figure 12), and schema-level compatibility checking (Section 6) — plus
// the tree-level execution engine that drives real service invocations
// through an Invoker.
//
// The flow mirrors the paper. Given a document t, a sender schema s0 (the
// WSDL descriptions of every function appearing in t) and an exchange schema
// s, a rewriting:
//
//  1. checks, bottom-up, that the parameters of every function node can be
//     rewritten into the function's input type;
//  2. traverses the tree top-down; and
//  3. for every node, rewrites the word of its children labels into the
//     node's content model by deciding, left to right, which function
//     occurrences to invoke.
//
// Step 3 is the automata-theoretic heart: the fork automaton A_w^k describes
// every word reachable by a k-depth rewriting of w; safety holds iff the
// rewriter has a strategy avoiding the complement Ā of the target content
// model no matter which output instances the invoked services return.
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"axml/internal/automata"
	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/schema"
)

// Compiled bundles everything the word-level algorithms need about a
// (sender schema, exchange schema) pair: the shared symbol table, per-symbol
// function information, the effective alphabet, and target content models
// with function patterns expanded into alternations of the declared
// functions that match them.
//
// Compile also freezes one entry per name either schema declares (labels,
// functions and patterns): the name's symbol and FuncInfo, whether the
// target declares it and whether as data, its pattern-expanded content
// model and, for a function, its expanded input type. Each of those models
// that is one-unambiguous after expansion gets a DFA built straight from
// its Glushkov positions (automata.GlushkovDFA) on the model's first use,
// not by Compile: a request reaches few of the models a pair declares. All
// the DFAs of one Compiled share a budget of dfaCellBudget cells. A model
// that is ambiguous, which a compact-text schema or a pattern expansion can
// produce, or whose DFA would overrun the budget, has none, and its words
// step the shared derivative table instead, which decides the same words.
// The static check and the executor resolve node labels through these
// entries, so a call-free word costs one DFA step per child and takes no
// lock. Names neither schema declares still resolve through Table.Intern.
//
// A Compiled is safe for concurrent use once Compile returns. funcs,
// alphabet and the entries are frozen: they are keyed by declared names
// and declared models, never by anything a request builds, and only read
// afterwards. A model's DFA is written once, under the model's sync.Once,
// before any reader sees it, so there are at most as many DFAs as declared
// models. The pattern-expansion memo is lock-guarded, the lazy engine's
// derivative table is itself concurrency-safe, and the word-verdict memo
// (wordcache.go) is bounded and lock-guarded. Peers rely on this to serve
// parallel requests from one cached analysis.
type Compiled struct {
	Table  *regex.Table
	Sender *schema.Schema
	Target *schema.Schema

	funcs    map[regex.Symbol]*FuncInfo
	alphabet []regex.Symbol
	// names holds the frozen entry of every declared name; see entry.
	names map[string]*entry
	// dfaMu serializes the first uses of the models' DFAs (dfaOf). It
	// guards dfaCells, the cells of the DFAs built so far, and dfas, their
	// number.
	dfaMu    sync.Mutex
	dfaCells int
	dfas     int

	expandedMu sync.RWMutex
	expanded   map[string]*regex.Regex // memo: expandPatterns by regex key

	// deriver is shared by every lazy analysis over this pair, so derivative
	// tables of the target content models are computed once.
	deriver *regex.Deriver
	// words memoizes word-level verdicts; see wordcache.go.
	words atomic.Pointer[wordCacheBox]
	// instr carries the telemetry handles word-level analyses report into
	// (instruments.go); nil disables instrumentation.
	instr atomic.Pointer[Instruments]
	// verified remembers the stored versions whose spine copies passed the
	// static check under this pair (see verifiedKey), direct-mapped by
	// rendering ID: a fixed-size set of numbers, so it never grows, keeps
	// nothing alive and cannot mistake a new version for an old one.
	verified [verifiedSlots]atomic.Uint64
}

// verifiedSlots bounds the versions a Compiled remembers as checked; as
// many as a store keeps renderings of.
const verifiedSlots = 256

// verifiedKey is the key under which a Compiled remembers a checked
// version: the ID of its rendering and the validation context's
// strictness, the one input of the check of a call-free subtree besides
// the Compiled itself. Rendering IDs start at 1, so no key is 0.
func verifiedKey(id uint64, strict bool) uint64 {
	k := id << 1
	if strict {
		k |= 1
	}
	return k
}

// isVerified reports whether the version rendered as id passed the static
// check under c with the given strictness.
func (c *Compiled) isVerified(id uint64, strict bool) bool {
	return c.verified[id%verifiedSlots].Load() == verifiedKey(id, strict)
}

// markVerified records that the version rendered as id passed the static
// check under c, evicting whichever version held its slot.
func (c *Compiled) markVerified(id uint64, strict bool) {
	c.verified[id%verifiedSlots].Store(verifiedKey(id, strict))
}

// entry is what Compile freezes for one declared name. It is read without
// locks and never written after Compile returns, but for the DFAs of its
// models (dfaOf).
type entry struct {
	sym regex.Symbol
	// fi is the name's function information; nil for non-functions.
	fi *FuncInfo
	// declared: the target declares the name as an element label; data: with
	// atomic content.
	declared, data bool
	// content is the target content model of a declared structured label.
	content model
	// in is the input type of a function taking structured parameters.
	in model
}

// dfaCellBudget bounds the cells of all the DFAs one Compiled builds: 1 MiB
// of states. A DFA has (positions+1) × (symbols+1) cells, so without a
// bound a receiver schema declaring a few long sequences of distinct names
// could make one Compiled, and each entry of the compile cache, hold a
// gigabyte of DFAs. Content models of a few dozen positions take a few
// hundred cells each.
const dfaCellBudget = 1 << 18

// model is a declared word type, patterns expanded. Its DFA is built on
// first use; see dfaOf.
type model struct {
	re *regex.Regex
	// once builds dfa, which accepts L(re); dfa stays nil when re is not
	// one-unambiguous or its DFA would overrun the Compiled's budget.
	once sync.Once
	dfa  *automata.DFA
}

// dfaOf returns m's DFA, building it on m's first use; nil when m has none.
// Every call, the first included, returns after the DFA is written, so the
// caller reads it without a lock.
func (c *Compiled) dfaOf(m *model) *automata.DFA {
	m.once.Do(func() {
		c.dfaMu.Lock()
		defer c.dfaMu.Unlock()
		if d, ok := automata.GlushkovDFA(m.re, dfaCellBudget-c.dfaCells); ok {
			m.dfa = d
			c.dfaCells += d.Cells()
			c.dfas++
		}
	})
	return m.dfa
}

// adhoc returns the model of a word type built per request, such as a
// document type: it gets no DFA, so the Compiled keeps nothing of it.
func adhoc(re *regex.Regex) *model {
	m := &model{re: re}
	m.once.Do(func() {})
	return m
}

// symOf returns the symbol of a name whose entry is e (nil: undeclared, so
// the name is interned).
func (c *Compiled) symOf(e *entry, name string) regex.Symbol {
	if e != nil {
		return e.sym
	}
	return c.Table.Intern(name)
}

// symbol returns the symbol of a name.
func (c *Compiled) symbol(name string) regex.Symbol { return c.symOf(c.names[name], name) }

// funcOf returns the function information of a name, nil for names that
// are not declared functions or patterns.
func (c *Compiled) funcOf(name string) *FuncInfo {
	if e := c.names[name]; e != nil {
		return e.fi
	}
	return nil
}

// SetInstruments attaches telemetry instruments to this compiled analysis:
// word-verdict counters, analysis latency and automaton-size histograms are
// reported through them. Pass nil to detach. Safe to call concurrently with
// analyses; CompiledCache.Instrument and NewRewriterForConfig call this.
func (c *Compiled) SetInstruments(ins *Instruments) {
	c.instr.Store(ins)
}

// instruments returns the attached instruments (nil = no-op).
func (c *Compiled) instruments() *Instruments {
	return c.instr.Load()
}

// FuncInfo is the word-level view of a function or function-pattern symbol.
type FuncInfo struct {
	Sym regex.Symbol
	// Out is the output type; nil means the function returns atomic data,
	// which at the word level is the empty word ε.
	Out *regex.Regex
	// In is the input type (nil = atomic data); used by the tree phases.
	In        *regex.Regex
	Invocable bool
	Cost      float64
	// SideEffects blocks speculative pre-invocation in the mixed strategy.
	SideEffects bool
	// IsPattern marks abstract pattern symbols (occurring in output types).
	IsPattern bool
}

// Compile analyzes the schema pair. Both schemas must share one symbol
// namespace: either literally one table, or one schema's table an overlay of
// the other's (the /exchange endpoint parses untrusted schemas into a
// request-scoped overlay of the peer table). Compile panics otherwise, since
// silently mixing two tables would corrupt every automaton built downstream.
func Compile(sender, target *schema.Schema) *Compiled {
	if sender == nil {
		sender = target
	}
	// The compiled analysis interns through the *extending* table so every
	// symbol of both schemas resolves.
	table := target.Table
	if !table.Extends(sender.Table) {
		if !sender.Table.Extends(target.Table) {
			panic("core: sender and target schemas must share one symbol table")
		}
		table = sender.Table
	}
	c := &Compiled{
		Table:    table,
		Sender:   sender,
		Target:   target,
		funcs:    make(map[regex.Symbol]*FuncInfo),
		expanded: make(map[string]*regex.Regex),
		deriver:  regex.NewDeriver(),
	}
	c.words.Store(&wordCacheBox{wc: newWordCache(DefaultWordCacheSize)})
	// Declared functions: the target's view wins on policy (invocability),
	// because the exchange schema is where §2.1 restrictions live, but
	// signatures may come from either side (they agree by assumption).
	add := func(def *schema.FuncDef) {
		sym := c.Table.Intern(def.Name)
		if _, done := c.funcs[sym]; done {
			return
		}
		c.funcs[sym] = &FuncInfo{
			Sym:         sym,
			Out:         def.Out,
			In:          def.In,
			Invocable:   def.Invocable,
			Cost:        def.Cost,
			SideEffects: def.SideEffects,
		}
	}
	for _, name := range target.SortedFuncs() {
		add(target.Funcs[name])
	}
	for _, name := range sender.SortedFuncs() {
		add(sender.Funcs[name])
	}
	// Pattern symbols act as abstract functions when they occur inside
	// output types: invoking "some function matching p" yields a word of
	// p's output type.
	addPattern := func(def *schema.PatternDef) {
		sym := c.Table.Intern(def.Name)
		if _, done := c.funcs[sym]; done {
			return
		}
		c.funcs[sym] = &FuncInfo{
			Sym:       sym,
			Out:       def.Out,
			In:        def.In,
			Invocable: def.Invocable,
			IsPattern: true,
		}
	}
	for _, name := range target.SortedPatterns() {
		addPattern(target.Patterns[name])
	}
	for _, name := range sender.SortedPatterns() {
		addPattern(sender.Patterns[name])
	}

	sigma := append(sender.Alphabet(), target.Alphabet()...)
	sort.Slice(sigma, func(i, j int) bool { return sigma[i] < sigma[j] })
	c.alphabet = dedup(sigma)

	// Collect the distinct declared names first, so the entries are carved
	// from one slice of exactly their number.
	n := 0
	for _, s := range []*schema.Schema{target, sender} {
		n += len(s.Labels) + len(s.Funcs) + len(s.Patterns)
	}
	c.names = make(map[string]*entry, n)
	for _, s := range []*schema.Schema{target, sender} {
		for name := range s.Labels {
			c.names[name] = nil
		}
		for name := range s.Funcs {
			c.names[name] = nil
		}
		for name := range s.Patterns {
			c.names[name] = nil
		}
	}
	ents := make([]entry, len(c.names))
	i := 0
	// Every declared name is already interned, so the order of the map walk
	// cannot change a symbol.
	for name := range c.names {
		e := &ents[i]
		i++
		e.sym = c.Table.Intern(name)
		e.fi = c.funcs[e.sym]
		if raw, isData, ok := target.Content(name); ok {
			e.declared, e.data = true, isData
			if !isData {
				e.content.re = c.ExpandPatterns(raw)
			}
		}
		if e.fi != nil && e.fi.In != nil {
			e.in.re = c.ExpandPatterns(e.fi.In)
		}
		c.names[name] = e
	}
	return c
}

func dedup(s []regex.Symbol) []regex.Symbol {
	if len(s) < 2 {
		return s
	}
	out := s[:1]
	for _, x := range s[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// Func returns the function info for a symbol, or nil for non-function
// symbols (element labels, undeclared names).
func (c *Compiled) Func(sym regex.Symbol) *FuncInfo { return c.funcs[sym] }

// Alphabet returns the effective alphabet: every symbol either schema
// mentions. Words being rewritten may intern additional symbols; callers
// pass those separately to the analyses.
func (c *Compiled) Alphabet() []regex.Symbol { return c.alphabet }

// ExpandPatterns rewrites a target-side content model so that each function
// pattern symbol p becomes the alternation of p itself (covering abstract
// occurrences from output types) and every *declared* function matching p.
// This is what lets a concrete document function be "read as" a pattern by
// the product constructions, which otherwise compare plain symbols.
func (c *Compiled) ExpandPatterns(r *regex.Regex) *regex.Regex {
	if r == nil {
		return nil
	}
	if len(c.Target.Patterns) == 0 && len(c.Sender.Patterns) == 0 {
		return r
	}
	key := r.Key()
	c.expandedMu.RLock()
	memo, ok := c.expanded[key]
	c.expandedMu.RUnlock()
	if ok {
		return memo
	}
	subst := make(map[regex.Symbol]*regex.Regex)
	expandInto := func(s *schema.Schema, pname string) {
		p := s.Patterns[pname]
		psym := c.Table.Intern(pname)
		if _, done := subst[psym]; done {
			return
		}
		alts := []*regex.Regex{regex.Sym(psym)}
		for _, fname := range c.Sender.SortedFuncs() {
			if schema.FuncMatchesPattern(c.Sender.Funcs[fname], p) {
				alts = append(alts, regex.Sym(c.Table.Intern(fname)))
			}
		}
		for _, fname := range c.Target.SortedFuncs() {
			if c.Sender.Funcs[fname] != nil {
				continue // already considered
			}
			if schema.FuncMatchesPattern(c.Target.Funcs[fname], p) {
				alts = append(alts, regex.Sym(c.Table.Intern(fname)))
			}
		}
		subst[psym] = regex.Alt(alts...)
	}
	for _, pname := range c.Target.SortedPatterns() {
		expandInto(c.Target, pname)
	}
	for _, pname := range c.Sender.SortedPatterns() {
		expandInto(c.Sender, pname)
	}
	out := substitute(r, subst)
	c.expandedMu.Lock()
	defer c.expandedMu.Unlock()
	if prev, ok := c.expanded[key]; ok {
		return prev // a racing expansion published first; keep it canonical
	}
	c.expanded[key] = out
	return out
}

// Deriver returns the shared, concurrency-safe derivative table lazy
// analyses over this pair use.
func (c *Compiled) Deriver() *regex.Deriver { return c.deriver }

// member reports whether the tokens' symbols spell a word of typ, by
// stepping the shared derivative table.
func (c *Compiled) member(tokens []Token, typ *regex.Regex) bool {
	r := typ
	for _, t := range tokens {
		if r = c.deriver.Derive(r, t.Sym); r.IsNever() {
			return false
		}
	}
	return r.Nullable()
}

// matchWord decides what ctx.MatchWord(typ.re, word) decides: whether
// the non-text nodes of word, read through patterns, spell a word of typ.
// A node is read as its own symbol, resolved through the frozen entries,
// and a function node also as every target pattern admitting it; so when
// the target declares no pattern, or the word holds no function, every
// letter is one symbol and the word steps typ's DFA, or the shared
// derivative table when typ has none, with no lock and no allocation.
// Otherwise it asks ctx.
func (c *Compiled) matchWord(ctx *schema.Context, typ *model, word []*doc.Node) bool {
	if len(c.Target.Patterns) > 0 && hasFunc(word) {
		return ctx.MatchWord(typ.re, word)
	}
	if d := c.dfaOf(typ); d != nil {
		s := d.Start
		for _, n := range word {
			if n.Kind == doc.Text {
				continue
			}
			if s = d.Step(s, c.symbol(n.Label)); s == automata.NoState {
				return false
			}
		}
		return d.Accept[s]
	}
	r := typ.re
	for _, n := range word {
		if n.Kind == doc.Text {
			continue
		}
		if r = c.deriver.Derive(r, c.symbol(n.Label)); r.IsNever() {
			return false
		}
	}
	return r.Nullable()
}

// substitute replaces symbol leaves per the map, leaving everything else
// untouched.
func substitute(r *regex.Regex, subst map[regex.Symbol]*regex.Regex) *regex.Regex {
	switch r.Op {
	case regex.OpSym:
		if repl, ok := subst[r.Sym]; ok {
			return repl
		}
		return r
	case regex.OpConcat:
		subs := make([]*regex.Regex, len(r.Subs))
		for i, s := range r.Subs {
			subs[i] = substitute(s, subst)
		}
		return regex.Concat(subs...)
	case regex.OpAlt:
		subs := make([]*regex.Regex, len(r.Subs))
		for i, s := range r.Subs {
			subs[i] = substitute(s, subst)
		}
		return regex.Alt(subs...)
	case regex.OpStar:
		return regex.Star(substitute(r.Subs[0], subst))
	default:
		return r
	}
}

// Err helpers shared by analyses and executors.

// NotSafeError reports why a rewriting request was judged unsafe or
// impossible, with the path of the offending node when known.
type NotSafeError struct {
	Path string
	Msg  string
}

func (e *NotSafeError) Error() string {
	if e.Path == "" {
		return "core: " + e.Msg
	}
	return fmt.Sprintf("core: %s: %s", e.Path, e.Msg)
}
