package core

import (
	"fmt"

	"axml/internal/regex"
)

// The lazy variant (Section 7 of the paper, Figure 12) explores the product
// A_w^k × Ā on the fly instead of constructing it up front. The complement
// automaton Ā is never built: its states are Brzozowski derivatives of the
// target content model, complete by construction, with
//
//   - the derivative ∅ playing the role of Ā's accepting *sink* — once the
//     consumed prefix cannot be completed into a target word, every
//     continuation is accepted by the complement, so the product state is
//     marked immediately and nothing below it is explored ("Sink nodes"
//     pruning); and
//   - exploration of a state stopping at the first group found lost —
//     all options marked for a rewriter fork, any option marked for an
//     adversarial group ("Marked nodes" pruning).
//
// Cycles through states still under exploration are recorded optimistically
// and resolved by the same backward attractor as the eager algorithm,
// restricted to the explored subgraph. This is sound: marking information
// only ever flows backward along recorded edges, and every recorded option's
// target has itself been explored.

// LazyResult carries a verdict plus the exploration statistics the
// lazy-vs-eager experiment (E-C5 / Figure 12) reports.
type LazyResult struct {
	// Verdict is the analysis' answer: for LazySafe, whether a safe
	// rewriting exists.
	Verdict bool
	// StatesExplored counts product states materialized lazily; compare
	// against SafeAnalysis.NumProdStates.
	StatesExplored int
	// SinkPrunes counts states cut by the ∅-derivative rule; MarkPrunes
	// counts states whose group expansion stopped early.
	SinkPrunes int
	MarkPrunes int
}

type lazyStatus uint8

const (
	lazyUnknown lazyStatus = iota
	lazyOnStack
	lazyMarked
	lazyRecorded // groups recorded; final mark decided by the attractor
)

type lazySafe struct {
	fork *Fork
	// deriver memoizes the derivatives this analysis takes, and dies with it.
	deriver *regex.Deriver
	// fresh stands for every symbol outside the target's alphabet: the
	// pair's other symbol, which no content model mentions.
	fresh regex.Symbol

	index  map[string]int
	qOf    []int
	dOf    []*regex.Regex
	status []lazyStatus
	groups [][]Group

	sinkPrunes int
	markPrunes int
}

// LazySafe answers the same question as AnalyzeSafe with lazy exploration.
func LazySafe(c *Compiled, tokens []Token, target *regex.Regex, k int) (*LazyResult, error) {
	fork, err := BuildFork(c, tokens, k)
	if err != nil {
		return nil, err
	}
	expanded := c.ExpandPatterns(target)
	ls := &lazySafe{
		fork:    fork,
		deriver: regex.NewDeriver(),
		fresh:   c.other,
		index:   map[string]int{},
	}
	init := ls.intern(0, expanded)
	ls.explore(init)
	// Resolve the cycles explore recorded optimistically.
	seeds := make([]bool, len(ls.status))
	for s, st := range ls.status {
		seeds[s] = st == lazyMarked
	}
	marked := attractor(ls.groups, seeds, true)
	return &LazyResult{
		Verdict:        !marked[init],
		StatesExplored: len(ls.qOf),
		SinkPrunes:     ls.sinkPrunes,
		MarkPrunes:     ls.markPrunes,
	}, nil
}

func (ls *lazySafe) intern(q int, d *regex.Regex) int {
	key := fmt.Sprintf("%d|%s", q, d.Key())
	if s, ok := ls.index[key]; ok {
		return s
	}
	s := len(ls.qOf)
	ls.index[key] = s
	ls.qOf = append(ls.qOf, q)
	ls.dOf = append(ls.dOf, d)
	ls.status = append(ls.status, lazyUnknown)
	ls.groups = append(ls.groups, nil)
	return s
}

// explore runs the pruned DFS. Every state it interns, it also explores, so
// no lazyUnknown states survive it.
func (ls *lazySafe) explore(s int) {
	switch ls.status[s] {
	case lazyOnStack, lazyMarked, lazyRecorded:
		return
	}
	q, d := ls.qOf[s], ls.dOf[s]
	// Sink rule: the complement accepts everything from here on, and A_w^k
	// can always complete its word, so the rewriter has already lost.
	if d.IsNever() {
		ls.status[s] = lazyMarked
		ls.sinkPrunes++
		return
	}
	// Seed rule: word complete and outside the target language.
	if ls.fork.Accept[q] && !d.Nullable() {
		ls.status[s] = lazyMarked
		return
	}
	ls.status[s] = lazyOnStack
	var groups []Group
	edges := ls.fork.Edges[q]
	pruned := false
edgeLoop:
	for _, e := range edges {
		if e.IsCall {
			continue
		}
		for _, g := range ls.expandEdge(e, edges, d) {
			// Explore the options, then test whether this group is already
			// lost with the knowledge gathered so far. A state on the DFS
			// stack counts as unmarked (optimistic); the attractor repairs
			// any cycle that turns out marked.
			lost := g.Fork
			for _, o := range g.Options {
				ls.explore(o.To)
				marked := ls.status[o.To] == lazyMarked
				if g.Fork {
					lost = lost && marked
				} else {
					lost = lost || marked
				}
			}
			groups = append(groups, g)
			if lost {
				ls.status[s] = lazyMarked
				ls.markPrunes++
				pruned = true
				break edgeLoop
			}
		}
	}
	if !pruned {
		ls.status[s] = lazyRecorded
	}
	ls.groups[s] = groups
}

// expandEdge converts one fork edge into product groups against derivative
// state d: ε edges and fork pairs yield one group; a class-labeled word edge
// yields one adversarial singleton group per admissible symbol (collapsed
// to distinct derivative targets).
func (ls *lazySafe) expandEdge(e ForkEdge, edges []ForkEdge, d *regex.Regex) []Group {
	if e.Eps {
		return []Group{{Options: []ProdEdge{{To: ls.intern(e.To, d), Sym: regex.NoSymbol}}}}
	}
	if e.Partner >= 0 {
		f := e.FuncSym
		keepTo := ls.intern(e.To, ls.deriver.Derive(d, f))
		call := edges[e.Partner]
		callTo := ls.intern(call.To, d)
		return []Group{{
			Fork:     true,
			FuncSym:  f,
			TokenIdx: e.TokenIdx,
			Options: []ProdEdge{
				{To: keepTo, FuncSym: f, TokenIdx: e.TokenIdx, Sym: f},
				{To: callTo, ViaCall: true, FuncSym: f, TokenIdx: e.TokenIdx, Sym: regex.NoSymbol},
			},
		}}
	}
	var groups []Group
	add := func(to int, x regex.Symbol) {
		groups = append(groups, Group{Options: []ProdEdge{{To: to, Sym: x, TokenIdx: e.TokenIdx, FuncSym: regex.NoSymbol}}})
	}
	if !e.Cls.Negated {
		for _, x := range e.Cls.Syms {
			add(ls.intern(e.To, ls.deriver.Derive(d, x)), x)
		}
		return groups
	}
	seen := map[int]bool{}
	for _, x := range relevantSymbols(d, e.Cls) {
		to := ls.intern(e.To, ls.deriver.Derive(d, x))
		if !seen[to] {
			seen[to] = true
			add(to, x)
		}
	}
	if to := ls.intern(e.To, ls.deriver.Derive(d, ls.fresh)); !seen[to] {
		add(to, regex.NoSymbol)
	}
	return groups
}

// relevantSymbols lists the symbols of d's alphabet admitted by the class —
// the only symbols whose derivatives can differ from the fresh symbol's.
func relevantSymbols(d *regex.Regex, cls regex.Class) []regex.Symbol {
	var out []regex.Symbol
	for _, x := range d.Alphabet(nil) {
		if cls.Contains(x) {
			out = append(out, x)
		}
	}
	return out
}
