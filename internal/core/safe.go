package core

import (
	"slices"
	"time"

	"axml/internal/automata"
	"axml/internal/regex"
)

// ProdEdge is one option inside a Group: a move to a product state, possibly
// representing the invocation of a function.
type ProdEdge struct {
	To       int
	ViaCall  bool
	FuncSym  regex.Symbol
	TokenIdx int
	// Sym is the symbol consumed by word edges (NoSymbol for ε moves); kept
	// for plan tracing and debugging output.
	Sym regex.Symbol
}

// Group is one choice point of the marking game. A fork group carries the
// two options of Figure 3 — keep the function occurrence or invoke it — and
// is "lost" only when *both* options lead to marked states. Every other
// group is an adversarial singleton (the automaton/nondeterminism moves by
// itself) and is lost as soon as its single target is marked.
type Group struct {
	Fork     bool
	FuncSym  regex.Symbol
	TokenIdx int
	Options  []ProdEdge
}

// product is the reachable part of A_w^k × D for a complete DFA D, with
// the fork structure reflected onto product states: D is Ā for safe
// rewriting (steps 11–14 of Figure 3) and the target's own automaton A for
// possible rewriting (Figure 9). Safe and possible rewriting differ only in
// the fixpoint they run over it.
type product struct {
	Fork   *Fork
	Target *regex.Regex

	// QState / PState give the A_w^k state and D state of each product
	// state; Groups lists its choice structure.
	QState  []int
	PState  []automata.State
	Groups  [][]Group
	Initial int

	// Accepting marks the states with q accepting in A_w^k and p accepting
	// in D: the seeds of both fixpoints.
	Accepting []bool
}

// NumProdStates returns how many product states were constructed — the
// quantity the lazy-vs-eager experiment compares.
func (a *product) NumProdStates() int { return len(a.QState) }

// NumProdEdges returns the number of product options constructed.
func (a *product) NumProdEdges() int {
	n := 0
	for _, gs := range a.Groups {
		for _, g := range gs {
			n += len(g.Options)
		}
	}
	return n
}

type prodKey struct {
	q int
	p automata.State
}

// buildProduct constructs the product of fork and the complete DFA d. A
// fork's keep option consumes the function symbol, and its call option
// ε-moves into the attached output copy without advancing d. A word edge
// expands its class over d's alphabet (plus the uniform "other" column for
// wildcards), every concrete symbol an adversarial singleton group.
func buildProduct(fork *Fork, d *automata.DFA, target *regex.Regex) product {
	a := product{Fork: fork, Target: target}
	index := map[prodKey]int{}
	var work []int
	intern := func(q int, p automata.State) int {
		k := prodKey{q, p}
		if s, ok := index[k]; ok {
			return s
		}
		s := len(a.QState)
		index[k] = s
		a.QState = append(a.QState, q)
		a.PState = append(a.PState, p)
		a.Groups = append(a.Groups, nil)
		a.Accepting = append(a.Accepting, fork.Accept[q] && d.Accept[p])
		work = append(work, s)
		return s
	}
	a.Initial = intern(0, d.Start)
	// groups and opts collect one state's choice structure; a fork group
	// owns two consecutive options and any other group one.
	var groups []Group
	var opts []ProdEdge
	single := func(to int, x regex.Symbol, e ForkEdge) {
		groups = append(groups, Group{})
		opts = append(opts, ProdEdge{To: to, FuncSym: e.FuncSym, TokenIdx: e.TokenIdx, Sym: x})
	}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		q, p := a.QState[s], a.PState[s]
		groups, opts = groups[:0], opts[:0]
		edges := fork.Edges[q]
		for _, e := range edges {
			switch {
			case e.IsCall:
				// The call option of its keep edge's group.
			case e.Eps:
				groups = append(groups, Group{})
				opts = append(opts, ProdEdge{To: intern(e.To, p), Sym: regex.NoSymbol})
			case e.Partner >= 0:
				f := e.FuncSym
				keepTo := intern(e.To, d.Step(p, f))
				callTo := intern(edges[e.Partner].To, p)
				groups = append(groups, Group{Fork: true, FuncSym: f, TokenIdx: e.TokenIdx})
				opts = append(opts,
					ProdEdge{To: keepTo, FuncSym: f, TokenIdx: e.TokenIdx, Sym: f},
					ProdEdge{To: callTo, ViaCall: true, FuncSym: f, TokenIdx: e.TokenIdx, Sym: regex.NoSymbol})
			case !e.Cls.Negated:
				for _, x := range e.Cls.Syms {
					single(intern(e.To, d.Step(p, x)), x, e)
				}
			default:
				for _, x := range d.Alphabet {
					if e.Cls.Contains(x) {
						single(intern(e.To, d.Step(p, x)), x, e)
					}
				}
				single(intern(e.To, d.Trans[p][len(d.Alphabet)]), regex.NoSymbol, e)
			}
		}
		// One allocation for the state's groups and one for their options.
		own := slices.Clone(opts)
		a.Groups[s] = slices.Clone(groups)
		for i := range a.Groups[s] {
			w := 1
			if a.Groups[s][i].Fork {
				w = 2
			}
			a.Groups[s][i].Options, own = own[:w:w], own[w:]
		}
	}
	return a
}

// attractor returns the backward fixpoint over the choice structure groups
// from the states seeds marks. When all is true it is the marking of steps
// 15–17 of Figure 3: a state joins when some group of it has all its
// options in the set — both options for a fork, the single one for any
// other group. Otherwise a state joins when any of its options is in the
// set: the useful states of step 5 of Figure 9.
func attractor(groups [][]Group, seeds []bool, all bool) []bool {
	n := len(groups)
	set := slices.Clone(seeds)
	// Number the groups of every state consecutively from first[s], and
	// list the groups holding an option into each state t as
	// into[in[t]:in[t+1]].
	first := make([]int, n+1)
	in := make([]int, n+1)
	for s, gs := range groups {
		first[s+1] = first[s] + len(gs)
		for _, g := range gs {
			for _, o := range g.Options {
				in[o.To]++
			}
		}
	}
	for t := 1; t <= n; t++ {
		in[t] += in[t-1]
	}
	into := make([]int, in[n])
	// remaining[g]: options of group g outside the set that it still waits
	// for; owner[g]: the state it belongs to.
	remaining := make([]int, first[n])
	owner := make([]int, first[n])
	var queue []int
	for s, gs := range groups {
		for j, g := range gs {
			id := first[s] + j
			owner[id] = s
			remaining[id] = 1
			if all {
				remaining[id] = len(g.Options)
			}
			for _, o := range g.Options {
				in[o.To]--
				into[in[o.To]] = id
			}
		}
		if set[s] {
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, id := range into[in[t]:in[t+1]] {
			s := owner[id]
			if set[s] {
				continue
			}
			if remaining[id]--; remaining[id] == 0 {
				set[s] = true
				queue = append(queue, s)
			}
		}
	}
	return set
}

// SafeAnalysis is the marked product A_× = A_w^k × Ā of Figure 3.
type SafeAnalysis struct {
	product
	Compl *automata.DFA

	// Marked is the fixpoint of steps 15–17: the states from which the
	// adversary forces a word outside the target.
	Marked []bool
}

// Safe reports the verdict: a k-depth left-to-right safe rewriting exists
// iff the initial state is unmarked (step 18).
func (a *SafeAnalysis) Safe() bool { return !a.Marked[a.Initial] }

// AnalyzeSafe runs the full (eager) Figure 3 algorithm at the word level:
// build A_w^k for the tokens, build the complete complement Ā of the
// (pattern-expanded) target content model, build their product, and mark it.
func AnalyzeSafe(c *Compiled, tokens []Token, target *regex.Regex, k int) (*SafeAnalysis, error) {
	ins := c.instruments()
	var t0 time.Time
	if ins != nil {
		t0 = time.Now()
	}
	fork, err := BuildFork(c, tokens, k)
	if err != nil {
		return nil, err
	}
	if ins != nil {
		ins.forkSeconds.ObserveSince(t0)
		ins.forkStates.Observe(float64(fork.NumStates()))
		t0 = time.Now()
	}
	expanded := c.ExpandPatterns(target)
	compl := automata.ComplementOfRegex(expanded, alphabetFor(c, tokens))
	if ins != nil {
		ins.complSeconds.ObserveSince(t0)
	}
	a := &SafeAnalysis{product: buildProduct(fork, compl, expanded), Compl: compl}
	a.Marked = attractor(a.Groups, a.Accepting, true)
	if ins != nil {
		ins.prodSafe.Observe(float64(a.NumProdStates()))
	}
	return a, nil
}

// alphabetFor is the alphabet of a word's analysis: the pair's symbols and
// the word's own.
func alphabetFor(c *Compiled, tokens []Token) []regex.Symbol {
	sigma := append([]regex.Symbol(nil), c.Alphabet()...)
	for _, t := range tokens {
		sigma = append(sigma, t.Sym)
	}
	slices.Sort(sigma)
	return dedup(sigma)
}

// WordSafe is the convenience entry point: does the token word safely
// rewrite into target within k-depth?
func WordSafe(c *Compiled, tokens []Token, target *regex.Regex, k int) (bool, error) {
	a, err := AnalyzeSafe(c, tokens, target, k)
	if err != nil {
		return false, err
	}
	return a.Safe(), nil
}
