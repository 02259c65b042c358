package core

import (
	"fmt"

	"axml/internal/automata"
	"axml/internal/doc"
	"axml/internal/regex"
)

// Token is one letter of the word being rewritten — at the tree level, one
// non-text child of the node under consideration.
type Token struct {
	Sym regex.Symbol
	// Depth counts how many invocations produced this occurrence (0 for the
	// original children). A function token may be invoked only while
	// Depth < k, implementing the k-depth restriction of Definition 7.
	Depth int
	// Frozen suppresses the call option: the function is non-invocable,
	// its parameters cannot be made into an input instance, or an earlier
	// left-to-right decision already chose to keep it.
	Frozen bool
	// MustCall suppresses the *keep* option instead: the occurrence is
	// replaced by its output type unconditionally. It encodes the virtual
	// function of the Section 6 schema-rewriting reduction ("a single
	// function element with an output of that type"). MustCall requires a
	// declared output type and overrides Frozen.
	MustCall bool
	// Node back-references the document child for executors; nil in pure
	// word-level analyses.
	Node *doc.Node
}

// TokensOf builds depth-0 tokens from the non-text children of n.
func TokensOf(c *Compiled, n *doc.Node) []Token {
	out := make([]Token, 0, len(n.Children))
	for _, ch := range n.Children {
		if ch.Kind == doc.Text {
			continue
		}
		out = append(out, Token{Sym: c.symbol(ch.Label), Node: ch})
	}
	return out
}

// TokensOfForest builds depth-0 tokens from the non-text roots of a forest.
func TokensOfForest(c *Compiled, forest []*doc.Node) []Token {
	out := make([]Token, 0, len(forest))
	for _, ch := range forest {
		if ch.Kind == doc.Text {
			continue
		}
		out = append(out, Token{Sym: c.symbol(ch.Label), Node: ch})
	}
	return out
}

// WordTokens builds depth-0 tokens from bare symbols (word-level entry
// point, used by tests and the schema-rewriting reduction).
func WordTokens(word []regex.Symbol) []Token {
	out := make([]Token, len(word))
	for i, s := range word {
		out[i] = Token{Sym: s}
	}
	return out
}

// ForkEdge is a transition of the fork automaton A_w^k.
type ForkEdge struct {
	// Eps marks ε-transitions (copy plumbing and call options).
	Eps bool
	// Cls is the symbol class consumed by non-ε edges.
	Cls regex.Class
	To  int
	// IsCall marks the ε edge that represents invoking a function; its
	// Partner is the index (within the same adjacency slice) of the edge
	// that represents keeping the same occurrence, and vice versa.
	// Partner is -1 for edges that are not part of a fork.
	IsCall  bool
	Partner int
	// FuncSym is the function of a keep/call pair.
	FuncSym regex.Symbol
	// Depth is the number of invocations that produced this occurrence.
	Depth int
	// TokenIdx indexes the original token for depth-0 word edges; -1
	// elsewhere. Executors use it to map fork decisions back to children.
	TokenIdx int
}

// Fork is the automaton A_w^k of Figure 3, steps 5–10: the linear automaton
// of the word w, extended — k times, at every invocable function edge — with
// a copy of the Glushkov automaton of the function's output type, reachable
// through an ε "call" edge forking against the "keep" edge.
type Fork struct {
	Compiled *Compiled
	K        int
	Accept   []bool
	Edges    [][]ForkEdge

	numForks int
	// Stats for the experiments.
	CopiesAttached int
}

// MaxForkStates caps A_w^k growth: the construction is exponential in k by
// design (the paper's complexity bound O((|s0|+|w|)^k)), so runaway schemas
// fail fast instead of exhausting memory.
const MaxForkStates = 1 << 18

// BuildFork constructs A_w^k for the given tokens, sharing attached output
// copies between fork edges with identical (function, successor, depth).
func BuildFork(c *Compiled, tokens []Token, k int) (*Fork, error) {
	return buildFork(c, tokens, k, true)
}

// BuildForkUnshared is the literal per-edge attachment of Figure 3, without
// copy sharing — exponential for recursive output types. It exists for the
// copy-sharing ablation experiment; use BuildFork everywhere else.
func BuildForkUnshared(c *Compiled, tokens []Token, k int) (*Fork, error) {
	return buildFork(c, tokens, k, false)
}

func buildFork(c *Compiled, tokens []Token, k int, share bool) (*Fork, error) {
	f := &Fork{Compiled: c, K: k}
	addState := func(accept bool) int {
		f.Accept = append(f.Accept, accept)
		f.Edges = append(f.Edges, nil)
		return len(f.Accept) - 1
	}
	// Spine: one state per word position.
	for i := 0; i <= len(tokens); i++ {
		addState(i == len(tokens))
	}
	type pending struct {
		from, edge int
		mustCall   bool
	}
	var work []pending
	for i, tok := range tokens {
		if tok.MustCall {
			// Keep option suppressed: the spine edge is a placeholder the
			// attach step replaces by a forced ε into the output copy. We
			// still record the edge so attach logic can reuse To/Depth.
			if fi := c.Func(tok.Sym); fi == nil {
				return nil, fmt.Errorf("core: MustCall token %q is not a declared function", c.Table.Name(tok.Sym))
			}
			f.Edges[i] = append(f.Edges[i], ForkEdge{
				Cls:      regex.NewClass(false, tok.Sym),
				To:       i + 1,
				Partner:  -1,
				FuncSym:  tok.Sym,
				Depth:    tok.Depth,
				TokenIdx: i,
			})
			work = append(work, pending{i, 0, true})
			continue
		}
		e := ForkEdge{
			Cls:      regex.NewClass(false, tok.Sym),
			To:       i + 1,
			Partner:  -1,
			FuncSym:  regex.NoSymbol,
			Depth:    tok.Depth,
			TokenIdx: i,
		}
		if fi := c.Func(tok.Sym); fi != nil {
			e.FuncSym = tok.Sym
		}
		f.Edges[i] = append(f.Edges[i], e)
		if f.callable(tokens[i], c) {
			work = append(work, pending{from: i, edge: 0})
		}
	}

	// Iteratively attach output-type copies (the j = 1..k loop of Fig. 3).
	// Copies are shared between fork edges with the same function, successor
	// state and depth: their attached automata would be identical, and
	// without sharing a recursive output type (Get_More -> url*.Get_More?)
	// attaches 2^k copies instead of k.
	type copyKey struct {
		fn    regex.Symbol
		to    int
		depth int
	}
	copyBase := map[copyKey]int{}
	for len(work) > 0 {
		p := work[0]
		work = work[1:]
		keep := f.Edges[p.from][p.edge]
		fi := c.Func(keep.FuncSym)
		out := fi.Out
		if out == nil {
			out = regex.Empty() // data-returning: ε at the word level
		}
		if out.IsNever() {
			continue // a function that can return nothing has no call option
		}
		depth := keep.Depth + 1
		ck := copyKey{keep.FuncSym, keep.To, depth}
		base, shared := copyBase[ck]
		if !share {
			shared = false
		}
		if !shared {
			nfa := automata.FromRegex(out)
			base = len(f.Accept)
			if base+nfa.Len() > MaxForkStates {
				return nil, fmt.Errorf("core: A_w^%d exceeds %d states; lower k or simplify output types", k, MaxForkStates)
			}
			for s := 0; s < nfa.Len(); s++ {
				addState(false)
			}
			copyBase[ck] = base
			f.CopiesAttached++
			for s := 0; s < nfa.Len(); s++ {
				from := base + s
				for _, e := range nfa.Edges[s] {
					fe := ForkEdge{
						Cls:      e.Cls,
						To:       base + int(e.To),
						Partner:  -1,
						FuncSym:  regex.NoSymbol,
						Depth:    depth,
						TokenIdx: -1,
					}
					if !e.Cls.Negated && len(e.Cls.Syms) == 1 && c.Func(e.Cls.Syms[0]) != nil {
						fe.FuncSym = e.Cls.Syms[0]
					}
					f.Edges[from] = append(f.Edges[from], fe)
					if fe.FuncSym != regex.NoSymbol && depth < k && c.invocable(fe.FuncSym) {
						work = append(work, pending{from: from, edge: len(f.Edges[from]) - 1})
					}
				}
				if nfa.Accept[s] {
					f.Edges[from] = append(f.Edges[from], ForkEdge{
						Eps: true, To: keep.To, Partner: -1, FuncSym: regex.NoSymbol, Depth: depth, TokenIdx: -1,
					})
				}
			}
		}
		if p.mustCall {
			// Forced invocation: the spine edge becomes a plain ε into the
			// copy — no keep option, no fork.
			f.Edges[p.from][p.edge] = ForkEdge{
				Eps:      true,
				To:       base + 0,
				Partner:  -1,
				FuncSym:  keep.FuncSym,
				Depth:    depth,
				TokenIdx: keep.TokenIdx,
			}
			continue
		}
		// The call option: ε from the fork node to the copy's start.
		callIdx := len(f.Edges[p.from])
		f.Edges[p.from] = append(f.Edges[p.from], ForkEdge{
			Eps:      true,
			To:       base + 0,
			IsCall:   true,
			Partner:  p.edge,
			FuncSym:  keep.FuncSym,
			Depth:    depth,
			TokenIdx: keep.TokenIdx,
		})
		f.Edges[p.from][p.edge].Partner = callIdx
		f.numForks++
	}
	return f, nil
}

// callable reports whether a depth-0 token's function may be invoked at all.
func (f *Fork) callable(tok Token, c *Compiled) bool {
	if tok.Frozen || tok.Depth >= f.K {
		return false
	}
	fi := c.Func(tok.Sym)
	return fi != nil && fi.Invocable
}

// invocable reports whether a function symbol occurring inside an output
// type may be invoked (no per-token freezing applies at depth > 0: returned
// occurrences are output instances whose parameters conform by definition).
func (c *Compiled) invocable(sym regex.Symbol) bool {
	fi := c.Func(sym)
	return fi != nil && fi.Invocable
}

// NumStates returns the number of states of A_w^k.
func (f *Fork) NumStates() int { return len(f.Accept) }

// NumForks returns the number of keep/call forks.
func (f *Fork) NumForks() int { return f.numForks }

// NumEdges returns the total number of transitions.
func (f *Fork) NumEdges() int {
	n := 0
	for _, es := range f.Edges {
		n += len(es)
	}
	return n
}

// Accepts reports whether word belongs to L(A_w^k) — the set of words
// reachable from w by some k-depth left-to-right rewriting (call edges are
// ordinary ε-moves for language purposes).
func (f *Fork) Accepts(word []regex.Symbol) bool {
	cur := f.closure(map[int]bool{0: true})
	for _, x := range word {
		next := map[int]bool{}
		for s := range cur {
			for _, e := range f.Edges[s] {
				if !e.Eps && e.Cls.Contains(x) {
					next[e.To] = true
				}
			}
		}
		cur = f.closure(next)
		if len(cur) == 0 {
			return false
		}
	}
	for s := range cur {
		if f.Accept[s] {
			return true
		}
	}
	return false
}

func (f *Fork) closure(set map[int]bool) map[int]bool {
	stack := make([]int, 0, len(set))
	for s := range set {
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range f.Edges[s] {
			if e.Eps && !set[e.To] {
				set[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return set
}
