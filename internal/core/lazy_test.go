package core

import "axml/internal/regex"

// LazyPossible answers Figure 9's question by pruned DFS reachability over
// derivatives: search for an accepting product state, never expanding past
// the ∅ derivative (nothing accepts beyond the sink). It shares no product
// or fixpoint with AnalyzePossible, which the tests hold to it.
func LazyPossible(c *Compiled, tokens []Token, target *regex.Regex, k int) (*LazyResult, error) {
	fork, err := BuildFork(c, tokens, k)
	if err != nil {
		return nil, err
	}
	expanded := c.ExpandPatterns(target)
	deriver, fresh := regex.NewDeriver(), c.other
	type key struct {
		q int
		k string
	}
	seen := map[key]bool{}
	explored, sinkPrunes := 0, 0

	var dfs func(q int, d *regex.Regex) bool
	dfs = func(q int, d *regex.Regex) bool {
		kk := key{q, d.Key()}
		if seen[kk] {
			return false
		}
		seen[kk] = true
		explored++
		if d.IsNever() {
			sinkPrunes++
			return false
		}
		if fork.Accept[q] && d.Nullable() {
			return true
		}
		for _, e := range fork.Edges[q] {
			switch {
			case e.Eps:
				if dfs(e.To, d) {
					return true
				}
			case !e.Cls.Negated:
				for _, x := range e.Cls.Syms {
					if dfs(e.To, deriver.Derive(d, x)) {
						return true
					}
				}
			default:
				for _, x := range relevantSymbols(d, e.Cls) {
					if dfs(e.To, deriver.Derive(d, x)) {
						return true
					}
				}
				if dfs(e.To, deriver.Derive(d, fresh)) {
					return true
				}
			}
		}
		return false
	}
	found := dfs(0, expanded)
	return &LazyResult{Verdict: found, StatesExplored: explored, SinkPrunes: sinkPrunes}, nil
}
