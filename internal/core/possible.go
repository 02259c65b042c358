package core

import (
	"time"

	"axml/internal/automata"
	"axml/internal/regex"
)

// PossibleAnalysis is the product A_w^k × A of Figure 9: possible rewriting
// is plain reachability — some word generated by some k-depth rewriting lies
// in the target language.
type PossibleAnalysis struct {
	product
	DFA *automata.DFA // the target automaton A (completed)

	// Useful[s] (step 5 of Figure 9): some path from s reaches an accepting
	// state; the backtracking executor only ever follows useful states.
	Useful []bool
}

// Possible reports whether some rewriting may succeed (step 6).
func (a *PossibleAnalysis) Possible() bool { return a.Useful[a.Initial] }

// AnalyzePossible runs the Figure 9 algorithm at the word level.
func AnalyzePossible(c *Compiled, tokens []Token, target *regex.Regex, k int) (*PossibleAnalysis, error) {
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
	dfa := automata.Determinize(automata.FromRegex(expanded), alphabetFor(c, tokens)).Complete()
	if ins != nil {
		ins.dfaSeconds.ObserveSince(t0)
	}
	a := &PossibleAnalysis{product: buildProduct(fork, dfa, expanded), DFA: dfa}
	a.Useful = attractor(a.Groups, a.Accepting, false)
	if ins != nil {
		ins.prodPossible.Observe(float64(a.NumProdStates()))
	}
	return a, nil
}

// WordPossible is the convenience entry point for Figure 9's verdict.
func WordPossible(c *Compiled, tokens []Token, target *regex.Regex, k int) (bool, error) {
	a, err := AnalyzePossible(c, tokens, target, k)
	if err != nil {
		return false, err
	}
	return a.Possible(), nil
}
