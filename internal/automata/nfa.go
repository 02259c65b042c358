// Package automata provides the finite-automata toolkit behind the
// intensional-XML rewriting algorithms: Glushkov construction from symbolic
// regular expressions, subset-construction determinization over an effective
// alphabet, completion, complementation, products, Hopcroft minimization and
// language-level equivalence.
//
// Automata here run over interned regex.Symbol alphabets. Edges are labeled
// by regex.Class values so that wildcard content models (<any>, namespace
// exclusions) need no up-front alphabet expansion: determinization handles
// every symbol outside the declared effective alphabet uniformly through a
// designated "other" column, which is sound as long as the effective
// alphabet contains every symbol mentioned by any class in the machine (see
// Determinize).
package automata

import (
	"fmt"
	"sort"

	"axml/internal/regex"
)

// State identifies a state inside one automaton.
type State int32

// NoState marks missing transitions in incomplete DFAs.
const NoState State = -1

// Edge is a transition of an NFA. Either Eps is true (an ε-move) or Cls
// describes the set of symbols the edge consumes.
type Edge struct {
	Eps bool
	Cls regex.Class
	To  State
}

// NFA is a nondeterministic finite automaton with ε-moves.
type NFA struct {
	Start  State
	Accept []bool   // Accept[s] — len(Accept) is the number of states
	Edges  [][]Edge // Edges[s] — outgoing transitions of s
}

// NewNFA returns an NFA with n states and no transitions; no state accepts.
func NewNFA(n int, start State) *NFA {
	return &NFA{Start: start, Accept: make([]bool, n), Edges: make([][]Edge, n)}
}

// Len returns the number of states.
func (a *NFA) Len() int { return len(a.Accept) }

// AddEdge adds a symbol-class transition.
func (a *NFA) AddEdge(from State, cls regex.Class, to State) {
	a.Edges[from] = append(a.Edges[from], Edge{Cls: cls, To: to})
}

// AddEps adds an ε-transition.
func (a *NFA) AddEps(from, to State) {
	a.Edges[from] = append(a.Edges[from], Edge{Eps: true, To: to})
}

// FromRegex builds the Glushkov position automaton of r: one state per leaf
// position plus a start state, no ε-moves. The automaton is deterministic
// exactly when r is one-unambiguous.
func FromRegex(r *regex.Regex) *NFA {
	info := regex.Positions(r)
	a := NewNFA(len(info.Classes)+1, 0)
	a.Accept[0] = info.Nullable
	for _, p := range info.Last {
		a.Accept[p] = true
	}
	for _, p := range info.First {
		a.AddEdge(0, info.Classes[p-1], State(p))
	}
	for i, fol := range info.Follow {
		for _, q := range fol {
			a.AddEdge(State(i+1), info.Classes[q-1], State(q))
		}
	}
	return a
}

// EpsClosure expands the state set (given as a sorted slice) with everything
// reachable through ε-moves, returning a sorted, deduplicated slice.
func (a *NFA) EpsClosure(states []State) []State {
	seen := make(map[State]bool, len(states))
	stack := append([]State(nil), states...)
	for _, s := range states {
		seen[s] = true
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range a.Edges[s] {
			if e.Eps && !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	out := make([]State, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Move returns the ε-closed successor set of states on symbol x.
func (a *NFA) Move(states []State, x regex.Symbol) []State {
	var next []State
	for _, s := range states {
		for _, e := range a.Edges[s] {
			if !e.Eps && e.Cls.Contains(x) {
				next = append(next, e.To)
			}
		}
	}
	return a.EpsClosure(next)
}

// Accepts reports whether the NFA accepts the word.
func (a *NFA) Accepts(word []regex.Symbol) bool {
	cur := a.EpsClosure([]State{a.Start})
	for _, x := range word {
		cur = a.Move(cur, x)
		if len(cur) == 0 {
			return false
		}
	}
	for _, s := range cur {
		if a.Accept[s] {
			return true
		}
	}
	return false
}

// MentionedSymbols returns the sorted set of symbols that occur in any edge
// class of the automaton (including symbols excluded by negated classes).
func (a *NFA) MentionedSymbols() []regex.Symbol {
	var all []regex.Symbol
	for _, edges := range a.Edges {
		for _, e := range edges {
			all = append(all, e.Cls.Syms...)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out := all[:0]
	for i, s := range all {
		if i == 0 || s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

func (a *NFA) String() string {
	return fmt.Sprintf("NFA{states: %d, start: %d}", a.Len(), a.Start)
}
