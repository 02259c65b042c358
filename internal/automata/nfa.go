// Package automata provides the finite-automata toolkit behind the
// intensional-XML rewriting algorithms: Glushkov position automata built
// from symbolic regular expressions, the direct DFA of a one-unambiguous
// model, subset-construction determinization over an effective alphabet,
// completion, complementation, Hopcroft minimization and language-level
// equivalence. Every NFA here is a position automaton (FromRegex), so none
// has ε-moves: a successor set is just the targets of the edges that match.
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
	"slices"

	"axml/internal/regex"
)

// State identifies a state inside one automaton.
type State int32

// NoState marks missing transitions in incomplete DFAs.
const NoState State = -1

// Edge is a transition of an NFA: it consumes any symbol of Cls.
type Edge struct {
	Cls regex.Class
	To  State
}

// NFA is a nondeterministic finite automaton without ε-moves.
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

// Move returns the successor set of states on symbol x, sorted and
// deduplicated.
func (a *NFA) Move(states []State, x regex.Symbol) []State {
	var next []State
	for _, s := range states {
		for _, e := range a.Edges[s] {
			if e.Cls.Contains(x) {
				next = append(next, e.To)
			}
		}
	}
	slices.Sort(next)
	return slices.Compact(next)
}

// Accepts reports whether the NFA accepts the word.
func (a *NFA) Accepts(word []regex.Symbol) bool {
	cur := []State{a.Start}
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
	slices.Sort(all)
	return slices.Compact(all)
}

func (a *NFA) String() string {
	return fmt.Sprintf("NFA{states: %d, start: %d}", a.Len(), a.Start)
}
