package automata

import (
	"slices"

	"axml/internal/regex"
)

// GlushkovDFA builds the DFA of a one-unambiguous expression straight from
// its Glushkov positions (regex.Positions), with no subset construction. It
// reports false, building nothing, when r is not one-unambiguous
// (regex.Deterministic): the Glushkov automaton of r then has two competing
// edges whose classes overlap, and only Determinize can merge them. It also
// reports false, building nothing, when the DFA would have more than
// maxCells cells.
//
// For a one-unambiguous r the position automaton FromRegex builds is
// already deterministic: from every state, at most one successor position
// matches a given symbol. Its states are the start state 0 and the
// positions 1..n; its alphabet is the symbols r's classes mention,
// including the exclusions of negated classes, so every other symbol
// behaves alike on every edge and takes the other column. The result has
// (n+1) × (len(Alphabet)+1) cells carved from one backing array, accepts
// L(r), and is incomplete: a missing move is NoState.
func GlushkovDFA(r *regex.Regex, maxCells int) (*DFA, bool) {
	info := regex.Positions(r)
	var sigma []regex.Symbol
	for _, cls := range info.Classes {
		sigma = append(sigma, cls.Syms...)
	}
	slices.Sort(sigma)
	sigma = slices.Compact(sigma)
	// Positions and symbols are each bounded by the model's size, so the
	// product cannot overflow.
	if (len(info.Classes)+1)*(len(sigma)+1) > maxCells || !regex.Deterministic(r) {
		return nil, false
	}

	n, cols := len(info.Classes)+1, len(sigma)+1
	cells := make([]State, n*cols)
	for i := range cells {
		cells[i] = NoState
	}
	d := &DFA{Alphabet: sigma, Accept: make([]bool, n), Trans: make([][]State, n)}
	d.Accept[0] = info.Nullable
	for _, p := range info.Last {
		d.Accept[p] = true
	}
	for s := range d.Trans {
		row := cells[s*cols : (s+1)*cols : (s+1)*cols]
		succ := info.First
		if s > 0 {
			succ = info.Follow[s-1]
		}
		// One-unambiguity makes the successors' classes pairwise disjoint,
		// so no cell is written twice.
		for _, q := range succ {
			cls := info.Classes[q-1]
			if !cls.Negated {
				for _, x := range cls.Syms {
					row[d.Col(x)] = State(q)
				}
				continue
			}
			for col, x := range sigma {
				if cls.Contains(x) {
					row[col] = State(q)
				}
			}
			row[cols-1] = State(q)
		}
		d.Trans[s] = row
	}
	return d, true
}
