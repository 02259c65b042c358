package automata

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"axml/internal/regex"
)

// DFA is a deterministic automaton over an explicit effective alphabet plus
// one implicit "other" column standing for every symbol outside it. The
// other column is what lets complement automata be *complete* over the
// unbounded name universe, as required by step (4) of the paper's Figure 3
// algorithm.
//
// Trans[s] has len(Alphabet)+1 entries; the last is the other column. A
// NoState entry means the transition is missing (the DFA is incomplete).
type DFA struct {
	Alphabet []regex.Symbol // sorted, deduplicated
	Start    State
	Accept   []bool
	Trans    [][]State
}

// NumStates returns the number of states.
func (d *DFA) NumStates() int { return len(d.Accept) }

// Cells returns the number of transition cells: states × (alphabet + the
// other column).
func (d *DFA) Cells() int { return len(d.Trans) * (len(d.Alphabet) + 1) }

// otherCol is the index of the implicit other column.
func (d *DFA) otherCol() int { return len(d.Alphabet) }

// Col returns the transition column for symbol x: its alphabet index, or the
// other column when x is outside the effective alphabet.
func (d *DFA) Col(x regex.Symbol) int {
	i := sort.Search(len(d.Alphabet), func(i int) bool { return d.Alphabet[i] >= x })
	if i < len(d.Alphabet) && d.Alphabet[i] == x {
		return i
	}
	return d.otherCol()
}

// Step returns the successor of s on symbol x (NoState if missing).
func (d *DFA) Step(s State, x regex.Symbol) State { return d.Trans[s][d.Col(x)] }

// Accepts reports whether the DFA accepts the word.
func (d *DFA) Accepts(word []regex.Symbol) bool {
	s := d.Start
	for _, x := range word {
		s = d.Step(s, x)
		if s == NoState {
			return false
		}
	}
	return d.Accept[s]
}

// Determinize runs the subset construction on a over the given effective
// alphabet. The alphabet is extended internally with every symbol mentioned
// by the automaton's edge classes; after that extension, all symbols outside
// the alphabet behave identically on every edge (a class either excludes
// none of them or all of them), which makes the single other column sound.
func Determinize(a *NFA, alphabet []regex.Symbol) *DFA {
	sigma := append(slices.Clone(alphabet), a.MentionedSymbols()...)
	slices.Sort(sigma)
	sigma = slices.Compact(sigma)

	d := &DFA{Alphabet: sigma}
	index := map[string]State{}
	var subsets [][]State

	intern := func(set []State) (State, bool) {
		k := subsetKey(set)
		if s, ok := index[k]; ok {
			return s, false
		}
		s := State(len(subsets))
		index[k] = s
		subsets = append(subsets, set)
		acc := false
		for _, q := range set {
			if a.Accept[q] {
				acc = true
				break
			}
		}
		d.Accept = append(d.Accept, acc)
		d.Trans = append(d.Trans, make([]State, len(sigma)+1))
		return s, true
	}

	s0, _ := intern([]State{a.Start})
	d.Start = s0
	work := []State{s0}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		set := subsets[s]
		for col := 0; col <= len(sigma); col++ {
			var next []State
			if col < len(sigma) {
				next = a.Move(set, sigma[col])
			} else {
				next = moveOther(a, set)
			}
			if len(next) == 0 {
				d.Trans[s][col] = NoState
				continue
			}
			t, fresh := intern(next)
			d.Trans[s][col] = t
			if fresh {
				work = append(work, t)
			}
		}
	}
	return d
}

// moveOther computes the successor set, sorted and deduplicated, for an
// arbitrary symbol outside Determinize's sigma: exactly the targets of
// negated-class edges (a negated class whose exceptions are all in sigma
// matches every outside symbol; positive classes match none of them).
func moveOther(a *NFA, states []State) []State {
	var next []State
	for _, s := range states {
		for _, e := range a.Edges[s] {
			if e.Cls.Negated {
				next = append(next, e.To)
			}
		}
	}
	slices.Sort(next)
	return slices.Compact(next)
}

func subsetKey(set []State) string {
	var b strings.Builder
	for _, s := range set {
		fmt.Fprintf(&b, "%d,", s)
	}
	return b.String()
}

// Complete returns a DFA accepting the same language with a total transition
// function: missing transitions are redirected to a fresh non-accepting sink
// state. If d is already complete it is returned unchanged.
func (d *DFA) Complete() *DFA {
	complete := true
outer:
	for _, row := range d.Trans {
		for _, t := range row {
			if t == NoState {
				complete = false
				break outer
			}
		}
	}
	if complete {
		return d
	}
	n := d.NumStates()
	out := &DFA{
		Alphabet: d.Alphabet,
		Start:    d.Start,
		Accept:   append(append([]bool(nil), d.Accept...), false),
		Trans:    make([][]State, n+1),
	}
	sink := State(n)
	for s := 0; s < n; s++ {
		row := append([]State(nil), d.Trans[s]...)
		for i, t := range row {
			if t == NoState {
				row[i] = sink
			}
		}
		out.Trans[s] = row
	}
	sinkRow := make([]State, len(d.Alphabet)+1)
	for i := range sinkRow {
		sinkRow[i] = sink
	}
	out.Trans[sink] = sinkRow
	return out
}

// Complement returns a complete DFA accepting exactly the words d rejects.
func (d *DFA) Complement() *DFA {
	c := d.Complete()
	acc := make([]bool, len(c.Accept))
	for i, a := range c.Accept {
		acc[i] = !a
	}
	return &DFA{Alphabet: c.Alphabet, Start: c.Start, Accept: acc, Trans: c.Trans}
}

// ComplementOfRegex builds the complete complement automaton Ā of a content
// model — step (4) of the paper's Figure 3 — in one call.
func ComplementOfRegex(r *regex.Regex, alphabet []regex.Symbol) *DFA {
	return Determinize(FromRegex(r), alphabet).Complement()
}

// DeadStates returns the states from which no accepting state is reachable.
// In a complement automaton these are exactly the "sink" accepting regions
// the lazy variant of the paper (Fig. 12) prunes at.
func (d *DFA) DeadStates() []bool {
	n := d.NumStates()
	// Build the reverse adjacency once, then BFS from accepting states.
	rev := make([][]State, n)
	for s := 0; s < n; s++ {
		for _, t := range d.Trans[s] {
			if t != NoState {
				rev[t] = append(rev[t], State(s))
			}
		}
	}
	alive := make([]bool, n)
	var queue []State
	for s := 0; s < n; s++ {
		if d.Accept[s] {
			alive[s] = true
			queue = append(queue, State(s))
		}
	}
	for len(queue) > 0 {
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, p := range rev[s] {
			if !alive[p] {
				alive[p] = true
				queue = append(queue, p)
			}
		}
	}
	dead := make([]bool, n)
	for s := range dead {
		dead[s] = !alive[s]
	}
	return dead
}

// Equivalent reports whether two DFAs accept the same language, via a
// synchronized BFS that demands acceptance agreement on every reachable
// pair (both operands are completed first).
func Equivalent(d, e *DFA) bool {
	dc, ec := d.Complete(), e.Complete()
	sigma := append(slices.Clone(dc.Alphabet), ec.Alphabet...)
	slices.Sort(sigma)
	sigma = slices.Compact(sigma)

	type pair struct{ a, b State }
	seen := map[pair]bool{}
	queue := []pair{{dc.Start, ec.Start}}
	seen[queue[0]] = true
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if dc.Accept[p.a] != ec.Accept[p.b] {
			return false
		}
		for _, x := range sigma {
			q := pair{dc.Step(p.a, x), ec.Step(p.b, x)}
			if !seen[q] {
				seen[q] = true
				queue = append(queue, q)
			}
		}
		q := pair{dc.Trans[p.a][dc.otherCol()], ec.Trans[p.b][ec.otherCol()]}
		if !seen[q] {
			seen[q] = true
			queue = append(queue, q)
		}
	}
	return true
}

func (d *DFA) String() string {
	return fmt.Sprintf("DFA{states: %d, alphabet: %d, start: %d}", d.NumStates(), len(d.Alphabet), d.Start)
}
