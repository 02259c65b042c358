package automata

import (
	"math"
	"testing"

	"axml/internal/regex"
)

// FuzzGlushkovDFA: for a parsed one-unambiguous model, the direct DFA is
// equivalent to the subset construction's and agrees with regex.Match on a
// fuzzed word; an ambiguous model is refused. For every model of at most
// maxSubsetPositions positions, ambiguous ones included, the subset
// construction and the complement also agree with regex.Match on the word.
// The word's letters are the model's own symbols and one symbol it never
// mentions. Seeds live in testdata/fuzz/FuzzGlushkovDFA: the content models
// of cmd/axml/testdata, of test fixtures and of internal/workload, E-C2's
// (a|b)*.a.(a|b)^n at n = 4 and 8 (19 positions: a seed for mutations,
// past the bound), and a pattern-expanded ambiguous model.
func FuzzGlushkovDFA(f *testing.F) {
	f.Fuzz(func(t *testing.T, model string, word []byte) {
		if len(model) > 1<<10 || len(word) > 64 {
			return
		}
		tab := regex.NewTable()
		r, err := regex.Parse(tab, model)
		if err != nil {
			return
		}
		letters := append(tab.Symbols(), regex.Symbol(tab.Len()))
		w := make([]regex.Symbol, len(word))
		for i, b := range word {
			w[i] = letters[int(b)%len(letters)]
		}
		in := regex.Match(r, w)
		if len(regex.Positions(r).Classes) <= maxSubsetPositions {
			sigma := r.Alphabet(nil)
			if Determinize(FromRegex(r), sigma).Accepts(w) != in {
				t.Fatalf("%q: the subset construction accepts %v: %t, regex.Match: %t", model, w, !in, in)
			}
			if ComplementOfRegex(r, sigma).Accepts(w) == in {
				t.Fatalf("%q: the complement accepts %v: %t, regex.Match: %t", model, w, in, in)
			}
		}
		d, ok := GlushkovDFA(r, math.MaxInt)
		if ok != regex.Deterministic(r) || ok != (d != nil) {
			t.Fatalf("%q: one-unambiguous %t, but GlushkovDFA reports %t", model, regex.Deterministic(r), ok)
		}
		if !ok {
			return
		}
		if !Equivalent(d, Determinize(FromRegex(r), r.Alphabet(nil)).Complete()) {
			t.Fatalf("%q: the direct DFA and the subset construction differ", model)
		}
		if d.Accepts(w) != in {
			t.Fatalf("%q: the direct DFA accepts %v: %t, regex.Match: %t", model, w, !in, in)
		}
	})
}

// maxSubsetPositions bounds the models whose subset construction the fuzz
// target runs: a model of n positions may ask for 2^n subsets, and at 12
// that stays within the fuzzing budget.
const maxSubsetPositions = 12
