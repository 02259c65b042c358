package automata

import (
	"math"
	"testing"

	"axml/internal/regex"
)

// FuzzGlushkovDFA: for a parsed one-unambiguous model, the direct DFA is
// equivalent to the subset construction's and agrees with regex.Match on a
// fuzzed word; an ambiguous model is refused. The word's letters are the
// model's own symbols and one symbol it never mentions. Seeds live in
// testdata/fuzz/FuzzGlushkovDFA: the content models of cmd/axml/testdata,
// of test fixtures and of internal/workload.
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
		letters := append(tab.Symbols(), regex.Symbol(tab.Len()))
		w := make([]regex.Symbol, len(word))
		for i, b := range word {
			w[i] = letters[int(b)%len(letters)]
		}
		if d.Accepts(w) != regex.Match(r, w) {
			t.Fatalf("%q: the direct DFA accepts %v: %t, regex.Match: %t", model, w, d.Accepts(w), regex.Match(r, w))
		}
	})
}
