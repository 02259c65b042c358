package regex

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// pairwiseDeterministic is the one-unambiguity check by definition: no two
// competing positions of any state have overlapping classes.
func pairwiseDeterministic(r *Regex) bool {
	info := Positions(r)
	disjoint := func(positions []int) bool {
		for i := 0; i < len(positions); i++ {
			for j := i + 1; j < len(positions); j++ {
				if info.Classes[positions[i]-1].Overlaps(info.Classes[positions[j]-1]) {
					return false
				}
			}
		}
		return true
	}
	if !disjoint(info.First) {
		return false
	}
	for _, fol := range info.Follow {
		if !disjoint(fol) {
			return false
		}
	}
	return true
}

// pairwiseAmbiguities is Ambiguities by definition: the first overlapping
// pair of every state, in position order.
func pairwiseAmbiguities(r *Regex) []Class {
	info := Positions(r)
	var out []Class
	collect := func(positions []int) {
		for i := 0; i < len(positions); i++ {
			for j := i + 1; j < len(positions); j++ {
				a, b := info.Classes[positions[i]-1], info.Classes[positions[j]-1]
				if a.Overlaps(b) {
					out = append(out, a, b)
					return
				}
			}
		}
	}
	collect(info.First)
	for _, fol := range info.Follow {
		collect(fol)
	}
	return out
}

// randClassRegex is randRegex whose leaves are also symbol classes:
// positive sets of one to three symbols, and negated ones excluding up to
// three, over an alphabet of six names.
func randClassRegex(rng *rand.Rand, tab *Table, depth int) *Regex {
	names := []string{"a", "b", "c", "d", "e", "f"}
	syms := func(n int) []Symbol {
		out := make([]Symbol, n)
		for i := range out {
			out[i] = tab.Intern(names[rng.Intn(len(names))])
		}
		return out
	}
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(8) {
		case 0:
			return Empty()
		case 1:
			return ClassOf(NewClass(false, syms(1+rng.Intn(3))...))
		case 2:
			return ClassOf(NewClass(true, syms(rng.Intn(4))...))
		default:
			return Sym(tab.Intern(names[rng.Intn(len(names))]))
		}
	}
	switch rng.Intn(4) {
	case 0:
		return Concat(randClassRegex(rng, tab, depth-1), randClassRegex(rng, tab, depth-1))
	case 1:
		return Alt(randClassRegex(rng, tab, depth-1), randClassRegex(rng, tab, depth-1))
	case 2:
		return Star(randClassRegex(rng, tab, depth-1))
	default:
		return Opt(randClassRegex(rng, tab, depth-1))
	}
}

// Property: the indexed one-unambiguity check decides what the pairwise
// check decides, and Ambiguities reports the pairs the pairwise scan
// reports, on random expressions over symbols and classes.
func TestQuickDeterministicAgreesWithPairwise(t *testing.T) {
	tab := NewTable()
	seen := [2]int{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randClassRegex(rng, tab, 5)
		want := pairwiseDeterministic(r)
		if want {
			seen[1]++
		} else {
			seen[0]++
		}
		if Deterministic(r) != want {
			t.Logf("%s: pairwise %t", r.String(tab), want)
			return false
		}
		if got, want := Ambiguities(r), pairwiseAmbiguities(r); !reflect.DeepEqual(got, want) {
			t.Logf("%s: Ambiguities %v, pairwise %v", r.String(tab), got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Errorf("generator produced %d ambiguous and %d one-unambiguous expressions; want both", seen[0], seen[1])
	}
}

// starredChoice is (x0|x1|...|x(n-1))*, the model of a receiver element
// that admits any number of n distinct refs: each of its n positions
// follows every other, so every state competes n positions.
func starredChoice(tab *Table, n int) *Regex {
	alts := make([]*Regex, n)
	for i := range alts {
		alts[i] = Sym(tab.Intern(fmt.Sprint("x", i)))
	}
	return Star(Alt(alts...))
}

// TestDeterministicWideChoiceIsFast holds the one-unambiguity check of a
// starred choice of 800 refs, a 17 KB receiver body, under 50 ms. The
// pairwise check compares n²/2 pairs in each of the n+1 states, 2.6×10⁸
// overlap tests here, and took about a second. The bound is not held
// under the race detector, which slows the check several times over.
func TestDeterministicWideChoiceIsFast(t *testing.T) {
	tab := NewTable()
	r := starredChoice(tab, 800)
	Positions(r) // the follow sets are built once, outside the bound
	start := time.Now()
	ok := Deterministic(r)
	elapsed := time.Since(start)
	if !ok {
		t.Fatal("a starred choice of distinct refs is one-unambiguous")
	}
	if elapsed > 50*time.Millisecond && !raceEnabled {
		t.Errorf("Deterministic on a starred choice of 800 refs took %v, want under 50ms", elapsed)
	}
	if Deterministic(Concat(r, Sym(tab.Intern("x799")))) {
		t.Error("a starred choice followed by one of its refs is one-ambiguous")
	}
}
