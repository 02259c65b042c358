package core

import (
	"testing"

	"axml/internal/regex"
	"axml/internal/schema"
)

// paperCompiled builds the Compiled pair for the paper's running example:
// sender schema (*) with the newspaper content model, used against varying
// targets.
func paperCompiled(t testing.TB) *Compiled {
	t.Helper()
	s := schema.MustParseText(`
root newspaper
elem newspaper = title.date.(Get_Temp|temp).(TimeOut|exhibit*)
elem title = data
elem date = data
elem temp = data
elem city = data
elem exhibit = title.(Get_Date|date)
func Get_Temp = city -> temp
func TimeOut = data -> (exhibit|performance)*
func Get_Date = title -> date
`, nil)
	return Compile(s, s)
}

// paperWord is w = title.date.Get_Temp.TimeOut (the children of the Figure 2
// newspaper root).
func paperWord(c *Compiled) []Token {
	return WordTokens([]regex.Symbol{
		c.Table.Intern("title"),
		c.Table.Intern("date"),
		c.Table.Intern("Get_Temp"),
		c.Table.Intern("TimeOut"),
	})
}

func mustTarget(t testing.TB, c *Compiled, src string) *regex.Regex {
	t.Helper()
	r, err := regex.Parse(c.Table, src)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFig4ForkAutomaton checks the structure and language of A_w^1 from
// Figure 4 of the paper.
func TestFig4ForkAutomaton(t *testing.T) {
	c := paperCompiled(t)
	fork, err := BuildFork(c, paperWord(c), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := fork.NumForks(); got != 2 {
		t.Errorf("forks = %d want 2 (Get_Temp and TimeOut)", got)
	}
	if got := fork.CopiesAttached; got != 2 {
		t.Errorf("copies attached = %d want 2", got)
	}
	// The language of A_w^1: all 1-depth rewritings of w.
	accepts := [][]string{
		{"title", "date", "Get_Temp", "TimeOut"},                   // no call
		{"title", "date", "temp", "TimeOut"},                       // call Get_Temp
		{"title", "date", "Get_Temp"},                              // call TimeOut -> ε
		{"title", "date", "temp", "exhibit", "performance"},        // both
		{"title", "date", "temp", "exhibit", "exhibit", "exhibit"}, // both
	}
	rejects := [][]string{
		{"title", "date", "temp", "temp"},                   // Get_Temp cannot yield 2 temps
		{"title", "date"},                                   // Get_Temp must leave something? no: it must appear as temp or Get_Temp
		{"title", "Get_Temp", "TimeOut"},                    // date missing
		{"title", "date", "Get_Temp", "TimeOut", "exhibit"}, // keep AND call
	}
	for _, w := range accepts {
		if !fork.Accepts(syms(c, w...)) {
			t.Errorf("A_w^1 should accept %v", w)
		}
	}
	for _, w := range rejects {
		if fork.Accepts(syms(c, w...)) {
			t.Errorf("A_w^1 should reject %v", w)
		}
	}
}

func syms(c *Compiled, names ...string) []regex.Symbol {
	out := make([]regex.Symbol, len(names))
	for i, n := range names {
		out[i] = c.Table.Intern(n)
	}
	return out
}

// TestFig6SafeRewrite: w safely rewrites into schema (**)'s newspaper model
// title.date.temp.(TimeOut|exhibit*) — Figure 6's unmarked initial state.
func TestFig6SafeRewrite(t *testing.T) {
	c := paperCompiled(t)
	target := mustTarget(t, c, "title.date.temp.(TimeOut|exhibit*)")
	a, err := AnalyzeSafe(c, paperWord(c), target, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Safe() {
		t.Fatal("Figure 6: rewriting into (**) should be safe")
	}
	// The analysis must contain the two fork decision points.
	forks := 0
	for _, gs := range a.Groups {
		for _, g := range gs {
			if g.Fork {
				forks++
			}
		}
	}
	if forks == 0 {
		t.Error("no fork groups in the product")
	}
}

// TestFig8NoSafeRewrite: rewriting into (***) title.date.temp.exhibit* is
// NOT safe — TimeOut may return performances (Figure 8: both fork options
// marked).
func TestFig8NoSafeRewrite(t *testing.T) {
	c := paperCompiled(t)
	target := mustTarget(t, c, "title.date.temp.exhibit*")
	a, err := AnalyzeSafe(c, paperWord(c), target, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Safe() {
		t.Fatal("Figure 8: rewriting into (***) must not be safe")
	}
}

// TestFig11PossibleRewrite: rewriting into (***) IS possible — if TimeOut
// happens to return only exhibits.
func TestFig11PossibleRewrite(t *testing.T) {
	c := paperCompiled(t)
	target := mustTarget(t, c, "title.date.temp.exhibit*")
	a, err := AnalyzePossible(c, paperWord(c), target, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Possible() {
		t.Fatal("Figure 11: rewriting into (***) should be possible")
	}
	// And something impossible stays impossible: two temps can never arise.
	impossible := mustTarget(t, c, "title.date.temp.temp")
	a2, err := AnalyzePossible(c, paperWord(c), impossible, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Possible() {
		t.Error("two temps should be impossible")
	}
}

// TestSafeImpliesPossible on the paper instances.
func TestSafeImpliesPossibleOnPaper(t *testing.T) {
	c := paperCompiled(t)
	for _, target := range []string{
		"title.date.temp.(TimeOut|exhibit*)",
		"title.date.temp.exhibit*",
		"title.date.(Get_Temp|temp).(TimeOut|exhibit*)",
		"title.date.temp.temp",
	} {
		r := mustTarget(t, c, target)
		safe, err := WordSafe(c, paperWord(c), r, 1)
		if err != nil {
			t.Fatal(err)
		}
		possible, err := WordPossible(c, paperWord(c), r, 1)
		if err != nil {
			t.Fatal(err)
		}
		if safe && !possible {
			t.Errorf("target %q: safe but not possible", target)
		}
	}
}

// TestAlreadyInstanceIsSafe: a word already in the target language is safely
// rewritable with zero calls.
func TestAlreadyInstanceIsSafe(t *testing.T) {
	c := paperCompiled(t)
	target := mustTarget(t, c, "title.date.(Get_Temp|temp).(TimeOut|exhibit*)")
	safe, err := WordSafe(c, paperWord(c), target, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !safe {
		t.Error("an instance should be safe as-is")
	}
	// Even with k = 0 (no invocations allowed).
	safe0, err := WordSafe(c, paperWord(c), target, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !safe0 {
		t.Error("an instance should be safe with k=0")
	}
}

// TestKDepthMatters: materializing exhibits' dates requires depth 2 — the
// exhibits only appear after TimeOut is called, and their Get_Date calls are
// depth-2 invocations.
func TestKDepthMatters(t *testing.T) {
	c := paperCompiled(t)
	// Target: fully materialized newspaper — no function nodes anywhere at
	// the top level; exhibits themselves may carry Get_Date (checked at the
	// element level, not here). Here: temp then exhibits or performances.
	target := mustTarget(t, c, "title.date.temp.(exhibit|performance)*")
	// k=1: call Get_Temp and TimeOut. TimeOut returns exhibit|performance
	// roots directly, so depth 1 suffices at the word level.
	safe, err := WordSafe(c, paperWord(c), target, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !safe {
		t.Error("k=1 should suffice for the word level here")
	}
	// k=0 cannot: Get_Temp must be invoked to produce temp.
	safe0, err := WordSafe(c, paperWord(c), target, 0)
	if err != nil {
		t.Fatal(err)
	}
	if safe0 {
		t.Error("k=0 cannot materialize temp")
	}
}

// TestRecursiveDepth exercises a Get_More-style recursive service: output
// contains the function itself; reaching a flat list needs higher k.
func TestRecursiveDepth(t *testing.T) {
	s := schema.MustParseText(`
elem results = url*.Get_More?
elem url = data
func Get_More = data -> url*.Get_More?
`, nil)
	c := Compile(s, s)
	w := WordTokens([]regex.Symbol{c.Table.Intern("url"), c.Table.Intern("Get_More")})
	flat := regex.MustParse(c.Table, "url*")
	for k := 0; k <= 3; k++ {
		safe, err := WordSafe(c, w, flat, k)
		if err != nil {
			t.Fatal(err)
		}
		if safe {
			t.Errorf("k=%d: flattening a recursive handle can never be safe (the handle may always return another handle)", k)
		}
		possible, err := WordPossible(c, w, flat, k)
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 && possible {
			t.Error("k=0: cannot be possible, the handle must be called")
		}
		if k >= 1 && !possible {
			t.Errorf("k=%d: should be possible (handle may return only urls)", k)
		}
	}
}

// TestNonInvocableBlocksSafety: if Get_Temp is non-invocable, rewriting into
// (**) is no longer safe (the §2.1 legal-rewriting restriction).
func TestNonInvocableBlocksSafety(t *testing.T) {
	s := schema.MustParseText(`
elem newspaper = title.date.(Get_Temp|temp).(TimeOut|exhibit*)
elem title = data
elem date = data
elem temp = data
elem city = data
elem exhibit = title.date
func Get_Temp = city -> temp {noninvoke}
func TimeOut = data -> (exhibit|performance)*
`, nil)
	c := Compile(s, s)
	w := WordTokens(syms(c, "title", "date", "Get_Temp", "TimeOut"))
	target := regex.MustParse(c.Table, "title.date.temp.(TimeOut|exhibit*)")
	safe, err := WordSafe(c, w, target, 1)
	if err != nil {
		t.Fatal(err)
	}
	if safe {
		t.Error("non-invocable Get_Temp cannot be materialized: not safe")
	}
	possible, err := WordPossible(c, w, target, 1)
	if err != nil {
		t.Fatal(err)
	}
	if possible {
		t.Error("not even possible without invoking Get_Temp")
	}
}

// TestFrozenToken: freezing a token suppresses its call option.
func TestFrozenToken(t *testing.T) {
	c := paperCompiled(t)
	tokens := paperWord(c)
	tokens[2].Frozen = true // freeze Get_Temp
	target := mustTarget(t, c, "title.date.temp.(TimeOut|exhibit*)")
	safe, err := WordSafe(c, tokens, target, 1)
	if err != nil {
		t.Fatal(err)
	}
	if safe {
		t.Error("frozen Get_Temp cannot become temp")
	}
}

// TestLazyAgreesOnPaper: lazy and eager verdicts coincide on the paper's
// figures, and lazy explores no more states than eager (Figure 12's claim).
func TestLazyAgreesOnPaper(t *testing.T) {
	c := paperCompiled(t)
	for _, tc := range []struct {
		target string
		k      int
	}{
		{"title.date.temp.(TimeOut|exhibit*)", 1},
		{"title.date.temp.exhibit*", 1},
		{"title.date.(Get_Temp|temp).(TimeOut|exhibit*)", 1},
		{"title.date.temp.temp", 1},
		{"title.date.temp.(exhibit|performance)*", 2},
	} {
		target := mustTarget(t, c, tc.target)
		eager, err := AnalyzeSafe(c, paperWord(c), target, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := LazySafe(c, paperWord(c), target, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if eager.Safe() != lazy.Verdict {
			t.Errorf("target %q k=%d: eager=%v lazy=%v", tc.target, tc.k, eager.Safe(), lazy.Verdict)
		}
		possEager, err := AnalyzePossible(c, paperWord(c), target, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		possLazy, err := LazyPossible(c, paperWord(c), target, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if possEager.Possible() != possLazy.Verdict {
			t.Errorf("target %q k=%d possible: eager=%v lazy=%v", tc.target, tc.k, possEager.Possible(), possLazy.Verdict)
		}
	}
}

// TestFig12Pruning: on the Figure 6 instance the lazy variant explores
// strictly fewer product states than the eager construction, thanks to the
// sink and marked-node prunes.
func TestFig12Pruning(t *testing.T) {
	c := paperCompiled(t)
	target := mustTarget(t, c, "title.date.temp.(TimeOut|exhibit*)")
	eager, err := AnalyzeSafe(c, paperWord(c), target, 1)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := LazySafe(c, paperWord(c), target, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.StatesExplored > eager.NumProdStates() {
		t.Errorf("lazy explored %d > eager %d states", lazy.StatesExplored, eager.NumProdStates())
	}
	if lazy.SinkPrunes == 0 {
		t.Error("expected at least one sink prune on the Figure 6 instance")
	}
}
