package automata

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"axml/internal/regex"
)

func parse(t *testing.T, tab *regex.Table, src string) *regex.Regex {
	t.Helper()
	r, err := regex.Parse(tab, src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return r
}

func word(tab *regex.Table, names ...string) []regex.Symbol {
	w := make([]regex.Symbol, len(names))
	for i, n := range names {
		w[i] = tab.Intern(n)
	}
	return w
}

func TestFromRegexAccepts(t *testing.T) {
	tab := regex.NewTable()
	r := parse(t, tab, "title.date.(Get_Temp|temp).(TimeOut|exhibit*)")
	a := FromRegex(r)
	accept := [][]string{
		{"title", "date", "Get_Temp", "TimeOut"},
		{"title", "date", "temp"},
		{"title", "date", "temp", "exhibit", "exhibit"},
	}
	reject := [][]string{
		{"title", "date"},
		{"title", "date", "temp", "exhibit", "TimeOut"},
		{},
	}
	for _, w := range accept {
		if !a.Accepts(word(tab, w...)) {
			t.Errorf("NFA should accept %v", w)
		}
	}
	for _, w := range reject {
		if a.Accepts(word(tab, w...)) {
			t.Errorf("NFA should reject %v", w)
		}
	}
}

func TestFromRegexStateCount(t *testing.T) {
	tab := regex.NewTable()
	// Glushkov: one state per leaf position plus the start state.
	r := parse(t, tab, "a.(b|c)*")
	if a := FromRegex(r); a.Len() != 4 {
		t.Errorf("states = %d want 4", a.Len())
	}
}

func TestDeterminizeMatchesNFA(t *testing.T) {
	tab := regex.NewTable()
	r := parse(t, tab, "(a|b)*.a.(a|b)") // classically blows up when determinized
	a := FromRegex(r)
	d := Determinize(a, r.Alphabet(nil))
	for _, w := range [][]string{
		{"a", "a"}, {"a", "b"}, {"b", "a", "b"}, {"b"}, {"a"}, {"b", "b", "b"}, {},
	} {
		ws := word(tab, w...)
		if d.Accepts(ws) != a.Accepts(ws) {
			t.Errorf("DFA/NFA disagree on %v", w)
		}
	}
}

func TestCompleteAndComplement(t *testing.T) {
	tab := regex.NewTable()
	r := parse(t, tab, "a.b")
	d := Determinize(FromRegex(r), r.Alphabet(nil))
	comp := d.Complement()
	for _, tc := range []struct {
		w    []string
		want bool
	}{
		{[]string{"a", "b"}, false},
		{[]string{"a"}, true},
		{[]string{"b", "a"}, true},
		{[]string{}, true},
		{[]string{"a", "b", "a"}, true},
	} {
		if got := comp.Accepts(word(tab, tc.w...)); got != tc.want {
			t.Errorf("complement accepts %v = %v want %v", tc.w, got, tc.want)
		}
	}
	// Complement must be complete: every state has every transition.
	for s, row := range comp.Trans {
		for col, to := range row {
			if to == NoState {
				t.Fatalf("complement incomplete at state %d col %d", s, col)
			}
		}
	}
}

func TestComplementHandlesUnknownSymbols(t *testing.T) {
	tab := regex.NewTable()
	r := parse(t, tab, "a")
	comp := ComplementOfRegex(r, r.Alphabet(nil))
	// A symbol never seen during construction must be handled (other column).
	z := tab.Intern("zebra")
	if !comp.Accepts([]regex.Symbol{z}) {
		t.Error("complement should accept unknown symbol word")
	}
	if comp.Accepts(word(tab, "a")) {
		t.Error("complement should reject 'a'")
	}
}

func TestWildcardDeterminization(t *testing.T) {
	tab := regex.NewTable()
	r := parse(t, tab, "a.~!(a|b)")
	d := Determinize(FromRegex(r), r.Alphabet(nil))
	c := tab.Intern("c")
	a := tab.Intern("a")
	if !d.Accepts([]regex.Symbol{a, c}) {
		t.Error("should accept a.c")
	}
	if d.Accepts([]regex.Symbol{a, a}) {
		t.Error("should reject a.a")
	}
	if !d.Accepts([]regex.Symbol{a, tab.Intern("later-interned")}) {
		t.Error("should accept fresh symbol under wildcard")
	}
}

// TestIsEmptyAndDeadStates: a language is empty exactly when its DFA's
// start state is dead; the complement of a.b has no dead state, and the
// completed DFA of a.b has a dead sink.
func TestIsEmptyAndDeadStates(t *testing.T) {
	tab := regex.NewTable()
	ra := parse(t, tab, "a.b")
	da := Determinize(FromRegex(ra), ra.Alphabet(nil))
	if da.DeadStates()[da.Start] {
		t.Error("non-empty language reported empty")
	}
	all := ComplementOfRegex(regex.Star(regex.Any()), ra.Alphabet(nil))
	if !all.DeadStates()[all.Start] {
		t.Error("the complement of every word should be empty")
	}
	comp := da.Complement()
	dead := comp.DeadStates()
	any := false
	for _, d := range dead {
		any = any || d
	}
	if any {
		t.Error("a complement of a non-universal language has no dead states")
	}
	// In the original completed DFA, the sink is dead.
	completed := da.Complete()
	dead = completed.DeadStates()
	count := 0
	for _, d := range dead {
		if d {
			count++
		}
	}
	if count == 0 {
		t.Error("completed a.b DFA should have dead sink states")
	}
}

func TestEquivalent(t *testing.T) {
	tab := regex.NewTable()
	pairs := []struct {
		x, y string
		want bool
	}{
		{"a|b", "b|a", true},
		{"(a.b)*", "()|a.b.(a.b)*", true},
		{"a*", "a*.a*", true},
		{"a", "a|b", false},
		{"a.b", "a.b.a?", false},
		{"~", "a|b", false}, // wildcard admits unknown symbols
	}
	for _, tc := range pairs {
		rx, ry := parse(t, tab, tc.x), parse(t, tab, tc.y)
		dx := Determinize(FromRegex(rx), rx.Alphabet(nil))
		dy := Determinize(FromRegex(ry), ry.Alphabet(nil))
		if got := Equivalent(dx, dy); got != tc.want {
			t.Errorf("Equivalent(%q, %q) = %v want %v", tc.x, tc.y, got, tc.want)
		}
	}
}

func TestMinimize(t *testing.T) {
	tab := regex.NewTable()
	r := parse(t, tab, "(a|b)*.a.(a|b)")
	d := Determinize(FromRegex(r), r.Alphabet(nil))
	m := d.Minimize()
	if !Equivalent(d, m) {
		t.Fatal("minimized DFA not equivalent")
	}
	if m.NumStates() > d.Complete().NumStates() {
		t.Errorf("minimize grew the machine: %d > %d", m.NumStates(), d.NumStates())
	}
	// The canonical minimal DFA for (a|b)*a(a|b) has 4 states + sink = 5
	// complete states over {a,b} plus the other column behavior.
	if m.NumStates() > 8 {
		t.Errorf("minimal machine suspiciously large: %d", m.NumStates())
	}
	// Idempotence.
	if m2 := m.Minimize(); m2.NumStates() != m.NumStates() {
		t.Errorf("Minimize not idempotent: %d then %d", m.NumStates(), m2.NumStates())
	}
}

func TestMinimizeUniform(t *testing.T) {
	tab := regex.NewTable()
	r := parse(t, tab, "~*") // universal language
	d := Determinize(FromRegex(r), nil)
	m := d.Minimize()
	if m.NumStates() != 1 {
		t.Errorf("universal language should minimize to 1 state, got %d", m.NumStates())
	}
	if !m.Accepts(word(tab, "anything", "goes")) {
		t.Error("universal language rejects a word")
	}
}

// Property: determinization preserves the language.
func TestQuickDeterminizePreservesLanguage(t *testing.T) {
	tab := regex.NewTable()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRegex(rng, tab, 4)
		a := FromRegex(r)
		d := Determinize(a, r.Alphabet(nil))
		for i := 0; i < 10; i++ {
			w := randomWord(rng, tab, 6)
			if a.Accepts(w) != d.Accepts(w) {
				return false
			}
			if regex.Match(r, w) != d.Accepts(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the complement law — w ∈ L(Ā) iff w ∉ L(A).
func TestQuickComplementLaw(t *testing.T) {
	tab := regex.NewTable()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRegex(rng, tab, 4)
		comp := ComplementOfRegex(r, r.Alphabet(nil))
		for i := 0; i < 10; i++ {
			w := randomWord(rng, tab, 6)
			if regex.Match(r, w) == comp.Accepts(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Minimize preserves the language and never grows state count.
func TestQuickMinimize(t *testing.T) {
	tab := regex.NewTable()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRegex(rng, tab, 4)
		d := Determinize(FromRegex(r), r.Alphabet(nil))
		m := d.Minimize()
		return Equivalent(d, m) && m.NumStates() <= d.Complete().NumStates()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: GlushkovDFA builds a DFA exactly for the one-unambiguous
// expressions, and that DFA, built with no subset construction, is
// equivalent to the completed subset construction and agrees with
// regex.Match, also on a symbol the expression never mentions. Leaves
// include the wildcard and negated classes. A cell bound one below the
// DFA's cells refuses it.
func TestQuickGlushkovDFA(t *testing.T) {
	tab := regex.NewTable()
	names := []string{"a", "b", "c", "z"} // z occurs in no expression
	syms := make([]regex.Symbol, len(names))
	for i, n := range names {
		syms[i] = tab.Intern(n)
	}
	var leaf func(rng *rand.Rand) *regex.Regex
	leaf = func(rng *rand.Rand) *regex.Regex {
		switch rng.Intn(6) {
		case 0:
			return regex.Any()
		case 1:
			return regex.ClassOf(regex.NewClass(true, syms[rng.Intn(3)]))
		default:
			return regex.Sym(syms[rng.Intn(3)])
		}
	}
	var gen func(rng *rand.Rand, depth int) *regex.Regex
	gen = func(rng *rand.Rand, depth int) *regex.Regex {
		if depth <= 0 || rng.Intn(4) == 0 {
			return leaf(rng)
		}
		switch rng.Intn(4) {
		case 0:
			return regex.Concat(gen(rng, depth-1), gen(rng, depth-1))
		case 1:
			return regex.Alt(gen(rng, depth-1), gen(rng, depth-1))
		case 2:
			return regex.Star(gen(rng, depth-1))
		default:
			return regex.Opt(gen(rng, depth-1))
		}
	}
	built, refused := 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := gen(rng, 4)
		d, ok := GlushkovDFA(r, math.MaxInt)
		if ok != regex.Deterministic(r) || ok != (d != nil) {
			t.Logf("%s: one-unambiguous %t, GlushkovDFA %t", r.String(tab), regex.Deterministic(r), ok)
			return false
		}
		if !ok {
			refused++
			return true
		}
		built++
		if len(d.Trans) != len(regex.Positions(r).Classes)+1 {
			t.Logf("%s: %d states for %d positions", r.String(tab), len(d.Trans), len(regex.Positions(r).Classes))
			return false
		}
		if e, ok := GlushkovDFA(r, d.Cells()-1); ok || e != nil {
			t.Logf("%s: built past a bound of %d cells", r.String(tab), d.Cells()-1)
			return false
		}
		if !Equivalent(d, Determinize(FromRegex(r), r.Alphabet(nil)).Complete()) {
			t.Logf("%s: not equivalent to the subset construction", r.String(tab))
			return false
		}
		for i := 0; i < 10; i++ {
			w := make([]regex.Symbol, rng.Intn(7))
			for j := range w {
				w[j] = syms[rng.Intn(len(syms))]
			}
			if d.Accepts(w) != regex.Match(r, w) {
				t.Logf("%s: DFA and regex.Match disagree on %v", r.String(tab), w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Error(err)
	}
	if built < 100 || refused < 100 {
		t.Errorf("the generator built %d DFAs and refused %d expressions; both should be common", built, refused)
	}
}

func randomRegex(rng *rand.Rand, tab *regex.Table, depth int) *regex.Regex {
	syms := []string{"a", "b", "c"}
	if depth <= 0 || rng.Intn(4) == 0 {
		return regex.Sym(tab.Intern(syms[rng.Intn(len(syms))]))
	}
	switch rng.Intn(4) {
	case 0:
		return regex.Concat(randomRegex(rng, tab, depth-1), randomRegex(rng, tab, depth-1))
	case 1:
		return regex.Alt(randomRegex(rng, tab, depth-1), randomRegex(rng, tab, depth-1))
	case 2:
		return regex.Star(randomRegex(rng, tab, depth-1))
	default:
		return regex.Opt(randomRegex(rng, tab, depth-1))
	}
}

func randomWord(rng *rand.Rand, tab *regex.Table, maxLen int) []regex.Symbol {
	syms := []string{"a", "b", "c"}
	n := rng.Intn(maxLen + 1)
	w := make([]regex.Symbol, n)
	for i := range w {
		w[i] = tab.Intern(syms[rng.Intn(len(syms))])
	}
	return w
}

func BenchmarkDeterminizeDeterministic(b *testing.B) {
	tab := regex.NewTable()
	r := regex.MustParse(tab, "title.date.(Get_Temp|temp).(TimeOut|exhibit*)")
	a := FromRegex(r)
	sigma := r.Alphabet(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Determinize(a, sigma)
	}
}

// TestComplementAllocBudget: each successor set of the subset construction
// costs its own slice and nothing more, so the complement of
// BenchmarkComplement's model takes at most 80 allocations.
func TestComplementAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not held under -race")
	}
	tab := regex.NewTable()
	r := regex.MustParse(tab, "title.date.temp.(TimeOut|exhibit*)")
	sigma := r.Alphabet(nil)
	if n := testing.AllocsPerRun(20, func() { ComplementOfRegex(r, sigma) }); n > 80 {
		t.Errorf("ComplementOfRegex allocates %v times, want at most 80", n)
	}
}

func BenchmarkComplement(b *testing.B) {
	tab := regex.NewTable()
	r := regex.MustParse(tab, "title.date.temp.(TimeOut|exhibit*)")
	sigma := r.Alphabet(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ComplementOfRegex(r, sigma)
	}
}
