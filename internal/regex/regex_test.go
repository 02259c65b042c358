package regex

import (
	"math/rand"
	"strings"
	"testing"
)

func sym(t *Table, name string) Symbol { return t.Intern(name) }

func mustParse(t *testing.T, tab *Table, src string) *Regex {
	t.Helper()
	r, err := Parse(tab, src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return r
}

func word(tab *Table, names ...string) []Symbol {
	w := make([]Symbol, len(names))
	for i, n := range names {
		w[i] = tab.Intern(n)
	}
	return w
}

func TestTableIntern(t *testing.T) {
	tab := NewTable()
	a := tab.Intern("a")
	b := tab.Intern("b")
	if a == b {
		t.Fatalf("distinct names interned to same symbol %d", a)
	}
	if got := tab.Intern("a"); got != a {
		t.Errorf("re-intern a: got %d want %d", got, a)
	}
	if got, ok := tab.Lookup("b"); !ok || got != b {
		t.Errorf("Lookup(b) = %d,%v want %d,true", got, ok, b)
	}
	if _, ok := tab.Lookup("zzz"); ok {
		t.Error("Lookup of uninterned name succeeded")
	}
	if tab.Name(a) != "a" || tab.Name(b) != "b" {
		t.Error("Name round trip failed")
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d want 2", tab.Len())
	}
}

func TestTableNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Name on foreign symbol did not panic")
		}
	}()
	NewTable().Name(3)
}

func TestClassContains(t *testing.T) {
	tab := NewTable()
	a, b, c := sym(tab, "a"), sym(tab, "b"), sym(tab, "c")
	pos := NewClass(false, b, a, a) // unsorted + duplicate input
	if !pos.Contains(a) || !pos.Contains(b) || pos.Contains(c) {
		t.Errorf("positive class membership wrong: %+v", pos)
	}
	neg := NewClass(true, a)
	if neg.Contains(a) || !neg.Contains(b) || !neg.Contains(c) {
		t.Errorf("negated class membership wrong: %+v", neg)
	}
	if !AnyClass().Contains(c) {
		t.Error("AnyClass does not contain c")
	}
	if !NewClass(false).IsEmpty() || AnyClass().IsEmpty() {
		t.Error("IsEmpty wrong")
	}
}

func TestClassOverlaps(t *testing.T) {
	tab := NewTable()
	a, b, c := sym(tab, "a"), sym(tab, "b"), sym(tab, "c")
	cases := []struct {
		x, y Class
		want bool
	}{
		{NewClass(false, a), NewClass(false, a), true},
		{NewClass(false, a), NewClass(false, b), false},
		{NewClass(false, a, b), NewClass(false, b, c), true},
		{NewClass(false, a), AnyClass(), true},
		{NewClass(false, a), NewClass(true, a), false},
		{NewClass(false, a, b), NewClass(true, a), true},
		{NewClass(true, a), NewClass(true, b), true}, // fresh symbols exist
		{NewClass(false), NewClass(false, a), false},
	}
	for i, tc := range cases {
		if got := tc.x.Overlaps(tc.y); got != tc.want {
			t.Errorf("case %d: Overlaps = %v want %v", i, got, tc.want)
		}
		if got := tc.y.Overlaps(tc.x); got != tc.want {
			t.Errorf("case %d: Overlaps not symmetric", i)
		}
	}
}

func TestConstructorCanonicalForm(t *testing.T) {
	tab := NewTable()
	a, b := Sym(sym(tab, "a")), Sym(sym(tab, "b"))

	if got := Concat(a, Empty(), b); got.Op != OpConcat || len(got.Subs) != 2 {
		t.Errorf("Concat did not drop ε: %v", got.String(tab))
	}
	if got := Concat(a, Never(), b); !got.IsNever() {
		t.Errorf("Concat did not absorb ∅")
	}
	if got := Concat(Concat(a, b), a); len(got.Subs) != 3 {
		t.Errorf("Concat did not flatten")
	}
	if got := Concat(); got != Empty() {
		t.Errorf("Concat() != ε")
	}
	if got := Alt(a, Never(), a); got != a {
		t.Errorf("Alt dedup/∅-drop failed: %v", got.String(tab))
	}
	if got := Alt(); !got.IsNever() {
		t.Errorf("Alt() != ∅")
	}
	if got := Alt(Alt(a, b), b); len(got.Subs) != 2 {
		t.Errorf("Alt flatten+dedup failed")
	}
	if got := Star(Star(a)); got.Op != OpStar || got.Subs[0] != a {
		t.Errorf("Star(Star) not collapsed")
	}
	if Star(Empty()) != Empty() || Star(Never()) != Empty() {
		t.Errorf("Star of trivial languages wrong")
	}
	if got := ClassOf(NewClass(false)); !got.IsNever() {
		t.Errorf("empty class not normalized to ∅")
	}
}

func TestRepeat(t *testing.T) {
	tab := NewTable()
	a := tab.Intern("a")
	r := Repeat(Sym(a), 2, 4)
	for n := 0; n <= 6; n++ {
		w := make([]Symbol, n)
		for i := range w {
			w[i] = a
		}
		want := n >= 2 && n <= 4
		if got := Match(r, w); got != want {
			t.Errorf("a{2,4} match a^%d = %v want %v", n, got, want)
		}
	}
	r = Repeat(Sym(a), 1, Unbounded)
	if Match(r, nil) || !Match(r, []Symbol{a, a, a}) {
		t.Error("a{1,} wrong")
	}
	r = Repeat(Sym(a), 0, 0)
	if !Match(r, nil) || Match(r, []Symbol{a}) {
		t.Error("a{0,0} should be ε")
	}
	if !Deterministic(Repeat(Sym(a), 0, 3)) {
		t.Error("a{0,3} in nested-option form should be deterministic")
	}
}

func TestRepeatPanics(t *testing.T) {
	tab := NewTable()
	a := Sym(tab.Intern("a"))
	for _, bounds := range [][2]int{{-1, 2}, {3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Repeat%v did not panic", bounds)
				}
			}()
			Repeat(a, bounds[0], bounds[1])
		}()
	}
}

func TestParsePaperExamples(t *testing.T) {
	tab := NewTable()
	// The three newspaper content models from the paper.
	for _, src := range []string{
		"title.date.(Get_Temp|temp).(TimeOut|exhibit*)",
		"title.date.temp.(TimeOut|exhibit*)",
		"title.date.temp.exhibit*",
		"(exhibit|performance)*",
		"title.(Get_Date|date)",
	} {
		r := mustParse(t, tab, src)
		round := mustParse(t, tab, r.String(tab))
		if !r.Equal(round) {
			t.Errorf("%q: print/parse round trip changed expression: %q", src, r.String(tab))
		}
	}
}

func TestParseMatchesSemantics(t *testing.T) {
	tab := NewTable()
	r := mustParse(t, tab, "title.date.(Get_Temp|temp).(TimeOut|exhibit*)")
	accept := [][]string{
		{"title", "date", "Get_Temp", "TimeOut"},
		{"title", "date", "temp", "TimeOut"},
		{"title", "date", "temp"},
		{"title", "date", "temp", "exhibit", "exhibit"},
	}
	reject := [][]string{
		{"title", "date"},
		{"date", "title", "temp"},
		{"title", "date", "temp", "TimeOut", "TimeOut"},
		{"title", "date", "temp", "exhibit", "performance"},
	}
	for _, w := range accept {
		if !Match(r, word(tab, w...)) {
			t.Errorf("should accept %v", w)
		}
	}
	for _, w := range reject {
		if Match(r, word(tab, w...)) {
			t.Errorf("should reject %v", w)
		}
	}
}

func TestParseSugarAndClasses(t *testing.T) {
	tab := NewTable()
	a, b, c := sym(tab, "a"), sym(tab, "b"), sym(tab, "c")

	r := mustParse(t, tab, "a+")
	if !Match(r, []Symbol{a}) || !Match(r, []Symbol{a, a}) || Match(r, nil) {
		t.Error("a+ semantics wrong")
	}
	r = mustParse(t, tab, "a?")
	if !Match(r, nil) || !Match(r, []Symbol{a}) || Match(r, []Symbol{a, a}) {
		t.Error("a? semantics wrong")
	}
	r = mustParse(t, tab, "()")
	if r != Empty() {
		t.Error("() should parse to ε")
	}
	r = mustParse(t, tab, "~")
	if !Match(r, []Symbol{c}) || Match(r, nil) {
		t.Error("~ semantics wrong")
	}
	r = mustParse(t, tab, "~!(a|b)")
	if Match(r, []Symbol{a}) || Match(r, []Symbol{b}) || !Match(r, []Symbol{c}) {
		t.Error("~!(a|b) semantics wrong")
	}
	r = mustParse(t, tab, "a{2,}")
	if Match(r, []Symbol{a}) || !Match(r, []Symbol{a, a, a}) {
		t.Error("a{2,} semantics wrong")
	}
	r = mustParse(t, tab, "a{2}")
	if !Match(r, []Symbol{a, a}) || Match(r, []Symbol{a, a, a}) {
		t.Error("a{2} semantics wrong")
	}
}

func TestParseErrors(t *testing.T) {
	tab := NewTable()
	for _, src := range []string{
		"", "(", "a|", "a..b", "a)", "a{", "a{2", "a{3,2}", "a{x}",
		"~!(a", "~!()", "*", "|a", "a b", "a{2,3", "a%",
	} {
		if _, err := Parse(tab, src); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		}
	}
}

// TestParseBoundsExpansion: repetition is expanded, so Parse refuses an
// expression beyond maxPositions positions before building it, whether a
// single bound, nested repetition or a concatenation asks for it, and
// accepts one at the bound.
func TestParseBoundsExpansion(t *testing.T) {
	tab := NewTable()
	for _, src := range []string{
		"a{4097}", "a{4097,}", "a{4096,}", "(){999999999}", "a{0,9223372036854775807}",
		"(a.b){2049}", "((((((((((((a+)+)+)+)+)+)+)+)+)+)+)+)+", "a{3000}.b{3000}", "a{3000}|b{3000}",
	} {
		if _, err := Parse(tab, src); err == nil || !strings.Contains(err.Error(), "positions") {
			t.Errorf("Parse(%q) = %v, want a refusal beyond %d positions", src, err, maxPositions)
		}
	}
	for _, src := range []string{"a{4096}", "(a.b){2048}", "a{2048}.(b|c){1024}", "a{4095,}"} {
		r, err := Parse(tab, src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if n := len(Positions(r).Classes); n > maxPositions {
			t.Errorf("Parse(%q) has %d positions", src, n)
		}
	}
}

func TestKeyCanonicalization(t *testing.T) {
	tab := NewTable()
	a, b := Sym(sym(tab, "a")), Sym(sym(tab, "b"))
	if Alt(a, b).Key() != Alt(b, a).Key() {
		t.Error("Alt key not order-insensitive")
	}
	if Concat(a, b).Key() == Concat(b, a).Key() {
		t.Error("Concat key wrongly order-insensitive")
	}
	if !Alt(a, b).Equal(Alt(b, a)) {
		t.Error("Equal should hold modulo Alt order")
	}
}

func TestNullable(t *testing.T) {
	tab := NewTable()
	cases := map[string]bool{
		"a*":       true,
		"a":        false,
		"a|()":     true,
		"a.b*":     false,
		"a*.b*":    true,
		"(a|b)*.c": false,
		"()":       true,
	}
	for src, want := range cases {
		if got := mustParse(t, tab, src).Nullable(); got != want {
			t.Errorf("Nullable(%q) = %v want %v", src, got, want)
		}
	}
}

func TestDeriveBasics(t *testing.T) {
	tab := NewTable()
	a, b := sym(tab, "a"), sym(tab, "b")
	r := mustParse(t, tab, "a.b|a.a")
	d := Derive(r, a)
	if !Match(d, []Symbol{b}) || !Match(d, []Symbol{a}) || Match(d, nil) {
		t.Errorf("derivative wrong: %s", d.String(tab))
	}
	if !Derive(r, b).IsNever() {
		t.Error("derivative by impossible symbol should be ∅")
	}
	if !Derive(Star(Sym(a)), a).Nullable() {
		t.Error("d_a(a*) should be nullable")
	}
}

func TestDeriverMemoization(t *testing.T) {
	tab := NewTable()
	a := sym(tab, "a")
	r := mustParse(t, tab, "(a.a)*")
	d := NewDeriver()
	x := d.Derive(r, a)
	y := d.Derive(r, a)
	if x != y {
		t.Error("memoized derivative not reused")
	}
	if d.States() != 1 {
		t.Errorf("States = %d want 1", d.States())
	}
	cur := r
	for i := 0; i < 10; i++ {
		cur = d.Derive(cur, a)
	}
	if d.States() > 3 {
		t.Errorf("derivative state explosion on (aa)*: %d states", d.States())
	}
}

func TestGlushkovPositions(t *testing.T) {
	tab := NewTable()
	r := mustParse(t, tab, "a.(b|c)*")
	info := Positions(r)
	if len(info.Classes) != 3 {
		t.Fatalf("positions = %d want 3", len(info.Classes))
	}
	if len(info.First) != 1 || info.First[0] != 1 {
		t.Errorf("First = %v want [1]", info.First)
	}
	// a can be last (star may be empty), and so can b and c.
	if len(info.Last) != 3 {
		t.Errorf("Last = %v want all three positions", info.Last)
	}
	// b and c are followed by b and c.
	if len(info.Follow[1]) != 2 || len(info.Follow[2]) != 2 {
		t.Errorf("Follow sets of star body wrong: %v", info.Follow)
	}
	if info.Nullable {
		t.Error("a.(b|c)* should not be nullable")
	}
}

func TestDeterministic(t *testing.T) {
	tab := NewTable()
	cases := map[string]bool{
		"title.date.(Get_Temp|temp).(TimeOut|exhibit*)": true,
		"title.date.temp.exhibit*":                      true,
		"(a|b)*.c":                                      true,
		"a*.a":                                          false, // classic one-ambiguous
		"(a.b)|(a.c)":                                   false,
		"a?.a":                                          false,
		"~.a":                                           true,  // sequential: no competing positions
		"(~|a).b":                                       false, // wildcard competes with a
		"a.~":                                           true,
		"~!(a).a":                                       true,
	}
	for src, want := range cases {
		if got := Deterministic(mustParse(t, tab, src)); got != want {
			t.Errorf("Deterministic(%q) = %v want %v", src, got, want)
		}
	}
}

func TestAmbiguities(t *testing.T) {
	tab := NewTable()
	if got := Ambiguities(mustParse(t, tab, "a.b")); len(got) != 0 {
		t.Errorf("deterministic expression reported ambiguities: %v", got)
	}
	if got := Ambiguities(mustParse(t, tab, "a*.a")); len(got) == 0 {
		t.Error("ambiguous expression reported no ambiguities")
	}
}

func TestAlphabet(t *testing.T) {
	tab := NewTable()
	r := mustParse(t, tab, "a.(b|a)*.~!(c)")
	got := r.Alphabet(nil)
	if len(got) != 3 {
		t.Errorf("Alphabet = %v want 3 distinct symbols", got)
	}
	if !r.HasWildcard() {
		t.Error("HasWildcard should be true")
	}
	if mustParse(t, tab, "a.b").HasWildcard() {
		t.Error("HasWildcard false positive")
	}
}

func TestSampler(t *testing.T) {
	tab := NewTable()
	r := mustParse(t, tab, "title.date.(Get_Temp|temp).(TimeOut|exhibit*)")
	s := NewSampler(rand.New(rand.NewSource(42)))
	for i := 0; i < 200; i++ {
		w, ok := s.Sample(r)
		if !ok {
			t.Fatal("Sample failed on non-empty language")
		}
		if !Match(r, w) {
			t.Fatalf("sampled word not in language: %v", w)
		}
	}
	if _, ok := s.Sample(Never()); ok {
		t.Error("Sample of ∅ should fail")
	}
	// ε-only language samples the empty word.
	if w, ok := s.Sample(Empty()); !ok || len(w) != 0 {
		t.Error("Sample of ε wrong")
	}
}

func TestSamplerWildcardNeedsFresh(t *testing.T) {
	tab := NewTable()
	s := NewSampler(rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Error("sampling wildcard without Fresh did not panic")
		}
	}()
	s.Sample(mustParse(t, tab, "~"))
}

func TestSamplerWildcardFresh(t *testing.T) {
	tab := NewTable()
	a := sym(tab, "a")
	s := NewSampler(rand.New(rand.NewSource(1)))
	s.Fresh = func(c Class) Symbol {
		for _, cand := range tab.Symbols() {
			if c.Contains(cand) {
				return cand
			}
		}
		return tab.Intern("fresh")
	}
	w, ok := s.Sample(mustParse(t, tab, "~!(a)"))
	if !ok || len(w) != 1 || w[0] == a {
		t.Errorf("wildcard sample wrong: %v %v", w, ok)
	}
}

func TestShortestWord(t *testing.T) {
	tab := NewTable()
	cases := map[string]int{
		"a.b.c":      3,
		"a*":         0,
		"a|b.c":      1,
		"(a.b){2,5}": 4,
		"a.(b|())":   1,
	}
	for src, want := range cases {
		w, ok := ShortestWord(mustParse(t, tab, src))
		if !ok {
			t.Errorf("ShortestWord(%q) failed", src)
			continue
		}
		if len(w) != want {
			t.Errorf("ShortestWord(%q) len = %d want %d", src, len(w), want)
		}
		if !Match(mustParse(t, tab, src), w) {
			t.Errorf("ShortestWord(%q) = %v not in language", src, w)
		}
	}
	if _, ok := ShortestWord(Never()); ok {
		t.Error("ShortestWord(∅) should fail")
	}
}

func TestSize(t *testing.T) {
	tab := NewTable()
	r := mustParse(t, tab, "a.(b|c)*")
	if got := r.Size(); got != 6 {
		t.Errorf("Size = %d want 6 (concat, a, star, alt, b, c)", got)
	}
}

func TestStringRendersParseable(t *testing.T) {
	tab := NewTable()
	for _, src := range []string{
		"a", "a.b", "a|b", "(a|b).c", "a.b*", "(a.b)*", "a?", "~", "~!(a|b)",
		"a{2,4}", "((a|b).c)*|d",
	} {
		r := mustParse(t, tab, src)
		s := r.String(tab)
		r2, err := Parse(tab, s)
		if err != nil {
			t.Errorf("String(%q) = %q not parseable: %v", src, s, err)
			continue
		}
		if !r.Equal(r2) && !strings.Contains(src, "{") {
			// Repeat desugars, so only require language-level agreement there;
			// structural equality is expected everywhere else.
			t.Errorf("round trip of %q changed structure: %q", src, s)
		}
	}
}
