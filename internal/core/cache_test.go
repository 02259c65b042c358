package core

import (
	"strings"
	"sync"
	"testing"

	"axml/internal/regex"
	"axml/internal/schema"
)

const cacheSenderText = `
root newspaper
elem newspaper = title.(Get_Temp|temp)
elem title = data
elem temp = data
elem city = data
func Get_Temp = city -> temp
`

const cacheTargetText = `
root newspaper
elem newspaper = title.temp
elem title = data
elem temp = data
elem city = data
func Get_Temp = city -> temp
`

func cachePair(t *testing.T) (*schema.Schema, *schema.Schema) {
	t.Helper()
	sender := schema.MustParseText(cacheSenderText, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), cacheTargetText, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sender, target
}

// TestCompiledCacheCompileOnce is the tentpole acceptance check: no matter
// how many goroutines ask for the same schema pair concurrently, Compile runs
// exactly once (Stats().Misses counts actual Compile runs).
func TestCompiledCacheCompileOnce(t *testing.T) {
	sender, target := cachePair(t)
	cc := NewCompiledCache(8)

	const goroutines, rounds = 16, 25
	results := make([]*Compiled, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				results[i] = cc.Get(sender, target)
			}
		}(i)
	}
	wg.Wait()

	for i, c := range results {
		if c == nil || c != results[0] {
			t.Fatalf("goroutine %d got a different *Compiled", i)
		}
	}
	st := cc.Stats()
	if st.Misses != 1 {
		t.Errorf("Compile ran %d times for one schema pair, want exactly 1 (%s)", st.Misses, st)
	}
	if want := uint64(goroutines*rounds - 1); st.Hits != want {
		t.Errorf("hits = %d, want %d (%s)", st.Hits, want, st)
	}
	if st.Size != 1 {
		t.Errorf("cache holds %d entries, want 1", st.Size)
	}
}

// TestCompiledCacheFingerprintHit: re-parsing the same schema text produces a
// distinct *Schema, but the content fingerprint makes it the same cache entry
// — the /exchange endpoint parses a fresh exchange schema per request.
func TestCompiledCacheFingerprintHit(t *testing.T) {
	sender, target1 := cachePair(t)
	target2, err := schema.ParseTextShared(schema.NewShared(sender.Table), cacheTargetText, nil)
	if err != nil {
		t.Fatal(err)
	}
	if target1 == target2 {
		t.Fatal("test needs two distinct schema values")
	}
	cc := NewCompiledCache(8)
	c1 := cc.Get(sender, target1)
	c2 := cc.Get(sender, target2)
	if c1 != c2 {
		t.Error("identical re-parsed schemas missed the cache")
	}
	if st := cc.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %s, want 1 miss + 1 hit", st)
	}
}

// TestCompiledCacheMutationInvalidates: mutating a schema (DefineQueryService
// calls SetFunc) changes its fingerprint, so the stale analysis is not
// served.
func TestCompiledCacheMutationInvalidates(t *testing.T) {
	sender, target := cachePair(t)
	cc := NewCompiledCache(8)
	c1 := cc.Get(sender, target)
	if err := sender.SetFunc("Late", "city", "temp"); err != nil {
		t.Fatal(err)
	}
	c2 := cc.Get(sender, target)
	if c1 == c2 {
		t.Error("mutated sender schema was served the stale analysis")
	}
	if c2.Func(c2.Table.Intern("Late")) == nil {
		t.Error("recompiled analysis does not know the new function")
	}
}

// TestCompiledCacheLRU: the cache is bounded and evicts least-recently-used
// pairs.
func TestCompiledCacheLRU(t *testing.T) {
	sender, _ := cachePair(t)
	variant := func(n string) *schema.Schema {
		s, err := schema.ParseTextShared(schema.NewShared(sender.Table),
			strings.Replace(cacheTargetText, "elem city = data", "elem city = data\nelem "+n+" = data", 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b, c := variant("aa"), variant("bb"), variant("cc")
	cc := NewCompiledCache(2)
	ca := cc.Get(sender, a)
	cc.Get(sender, b)
	cc.Get(sender, c) // evicts the (sender, a) analysis
	if st := cc.Stats(); st.Evictions != 1 || st.Size != 2 {
		t.Errorf("stats = %s, want 1 eviction and size 2", st)
	}
	if cc.Get(sender, a) == ca {
		t.Error("evicted analysis was served")
	}
	cc.Purge()
	if cc.Len() != 0 {
		t.Errorf("Len after Purge = %d", cc.Len())
	}
}

// TestNilCompiledCache: a nil cache degrades to plain compilation.
func TestNilCompiledCache(t *testing.T) {
	sender, target := cachePair(t)
	var cc *CompiledCache
	if cc.Get(sender, target) == nil {
		t.Fatal("nil cache returned nil Compiled")
	}
	if st := cc.Stats(); st != (CacheStats{}) {
		t.Errorf("nil cache stats = %s", st)
	}
	if cc.Len() != 0 || cc.WordStats() != (CacheStats{}) {
		t.Error("nil cache reported residents")
	}
	cc.Purge()
}

// TestPairKeyTableNamespacing: the same declarations in two different symbol
// tables must never share a key, since interned symbol ids differ.
func TestPairKeyTableNamespacing(t *testing.T) {
	s1 := schema.MustParseText(cacheSenderText, nil)
	s2 := schema.MustParseText(cacheSenderText, nil)
	if PairKey(s1, s1) == PairKey(s2, s2) {
		t.Error("pair keys collide across symbol tables")
	}
	if PairKey(nil, s1) != PairKey(s1, s1) {
		t.Error("nil sender must mean sender == target")
	}
}

// TestWordVerdictMemo: repeated words answer from the memo in every mode,
// Mixed from the entry Safe filed, and a frozen token makes another word.
func TestWordVerdictMemo(t *testing.T) {
	sender, target := cachePair(t)
	c := Compile(sender, target)
	word := []Token{
		{Sym: c.Table.Intern("title")},
		{Sym: c.Table.Intern("Get_Temp")},
	}
	model := c.ExpandPatterns(target.Labels["newspaper"].Content)

	for _, mode := range []Mode{Safe, Possible, Mixed} {
		v1, err := c.WordVerdict(mode, word, model, 1)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := c.WordVerdict(mode, word, model, 1)
		if err != nil {
			t.Fatal(err)
		}
		if v1 != v2 || !v1 {
			t.Errorf("mode %s: verdicts %t/%t, want true/true", mode, v1, v2)
		}
	}
	st := c.WordCacheStats()
	if st.Hits != 4 || st.Misses != 2 {
		t.Errorf("word memo stats = %s, want 4 hits + 2 misses", st)
	}

	// Frozen tokens are a different word: must not reuse the plain verdict.
	frozen := []Token{word[0], {Sym: word[1].Sym, Frozen: true}}
	v, err := c.WordVerdict(Safe, frozen, model, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v {
		t.Error("frozen Get_Temp cannot safely rewrite into title.temp")
	}
}

// TestWordVerdictMemoKey pins the memo key's bytes, and checks that a hit
// through reused key scratch allocates nothing.
func TestWordVerdictMemoKey(t *testing.T) {
	sender, target := cachePair(t)
	c := Compile(sender, target)
	model := c.ExpandPatterns(target.Labels["newspaper"].Content)
	word := []Token{
		{Sym: 3},
		{Sym: 12, Depth: 1, Frozen: true},
		{Sym: 7, MustCall: true},
		{Sym: 40, Depth: 2, Frozen: true, MustCall: true},
	}
	for _, tc := range []struct {
		mode Mode
		k    int
		want string
	}{
		{Safe, 2, "s2|3.12@1!.7^.40@2!^.|"},
		{Mixed, 1, "s1|3.12@1!.7^.40@2!^.|"},
		{Possible, 10, "p10|3.12@1!.7^.40@2!^.|"},
	} {
		if got := string(appendWordKey([]byte("stale"), tc.mode, word, model, tc.k)); got != "stale"+tc.want+model.Key() {
			t.Errorf("key = %q, want %q", got, "stale"+tc.want+model.Key())
		}
	}

	hit := []Token{{Sym: c.Table.Intern("title")}, {Sym: c.Table.Intern("Get_Temp")}}
	var key []byte
	if _, err := c.wordVerdict(&key, Safe, hit, model, 1); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := c.wordVerdict(&key, Safe, hit, model, 1); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("a memo hit = %v allocations", n)
	}
	if st := c.WordCacheStats(); st.Misses != 1 || st.Hits != 101 {
		t.Errorf("word memo stats = %s, want 1 miss and 101 hits", st)
	}
}

// TestWordCacheBoundsAndDisable: the memo is LRU-bounded and can be disabled.
func TestWordCacheBoundsAndDisable(t *testing.T) {
	sender, target := cachePair(t)
	c := Compile(sender, target)
	c.SetWordCacheCapacity(2)
	model := c.ExpandPatterns(target.Labels["newspaper"].Content)
	syms := []string{"title", "temp", "city"}
	for _, name := range syms {
		if _, err := c.WordVerdict(Possible, []Token{{Sym: c.Table.Intern(name)}}, model, 1); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.WordCacheStats(); st.Size != 2 || st.Evictions != 1 {
		t.Errorf("bounded memo stats = %s, want size 2 and 1 eviction", st)
	}

	c.SetWordCacheCapacity(-1)
	for i := 0; i < 3; i++ {
		if _, err := c.WordVerdict(Possible, []Token{{Sym: c.Table.Intern("title")}}, model, 1); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.WordCacheStats(); st != (CacheStats{}) {
		t.Errorf("disabled memo recorded stats %s", st)
	}
}

// TestWordVerdictMemoConcurrent hammers one Compiled from many goroutines;
// run with -race. This exercises the word memo and the pattern-expansion
// memo concurrently.
func TestWordVerdictMemoConcurrent(t *testing.T) {
	sender, target := cachePair(t)
	c := Compile(sender, target)
	model := c.ExpandPatterns(target.Labels["newspaper"].Content)
	words := [][]Token{
		{{Sym: c.Table.Intern("title")}, {Sym: c.Table.Intern("Get_Temp")}},
		{{Sym: c.Table.Intern("title")}, {Sym: c.Table.Intern("temp")}},
		{{Sym: c.Table.Intern("temp")}},
	}
	want := make([][2]bool, len(words)) // [Safe, Possible]
	for i, w := range words {
		for m, mode := range []Mode{Safe, Possible} {
			v, err := c.WordVerdict(mode, w, model, 1)
			if err != nil {
				t.Fatal(err)
			}
			want[i][m] = v
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				i, m := (g+j)%len(words), j%2
				v, err := c.WordVerdict([]Mode{Safe, Possible}[m], words[i], model, 1)
				if err != nil {
					t.Errorf("verdict: %v", err)
					return
				}
				if v != want[i][m] {
					t.Errorf("word %d mode %d: verdict %t, want %t", i, m, v, want[i][m])
					return
				}
				_ = c.ExpandPatterns(target.Labels["newspaper"].Content)
			}
		}(g)
	}
	wg.Wait()
}

// TestSharedDeriverConcurrent exercises the concurrency-safe derivative
// table directly; run with -race.
func TestSharedDeriverConcurrent(t *testing.T) {
	table := regex.NewTable()
	a, b := table.Intern("a"), table.Intern("b")
	r := regex.Concat(regex.Star(regex.Sym(a)), regex.Sym(b))
	d := regex.NewDeriver()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				da := d.Derive(r, a)
				if da.IsNever() || da.Nullable() {
					t.Errorf("d/da (a*.b) = %s, want non-empty and non-nullable", da.String(table))
					return
				}
				if again := d.Derive(r, a); again != da {
					t.Error("memoized derivative not canonical across calls")
					return
				}
				db := d.Derive(r, b)
				if !db.Nullable() {
					t.Error("d/db (a*.b) must be nullable")
					return
				}
			}
		}()
	}
	wg.Wait()
}
