package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/schema"
	"axml/internal/xmlio"
)

// verifiedSetup is a stored report (frozenReport's shape, with declared
// blocks), its rendering, and a rewriter over the pair of the frozen
// sender and a receiver that forbids the report's closing call.
func verifiedSetup(t *testing.T, blocks int) (*doc.Node, *xmlio.Rendering, *Rewriter) {
	t.Helper()
	sender := schema.MustParseText(frozenSender, nil)
	stored := doc.Elem("report", doc.Elem("title", doc.TextNode("t")))
	for i := 0; i < blocks; i++ {
		stored.Children = append(stored.Children, doc.Elem("x", doc.Elem("y", doc.TextNode("v"))))
	}
	stored.Children = append(stored.Children, doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))))
	c := Compile(sender, frozenReceiverSchema(t, sender))
	inv := stubInvoker{"Get_Temp": ret(doc.Elem("temp", doc.TextNode("15")))}
	return stored, xmlio.Render(stored), NewRewriterForConfig(c, RewriterConfig{Invoker: inv})
}

func exchangeOnce(rw *Rewriter, stored *doc.Node, from *xmlio.Rendering) (string, error) {
	out, err := rw.RewriteSpineCopy(context.Background(), stored.SpineCopyAlong(from.Spine()), from, Safe)
	if err != nil {
		return "", err
	}
	return xmlio.String(out)
}

// TestVerifiedOnceSkipsSharedSubtrees: a version's first passing check is
// recorded, and later checks of it do not descend into the subtrees its
// rendering shares. The test proves the skip by breaking one shared
// subtree after the record, which only a skipped check misses; a check
// without the rendering, or under a strict context, sees it.
func TestVerifiedOnceSkipsSharedSubtrees(t *testing.T) {
	stored, r, rw := verifiedSetup(t, 3)
	want, err := exchangeOnce(rw, stored, r)
	if err != nil {
		t.Fatal(err)
	}
	if !rw.Compiled.isVerified(r.ID(), false) {
		t.Fatal("a passing check did not record its version")
	}
	if got, err := exchangeOnce(rw, stored, r); err != nil || got != want {
		t.Fatalf("verified exchange: %v\n%s\nwant\n%s", err, got, want)
	}
	// Break a shared subtree behind the store's back: the title, declared
	// as data, gets an element child.
	title := stored.Children[0]
	if !r.Shares(title) {
		t.Fatal("the title is not shared with the spine copy")
	}
	title.Children = append(title.Children, doc.Elem("y"))
	defer func() { title.Children = title.Children[:1] }()
	if _, err := exchangeOnce(rw, stored, r); err != nil {
		t.Errorf("verified exchange re-checked a shared subtree: %v", err)
	}
	if err := rw.CheckDocument(stored.SpineCopy(), Safe); err == nil {
		t.Error("a check without the rendering missed the broken title")
	}
	rw.Context().Strict = true
	defer func() { rw.Context().Strict = false }()
	if _, err := exchangeOnce(rw, stored, r); err == nil {
		t.Error("a strict check reused the record of a lenient one")
	}
}

// TestVerifiedFailedCheckNotRecorded: a version whose check fails is never
// recorded, so its next check runs in full again.
func TestVerifiedFailedCheckNotRecorded(t *testing.T) {
	stored, r, rw := verifiedSetup(t, 2)
	stored.Children[0].Children = append(stored.Children[0].Children, doc.Elem("y"))
	for i := 0; i < 3; i++ {
		if _, err := exchangeOnce(rw, stored, r); err == nil {
			t.Fatal("a title holding an element passed the check")
		}
		if rw.Compiled.isVerified(r.ID(), false) {
			t.Fatalf("after failed check %d the version is recorded", i+1)
		}
	}
}

// TestVerifiedSetBounded: recording 10,000 versions leaves at most
// verifiedSlots recorded, the most recent ones, and no key of one version
// reads as another's.
func TestVerifiedSetBounded(t *testing.T) {
	_, _, rw := verifiedSetup(t, 1)
	c := rw.Compiled
	const versions = 10000
	for id := uint64(1); id <= versions; id++ {
		c.markVerified(id, id%3 == 0)
	}
	used := 0
	for i := range c.verified {
		if c.verified[i].Load() != 0 {
			used++
		}
	}
	if used > verifiedSlots {
		t.Fatalf("%d slots in use, bound %d", used, verifiedSlots)
	}
	for id := uint64(1); id <= versions; id++ {
		recent := id > versions-verifiedSlots
		if got := c.isVerified(id, id%3 == 0); got != recent {
			t.Fatalf("version %d: verified %t, want %t", id, got, recent)
		}
		if c.isVerified(id, id%3 != 0) {
			t.Fatalf("version %d verified under the other strictness", id)
		}
	}
}

// TestVerifiedConcurrentRecord: concurrent exchanges of one version race
// to record it and to read the record; each gets the same body. Run it
// under -race.
func TestVerifiedConcurrentRecord(t *testing.T) {
	stored, r, rw := verifiedSetup(t, 20)
	want, err := exchangeOnce(rw, stored, r)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh rendering of the same tree: unrecorded, so the goroutines
	// race its first record.
	r = xmlio.Render(stored)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				rw := NewRewriterForConfig(rw.Compiled, RewriterConfig{Invoker: rw.Invoker})
				if got, err := exchangeOnce(rw, stored, r); err != nil || got != want {
					t.Errorf("concurrent exchange: %v\n%s", err, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !rw.Compiled.isVerified(r.ID(), false) {
		t.Error("the version is not recorded")
	}
}

// TestQuickMatchWordAgrees: the executor's final verification
// (Compiled.matchWord) decides what schema.Context.MatchWord decides, on
// random content models stepped through a DFA, matched without one, and
// read through patterns, over random words of elements, functions, a
// pattern-admitted function, a name neither schema declares and text. The
// models' names are interned first, as a schema parse interns every name
// its models mention.
func TestQuickMatchWordAgrees(t *testing.T) {
	withPatterns, patternTarget := patternSchemas(t)
	plainSender := schema.MustParseText(cacheSenderText, nil)
	plainTarget, err := schema.ParseTextShared(schema.NewShared(plainSender.Table.Overlay()), cacheTargetText, nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []*Compiled{Compile(withPatterns, patternTarget), Compile(plainSender, plainTarget)}
	labels := []string{"title", "temp", "city", "stray", "Get_Temp", "Rogue_Temp", "Forecast"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := pairs[rng.Intn(len(pairs))]
		ctx := schema.NewContext(c.Target, c.Sender)
		var gen func(depth int) *regex.Regex
		gen = func(depth int) *regex.Regex {
			if depth == 0 || rng.Intn(3) == 0 {
				switch rng.Intn(5) {
				case 0:
					return regex.Empty()
				case 1:
					return regex.ClassOf(regex.NewClass(true, c.Table.Intern(labels[rng.Intn(len(labels))])))
				default:
					return regex.Sym(c.Table.Intern(labels[rng.Intn(len(labels))]))
				}
			}
			switch rng.Intn(4) {
			case 0:
				return regex.Concat(gen(depth-1), gen(depth-1))
			case 1:
				return regex.Alt(gen(depth-1), gen(depth-1))
			case 2:
				return regex.Star(gen(depth - 1))
			default:
				return regex.Opt(gen(depth - 1))
			}
		}
		re := c.ExpandPatterns(gen(3))
		word := make([]*doc.Node, rng.Intn(6))
		for i := range word {
			switch l := labels[rng.Intn(len(labels))]; {
			case rng.Intn(6) == 0:
				word[i] = doc.TextNode(" ")
			case c.funcOf(l) != nil || l == "Rogue_Temp":
				word[i] = doc.Call(l, doc.Elem("city", doc.TextNode("Paris")))
			default:
				word[i] = doc.Elem(l)
			}
		}
		want := ctx.MatchWord(re, word)
		for _, m := range []*model{{re: re}, adhoc(re)} {
			if got := c.matchWord(ctx, m, word); got != want {
				t.Logf("seed %d: %s on %s: matchWord %t (DFA %t), MatchWord %t",
					seed, doc.Elem("word", word...).ChildLabels(), re.String(c.Table), got, m.dfa != nil, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestMatchWordAllocationsFlat: the final verification of a word costs the
// same allocations at 10 children as at 1,000, through the DFA and through
// schema.Context.MatchWord's position sets.
func TestMatchWordAllocationsFlat(t *testing.T) {
	sender := schema.MustParseText(frozenSender, nil)
	c := Compile(sender, frozenReceiverSchema(t, sender))
	ctx := schema.NewContext(c.Target, c.Sender)
	content := &c.names["report"].content
	word := func(n int) []*doc.Node {
		w := []*doc.Node{doc.Elem("title")}
		for i := 0; i < n; i++ {
			w = append(w, doc.Elem(fmt.Sprint("x", i%7)))
		}
		return append(w, doc.Elem("temp"))
	}
	short, long := word(10), word(1000)
	for _, m := range []*model{content, adhoc(content.re)} {
		if !c.matchWord(ctx, m, short) || !c.matchWord(ctx, m, long) {
			t.Fatal("a report word does not match the report model")
		}
		a := testing.AllocsPerRun(20, func() { c.matchWord(ctx, m, short) })
		b := testing.AllocsPerRun(20, func() { c.matchWord(ctx, m, long) })
		if a != b {
			t.Errorf("DFA %t: %v allocations at 10 children, %v at 1,000", m.dfa != nil, a, b)
		}
	}
}
