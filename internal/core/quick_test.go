package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/schema"
	"axml/internal/workload"
)

// randomInstanceSetup builds a random schema, a random instance of it and a
// compiled pair rewriting the schema into itself-with-materialization: the
// target is the same schema but the checks run against arbitrary random
// content models drawn from its labels.
func randomInstanceSetup(seed int64) (*schema.Schema, *doc.Node, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	s := workload.RandomSchema(rng, workload.Options{Labels: 4, Funcs: 3})
	g := workload.NewGenerator(s, rng)
	g.MaxDepth = 6
	root, err := g.Root()
	if err != nil {
		panic(err)
	}
	return s, root, rng
}

// Property: eager and lazy verdicts agree (safe and possible) on random
// words against random targets.
func TestQuickEagerLazyAgree(t *testing.T) {
	f := func(seed int64) bool {
		s, root, rng := randomInstanceSetup(seed)
		c := Compile(s, s)
		tokens := TokensOf(c, root)
		// Random target: the content model of a random structured label.
		labels := s.SortedLabels()
		target := s.Labels[labels[rng.Intn(len(labels))]].Content
		if target == nil {
			return true
		}
		k := 1 + rng.Intn(2)
		eagerSafe, err := WordSafe(c, tokens, target, k)
		if err != nil {
			return false
		}
		lazySafe, err := LazySafe(c, tokens, target, k)
		if err != nil {
			return false
		}
		if eagerSafe != lazySafe.Verdict {
			t.Logf("seed %d: eager safe=%v lazy=%v", seed, eagerSafe, lazySafe.Verdict)
			return false
		}
		eagerPoss, err := WordPossible(c, tokens, target, k)
		if err != nil {
			return false
		}
		lazyPoss, err := LazyPossible(c, tokens, target, k)
		if err != nil {
			return false
		}
		if eagerPoss != lazyPoss.Verdict {
			t.Logf("seed %d: eager possible=%v lazy=%v", seed, eagerPoss, lazyPoss.Verdict)
			return false
		}
		// Safe implies possible.
		if eagerSafe && !eagerPoss {
			t.Logf("seed %d: safe but not possible", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: lazy explores at most as many states as eager constructs.
func TestQuickLazyNeverExploresMore(t *testing.T) {
	f := func(seed int64) bool {
		s, root, rng := randomInstanceSetup(seed)
		c := Compile(s, s)
		tokens := TokensOf(c, root)
		labels := s.SortedLabels()
		target := s.Labels[labels[rng.Intn(len(labels))]].Content
		if target == nil {
			return true
		}
		eager, err := AnalyzeSafe(c, tokens, target, 2, nil)
		if err != nil {
			return false
		}
		lazy, err := LazySafe(c, tokens, target, 2)
		if err != nil {
			return false
		}
		// The state spaces differ slightly (derivatives vs subset states),
		// so allow equality-with-slack only in the eager direction: the
		// lazy count must not exceed eager's by more than the derivative
		// granularity bound (distinct derivatives ≤ subset states + 1 for
		// the ∅ sink per fork state).
		return lazy.StatesExplored <= eager.NumProdStates()+len(eager.Fork.Accept)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: when the static check says a random instance safely rewrites
// into its own schema's materialized variant, execution with a randomized
// (adversarial) simulated invoker always succeeds — for every seed.
func TestQuickSafeExecutionAlwaysSucceeds(t *testing.T) {
	f := func(seed int64) bool {
		s, root, rng := randomInstanceSetup(seed)
		inv := workload.NewSimInvoker(s, rng)
		rw := NewRewriterWithConfig(s, s, RewriterConfig{Depth: 2, Invoker: inv})
		rw.Audit = &Audit{}
		if err := rw.CheckDocument(root, Safe); err != nil {
			return true // not safe: nothing to verify
		}
		out, err := rw.RewriteDocument(context.Background(), root.Clone(), Safe)
		if err != nil {
			t.Logf("seed %d: safe execution failed: %v", seed, err)
			return false
		}
		if err := rw.Context().Validate(out); err != nil {
			t.Logf("seed %d: safe execution produced invalid doc: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: rewriting into the schema the instance was generated from needs
// zero calls (it is already an instance) and succeeds in every mode.
func TestQuickIdentityRewriteNoCalls(t *testing.T) {
	f := func(seed int64) bool {
		s, root, rng := randomInstanceSetup(seed)
		_ = rng
		inv := workload.NewSimInvoker(s, rand.New(rand.NewSource(seed+1)))
		for _, mode := range []Mode{Safe, Possible} {
			rw := NewRewriterWithConfig(s, s, RewriterConfig{Depth: 1, Invoker: inv})
			rw.Audit = &Audit{}
			out, err := rw.RewriteDocument(context.Background(), root.Clone(), mode)
			if err != nil {
				t.Logf("seed %d mode %v: %v", seed, mode, err)
				return false
			}
			if rw.Audit.Len() != 0 {
				t.Logf("seed %d mode %v: identity rewrite made %d calls", seed, mode, rw.Audit.Len())
				return false
			}
			if err := rw.Context().Validate(out); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: schema-level safety transfers to instances — if the schema
// safely rewrites into a target, then every generated instance passes the
// document-level safe check.
func TestQuickSchemaRewriteSoundOnInstances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := workload.RandomSchema(rng, workload.Options{Labels: 3, Funcs: 2})
		c := Compile(s, s)
		report, err := SchemaSafeRewrite(c, "", 2)
		if err != nil || !report.Safe() {
			return true // identity-with-k2 should be safe, but skip if not
		}
		g := workload.NewGenerator(s, rng)
		g.MaxDepth = 5
		for i := 0; i < 3; i++ {
			root, err := g.Root()
			if err != nil {
				return false
			}
			rw := NewRewriterWithConfig(s, s, RewriterConfig{Depth: 2})
			if err := rw.CheckDocument(root, Safe); err != nil {
				t.Logf("seed %d: schema-safe but instance unsafe: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: validation agrees with a zero-depth safe check on documents that
// contain no function nodes at all.
func TestQuickValidationAgreesWithK0(t *testing.T) {
	f := func(seed int64) bool {
		s, root, _ := randomInstanceSetup(seed)
		if root.HasFuncs() {
			return true
		}
		rw := NewRewriterWithConfig(s, s, RewriterConfig{})
		rw.K = 0
		checkErr := rw.CheckDocument(root, Safe)
		valErr := schema.NewContext(s, nil).Validate(root)
		return (checkErr == nil) == (valErr == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: the regex→fork language relation — A_w^0 accepts exactly w.
func TestQuickForkK0IsWord(t *testing.T) {
	f := func(seed int64) bool {
		s, root, _ := randomInstanceSetup(seed)
		c := Compile(s, s)
		tokens := TokensOf(c, root)
		fork, err := BuildFork(c, tokens, 0)
		if err != nil {
			return false
		}
		word := make([]regex.Symbol, len(tokens))
		for i, tok := range tokens {
			word[i] = tok.Sym
		}
		if !fork.Accepts(word) {
			return false
		}
		if len(word) > 0 && fork.Accepts(word[1:]) {
			return false
		}
		return fork.NumForks() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: a word naming no function is decided by membership. Over random
// function-free words and random content models mixing element labels,
// functions, a pattern and wildcards, Compiled.member (what the static
// check asks for such words) equals WordVerdict for Eager and Lazy, Safe
// and Possible.
func TestQuickFunctionFreeWordIsMembership(t *testing.T) {
	sender, target := patternSchemas(t)
	c := Compile(sender, target)
	tab := c.Table
	elems := []regex.Symbol{tab.Intern("title"), tab.Intern("temp"), tab.Intern("city"), tab.Intern("stray")}
	funcs := []regex.Symbol{tab.Intern("Get_Temp"), tab.Intern("Rogue_Temp"), tab.Intern("Forecast")}
	for _, s := range elems {
		if c.Func(s) != nil {
			t.Fatalf("%s is a function", tab.Name(s))
		}
	}
	var model func(rng *rand.Rand, depth int) *regex.Regex
	model = func(rng *rand.Rand, depth int) *regex.Regex {
		leaf := func() *regex.Regex {
			switch rng.Intn(6) {
			case 0, 1:
				return regex.Sym(elems[rng.Intn(len(elems))])
			case 2:
				return regex.Sym(funcs[rng.Intn(len(funcs))])
			case 3:
				return regex.ClassOf(regex.NewClass(true, elems[rng.Intn(len(elems))]))
			case 4:
				return regex.Any()
			default:
				return regex.Empty()
			}
		}
		if depth == 0 {
			return leaf()
		}
		switch rng.Intn(5) {
		case 0:
			return regex.Concat(model(rng, depth-1), model(rng, depth-1))
		case 1:
			return regex.Alt(model(rng, depth-1), model(rng, depth-1))
		case 2:
			return regex.Star(model(rng, depth-1))
		case 3:
			return regex.Opt(model(rng, depth-1))
		default:
			return leaf()
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		typ := c.ExpandPatterns(model(rng, 3))
		word := make([]Token, rng.Intn(5))
		for i := range word {
			word[i] = Token{Sym: elems[rng.Intn(len(elems))]}
		}
		want := c.member(word, typ)
		for _, engine := range []EngineKind{Eager, Lazy} {
			for _, mode := range []Mode{Safe, Possible} {
				got, err := c.WordVerdict(engine, mode, word, typ, 1+rng.Intn(2))
				if err != nil || got != want {
					t.Logf("seed %d: %v against %s: engine %d mode %s verdict %t (err %v), membership %t",
						seed, word, typ.String(tab), engine, mode, got, err, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the entries Compile freezes equal the locked lookups they
// replace, and a model's DFA decides membership as the derivative table
// and regex.Match do. Over random schema pairs — a random sender with
// functions, and a target over an overlay of its table (as /exchange
// parses receivers) with a pattern matching a sender function, a function
// of its own, data and structured labels, and random content models mixing
// labels, functions, the pattern, a name neither schema declares,
// wildcards and negated classes — every declared name's entry holds its
// Table.Intern symbol, its Func, its target declaration and the
// pattern-expanded content model and input type, with a DFA exactly when that
// model is one-unambiguous (these models all fit the Compiled's cell
// budget); on random words, also over symbols neither
// schema declares, the DFA accepts what Compiled.member and regex.Match do.
func TestQuickFrozenEntries(t *testing.T) {
	dfas := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sender := workload.RandomSchema(rng, workload.Options{Labels: 3, Funcs: 3})
		target := schema.NewShared(sender.Table.Overlay())
		f0 := sender.Funcs["f0"]
		out := "data"
		if f0.Out != nil {
			out = f0.Out.String(sender.Table)
		}
		mustDo := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		mustDo(target.SetPattern("P", f0.In.String(sender.Table), out, nil))
		mustDo(target.SetFunc("g", "d0.d1?", "data"))
		tab := target.Table
		pool := []regex.Symbol{tab.Intern("P"), tab.Intern("g"), tab.Intern("undeclared")}
		for _, n := range append(sender.SortedLabels(), sender.SortedFuncs()...) {
			pool = append(pool, tab.Intern(n))
		}
		var gen func(depth int) *regex.Regex
		gen = func(depth int) *regex.Regex {
			if depth == 0 || rng.Intn(3) == 0 {
				switch rng.Intn(8) {
				case 0:
					return regex.Any()
				case 1:
					return regex.ClassOf(regex.NewClass(true, pool[rng.Intn(len(pool))]))
				default:
					return regex.Sym(pool[rng.Intn(len(pool))])
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
		for _, n := range []string{"e0", "e1", "d0", "t0", "t1"} {
			if rng.Intn(4) == 0 {
				mustDo(target.SetData(n))
			} else {
				mustDo(target.SetLabelRegex(n, gen(3)))
			}
		}
		c := Compile(sender, target)
		word := func() []Token {
			w := make([]Token, rng.Intn(6))
			for i := range w {
				w[i] = Token{Sym: pool[rng.Intn(len(pool))]}
				if rng.Intn(5) == 0 {
					w[i].Sym = tab.Intern("stray")
				}
			}
			return w
		}
		checkModel := func(name string, m *model, want *regex.Regex) bool {
			d := c.dfaOf(m)
			if !m.re.Equal(want) || (d != nil) != regex.Deterministic(m.re) {
				t.Logf("seed %d: %s: model %s, want %s, DFA %t", seed, name, m.re.String(tab), want.String(tab), d != nil)
				return false
			}
			if d == nil {
				return true
			}
			dfas++
			for i := 0; i < 10; i++ {
				w := word()
				syms := make([]regex.Symbol, len(w))
				for j, tok := range w {
					syms[j] = tok.Sym
				}
				in := d.Accepts(syms)
				if in != c.member(w, m.re) || in != regex.Match(m.re, syms) {
					t.Logf("seed %d: %s: %v in %s: DFA %t, derivatives %t, regex.Match %t",
						seed, name, syms, m.re.String(tab), in, c.member(w, m.re), regex.Match(m.re, syms))
					return false
				}
			}
			return true
		}
		for _, s := range []*schema.Schema{sender, target} {
			for _, names := range [][]string{s.SortedLabels(), s.SortedFuncs(), s.SortedPatterns()} {
				for _, name := range names {
					e := c.names[name]
					sym := c.Table.Intern(name)
					if e == nil || e.sym != sym || e.fi != c.Func(sym) {
						t.Logf("seed %d: %s: entry %+v, symbol %d, Func %v", seed, name, e, sym, c.Func(sym))
						return false
					}
					raw, isData, declared := target.Content(name)
					if e.declared != declared || e.data != isData {
						t.Logf("seed %d: %s: declared %t data %t, want %t %t", seed, name, e.declared, e.data, declared, isData)
						return false
					}
					if declared && !isData && !checkModel(name, &e.content, c.ExpandPatterns(raw)) {
						return false
					}
					if fi := c.Func(sym); fi != nil && fi.In != nil {
						if !checkModel(name+" input", &e.in, c.ExpandPatterns(fi.In)) {
							return false
						}
					} else if e.in.re != nil {
						t.Logf("seed %d: %s: input model %s for a non-function or data input", seed, name, e.in.re.String(tab))
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if dfas < 200 {
		t.Errorf("only %d models had a DFA", dfas)
	}
}
