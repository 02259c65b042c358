// Package experiments implements the reproduction harness for the paper's
// figures and analytical claims (see DESIGN.md §3 and EXPERIMENTS.md). Each
// experiment builds its workload, runs the relevant algorithms, and returns
// a printable table; cmd/axml-bench prints them, the top-level Go benchmarks
// reuse the same instance builders under testing.B.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"axml/internal/automata"
	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/schema"
	"axml/internal/workload"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "   %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// fresh returns a table with t's heading and no rows yet.
func (t Table) fresh() *Table { return &t }

// ---------------------------------------------------------------------------
// Paper fixtures

// PaperSchemaText is schema (*) of Section 2.
const PaperSchemaText = `
root newspaper
elem newspaper = title.date.(Get_Temp|temp).(TimeOut|exhibit*)
elem title = data
elem date = data
elem temp = data
elem city = data
elem exhibit = title.(Get_Date|date)
elem performance = data
func Get_Temp = city -> temp
func TimeOut = data -> (exhibit|performance)*
func Get_Date = title -> date
`

// PaperCompiled returns the compiled (*)-against-itself pair plus the word
// w = title.date.Get_Temp.TimeOut of Figure 2.
func PaperCompiled() (*core.Compiled, []core.Token) {
	s := schema.MustParseText(PaperSchemaText, nil)
	c := core.Compile(s, s)
	w := core.WordTokens([]regex.Symbol{
		c.Table.Intern("title"),
		c.Table.Intern("date"),
		c.Table.Intern("Get_Temp"),
		c.Table.Intern("TimeOut"),
	})
	return c, w
}

// TargetStarStar is the (**) newspaper content model; TargetTripleStar is
// (***).
const (
	TargetStarStar   = "title.date.temp.(TimeOut|exhibit*)"
	TargetTripleStar = "title.date.temp.exhibit*"
)

// ---------------------------------------------------------------------------
// Scaling fixtures

// ChainInstance builds the E-C1 scaling family: a content model of n slots
// (f_i | a_i), a word f_1 ... f_n, and the fully-materialized target
// a_1 ... a_n. Every f_i must be invoked; the analysis carries n forks.
func ChainInstance(n int) (*core.Compiled, []core.Token, *regex.Regex) {
	var b strings.Builder
	b.WriteString("root r\nelem r = ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte('.')
		}
		fmt.Fprintf(&b, "(f%d|a%d)", i, i)
	}
	b.WriteByte('\n')
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "elem a%d = data\n", i)
		fmt.Fprintf(&b, "func f%d = data -> a%d\n", i, i)
	}
	s := schema.MustParseText(b.String(), nil)
	c := core.Compile(s, s)
	word := make([]regex.Symbol, n)
	targetParts := make([]string, n)
	for i := 0; i < n; i++ {
		word[i] = c.Table.Intern(fmt.Sprintf("f%d", i))
		targetParts[i] = fmt.Sprintf("a%d", i)
	}
	target := regex.MustParse(c.Table, strings.Join(targetParts, "."))
	return c, core.WordTokens(word), target
}

// RecursiveInstance builds the E-C6 family: a Get_More-style handle whose
// output may contain another handle; k bounds how deep materialization can
// chase it.
func RecursiveInstance() (*core.Compiled, []core.Token, *regex.Regex) {
	s := schema.MustParseText(`
root results
elem results = url*.Get_More?
elem url = data
func Get_More = data -> url*.Get_More?
`, nil)
	c := core.Compile(s, s)
	w := core.WordTokens([]regex.Symbol{c.Table.Intern("url"), c.Table.Intern("Get_More")})
	flatOrHandle := regex.MustParse(c.Table, "url*.Get_More?")
	return c, w, flatOrHandle
}

// ParallelPair builds the E-P1 fixture: a page of independent sec subtrees,
// each holding one Get call the target forces to materialize. Every call is
// independent of every other, so the parallel engine's speedup ceiling is
// the degree (until per-call latency stops dominating).
func ParallelPair() (*schema.Schema, *schema.Schema) {
	const text = `
root page
elem page = sec*
elem sec = (Get|val)
elem val = data
func Get = data -> val
`
	sender := schema.MustParseText(text, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table),
		strings.Replace(text, "elem sec = (Get|val)", "elem sec = val", 1), nil)
	if err != nil {
		panic(err)
	}
	return sender, target
}

// ParallelDoc builds a page of n sec elements, each with one Get call.
func ParallelDoc(n int) *doc.Node {
	kids := make([]*doc.Node, n)
	for i := range kids {
		kids[i] = doc.Elem("sec", doc.Call("Get", doc.TextNode(fmt.Sprintf("p%d", i))))
	}
	return doc.Elem("page", kids...)
}

// ParallelInvoker returns a deterministic stub service answering every Get
// with one val, after sleeping latency per call (0 = no sleep). The sleep
// stands in for the network round-trip the parallel engine overlaps.
func ParallelInvoker(latency time.Duration) core.Invoker {
	return core.ContextInvokerFunc(func(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
		if latency > 0 {
			t := time.NewTimer(latency)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return []*doc.Node{doc.Elem("val", doc.TextNode(call.Label))}, nil
	})
}

// NondetTarget builds the classic (a|b)*.a.(a|b)^n language whose minimal
// DFA — and hence complement — is exponential in n.
func NondetTarget(t *regex.Table, n int) *regex.Regex {
	src := "(a|b)*.a"
	for i := 0; i < n; i++ {
		src += ".(a|b)"
	}
	return regex.MustParse(t, src)
}

// DetTarget builds a deterministic content model of comparable size.
func DetTarget(t *regex.Table, n int) *regex.Regex {
	parts := make([]string, n+1)
	for i := range parts {
		parts[i] = fmt.Sprintf("c%d", i)
	}
	return regex.MustParse(t, strings.Join(parts, "."))
}

// ---------------------------------------------------------------------------
// Experiments

func ns(d time.Duration, reps int) string {
	return fmt.Sprintf("%.1fµs", float64(d.Microseconds())/float64(reps))
}

// The headings of the experiment tables: their IDs, titles, notes and
// columns, which All lists without running anything.
var (
	figuresHead = Table{
		ID:     "figures",
		Title:  "Paper figures 4-12 as executable artifacts",
		Note:   "verdicts must read: (**) safe; (***) unsafe but possible",
		Header: []string{"artifact", "target", "verdict", "fork-states", "prod-states", "lazy-states", "sink-prunes"},
	}
	safeScalingHead = Table{
		ID:     "safe-scaling",
		Title:  "Safe rewriting cost vs schema size and depth bound (§4 complexity claim)",
		Note:   "deterministic content models: growth stays polynomial; exponent driven by k",
		Header: []string{"n", "k", "fork-states", "prod-states", "eager", "lazy"},
	}
	complementBlowupHead = Table{
		ID:     "complement-blowup",
		Title:  "Complement automaton size: deterministic vs non-deterministic content models (§4)",
		Note:   "XML Schema's UPA rule keeps real schemas in the left half",
		Header: []string{"n", "det-states", "det-time", "nondet-states", "nondet-time"},
	}
	possibleVsSafeHead = Table{
		ID:     "possible-vs-safe",
		Title:  "Possible rewriting vs safe rewriting cost (§5)",
		Header: []string{"n", "safe-states", "safe", "possible-states", "possible"},
	}
	lazyPruningHead = Table{
		ID:     "lazy-pruning",
		Title:  "Lazy variant pruning (§7, Figure 12)",
		Note:   "same verdicts, fewer explored states",
		Header: []string{"workload", "verdict", "eager-states", "lazy-states", "sink-prunes", "mark-prunes"},
	}
	mixedBenefitHead = Table{
		ID:     "mixed-benefit",
		Title:  "Mixed strategy: analysis size before vs after pre-invocation (§5)",
		Note:   "pre-invoked calls replace signature automata with concrete words",
		Header: []string{"n-funcs", "states-before", "time-before", "states-after", "time-after"},
	}
	kDepthHead = Table{
		ID:     "k-depth",
		Title:  "Materialization depth: recursive Get_More handle (§4 length bound)",
		Note:   "simulated service returns up to 3 urls and possibly another handle",
		Header: []string{"k", "calls", "final-urls", "still-intensional"},
	}
	schemaRewriteHead = Table{
		ID:     "schema-rewrite",
		Title:  "Schema-level compatibility checking (§6)",
		Note:   "(*)→(**) safe; (*)→(***) unsafe; identity always safe",
		Header: []string{"pair", "labels", "verdict", "time"},
	}
	copySharingHead = Table{
		ID:     "copy-sharing",
		Title:  "Ablation: shared vs per-edge output copies in A_w^k (recursive Get_More)",
		Note:   "identical languages; sharing turns exponential growth in k into linear",
		Header: []string{"k", "shared-states", "shared-time", "unshared-states", "unshared-time"},
	}
	parallelSpeedupHead = Table{
		ID:     "parallel-speedup",
		Title:  "Parallel materialization: wall clock vs degree, latency, density (§7 of DESIGN.md)",
		Note:   "independent sec subtrees; degree 1 is the sequential engine, byte-identical output",
		Header: []string{"latency", "funcs", "degree", "wall", "speedup"},
	}
)

// Figures (E-F4..E-F12): the verdicts and structural statistics of the
// paper's worked examples.
func Figures() *Table {
	c, w := PaperCompiled()
	t := figuresHead.fresh()
	for _, tc := range []struct {
		name, target string
		want         string
	}{
		{"Fig6 safe into (**)", TargetStarStar, "safe"},
		{"Fig8 safe into (***)", TargetTripleStar, "unsafe"},
	} {
		target := regex.MustParse(c.Table, tc.target)
		a, err := core.AnalyzeSafe(c, w, target, 1)
		if err != nil {
			panic(err)
		}
		lazy, err := core.LazySafe(c, w, target, 1)
		if err != nil {
			panic(err)
		}
		verdict := "unsafe"
		if a.Safe() {
			verdict = "safe"
		}
		t.Rows = append(t.Rows, []string{
			tc.name, tc.target, verdict,
			fmt.Sprint(a.Fork.NumStates()),
			fmt.Sprint(a.NumProdStates()),
			fmt.Sprint(lazy.StatesExplored),
			fmt.Sprint(lazy.SinkPrunes),
		})
	}
	target := regex.MustParse(c.Table, TargetTripleStar)
	p, err := core.AnalyzePossible(c, w, target, 1)
	if err != nil {
		panic(err)
	}
	verdict := "impossible"
	if p.Possible() {
		verdict = "possible"
	}
	t.Rows = append(t.Rows, []string{
		"Fig11 possible into (***)", TargetTripleStar, verdict,
		fmt.Sprint(p.Fork.NumStates()), fmt.Sprint(p.NumProdStates()), "-", "-",
	})
	return t
}

// SafeScaling (E-C1): safe-analysis cost against schema size and k.
func SafeScaling(sizes []int, ks []int, reps int) *Table {
	t := safeScalingHead.fresh()
	for _, n := range sizes {
		c, w, target := ChainInstance(n)
		for _, k := range ks {
			a, err := core.AnalyzeSafe(c, w, target, k)
			if err != nil {
				panic(err)
			}
			start := time.Now()
			for i := 0; i < reps; i++ {
				if _, err := core.WordSafe(c, w, target, k); err != nil {
					panic(err)
				}
			}
			eager := time.Since(start)
			start = time.Now()
			for i := 0; i < reps; i++ {
				if _, err := core.LazySafe(c, w, target, k); err != nil {
					panic(err)
				}
			}
			lazy := time.Since(start)
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), fmt.Sprint(k),
				fmt.Sprint(a.Fork.NumStates()), fmt.Sprint(a.NumProdStates()),
				ns(eager, reps), ns(lazy, reps),
			})
		}
	}
	return t
}

// ComplementBlowup (E-C2): deterministic vs non-deterministic content models.
func ComplementBlowup(sizes []int, reps int) *Table {
	t := complementBlowupHead.fresh()
	for _, n := range sizes {
		tab := regex.NewTable()
		det := DetTarget(tab, n)
		nondet := NondetTarget(tab, n)
		detDFA := automata.ComplementOfRegex(det, det.Alphabet(nil))
		nondetDFA := automata.ComplementOfRegex(nondet, nondet.Alphabet(nil))
		start := time.Now()
		for i := 0; i < reps; i++ {
			automata.ComplementOfRegex(det, det.Alphabet(nil))
		}
		detTime := time.Since(start)
		start = time.Now()
		for i := 0; i < reps; i++ {
			automata.ComplementOfRegex(nondet, nondet.Alphabet(nil))
		}
		nondetTime := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprint(detDFA.NumStates()), ns(detTime, reps),
			fmt.Sprint(nondetDFA.NumStates()), ns(nondetTime, reps),
		})
	}
	return t
}

// PossibleVsSafe (E-C3): Figure 9 avoids complementation and is cheaper.
func PossibleVsSafe(sizes []int, reps int) *Table {
	t := possibleVsSafeHead.fresh()
	for _, n := range sizes {
		c, w, target := ChainInstance(n)
		a, err := core.AnalyzeSafe(c, w, target, 1)
		if err != nil {
			panic(err)
		}
		p, err := core.AnalyzePossible(c, w, target, 1)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := core.WordSafe(c, w, target, 1); err != nil {
				panic(err)
			}
		}
		safeTime := time.Since(start)
		start = time.Now()
		for i := 0; i < reps; i++ {
			if _, err := core.WordPossible(c, w, target, 1); err != nil {
				panic(err)
			}
		}
		possTime := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprint(a.NumProdStates()), ns(safeTime, reps),
			fmt.Sprint(p.NumProdStates()), ns(possTime, reps),
		})
	}
	return t
}

// LazyPruning (E-C5 / Figure 12): states explored, eager vs lazy.
func LazyPruning(seeds int) *Table {
	t := lazyPruningHead.fresh()
	add := func(name string, c *core.Compiled, w []core.Token, target *regex.Regex, k int) {
		a, err := core.AnalyzeSafe(c, w, target, k)
		if err != nil {
			panic(err)
		}
		l, err := core.LazySafe(c, w, target, k)
		if err != nil {
			panic(err)
		}
		if a.Safe() != l.Verdict {
			panic(fmt.Sprintf("verdict mismatch on %s", name))
		}
		verdict := "unsafe"
		if a.Safe() {
			verdict = "safe"
		}
		t.Rows = append(t.Rows, []string{
			name, verdict,
			fmt.Sprint(a.NumProdStates()), fmt.Sprint(l.StatesExplored),
			fmt.Sprint(l.SinkPrunes), fmt.Sprint(l.MarkPrunes),
		})
	}
	c, w := PaperCompiled()
	add("paper Fig6", c, w, regex.MustParse(c.Table, TargetStarStar), 1)
	add("paper Fig8", c, w, regex.MustParse(c.Table, TargetTripleStar), 1)
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := workload.RandomSchema(rng, workload.Options{Labels: 5, Funcs: 3})
		g := workload.NewGenerator(s, rng)
		root, err := g.Root()
		if err != nil {
			panic(err)
		}
		cc := core.Compile(s, s)
		tokens := core.TokensOf(cc, root)
		labels := s.SortedLabels()
		target := s.Labels[labels[rng.Intn(len(labels))]].Content
		if target == nil {
			continue
		}
		add(fmt.Sprintf("random seed=%d", seed), cc, tokens, target, 2)
	}
	return t
}

// MixedBenefit (E-C4): pre-invoking side-effect-free calls shrinks the safe
// analysis.
func MixedBenefit(sizes []int, reps int) *Table {
	t := mixedBenefitHead.fresh()
	for _, n := range sizes {
		c, w, target := ChainInstance(n)
		before, err := core.AnalyzeSafe(c, w, target, 1)
		if err != nil {
			panic(err)
		}
		startB := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := core.WordSafe(c, w, target, 1); err != nil {
				panic(err)
			}
		}
		timeBefore := time.Since(startB)
		// After pre-invocation every f_i has been replaced by its concrete
		// result a_i: the word is plain data.
		after := make([]core.Token, n)
		for i := range after {
			after[i] = core.Token{Sym: c.Table.Intern(fmt.Sprintf("a%d", i))}
		}
		afterA, err := core.AnalyzeSafe(c, after, target, 1)
		if err != nil {
			panic(err)
		}
		startA := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := core.WordSafe(c, after, target, 1); err != nil {
				panic(err)
			}
		}
		timeAfter := time.Since(startA)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprint(before.NumProdStates()), ns(timeBefore, reps),
			fmt.Sprint(afterA.NumProdStates()), ns(timeAfter, reps),
		})
	}
	return t
}

// KDepthGrowth (E-C6): materialized word length against k for a recursive
// handle (the |w|·x^k bound of §4).
func KDepthGrowth(ks []int) *Table {
	t := kDepthHead.fresh()
	for _, k := range ks {
		s := schema.MustParseText(`
root results
elem results = url*.Get_More?
elem url = data
func Get_More = data -> url*.Get_More?
`, nil)
		rng := rand.New(rand.NewSource(42))
		sim := workload.NewSimInvoker(s, rng)
		rw := core.NewRewriterWithConfig(s, s, core.RewriterConfig{Invoker: sim})
		rw.K = k
		rw.MaxCalls = 1 << k * 8
		root := doc.Elem("results",
			doc.Elem("url", doc.TextNode("u0")),
			doc.Call("Get_More", doc.TextNode("q")))
		// Target: as flat as k allows — the peer's own schema; the mixed
		// pre-invoke pass chases handles to depth k.
		out, err := rw.RewriteDocument(context.Background(), root, core.Mixed)
		row := []string{fmt.Sprint(k), "-", "-", "-"}
		if err == nil {
			urls := 0
			for _, ch := range out.Children {
				if ch.Label == "url" {
					urls++
				}
			}
			row = []string{
				fmt.Sprint(k),
				fmt.Sprint(rw.Audit.Len()),
				fmt.Sprint(urls),
				fmt.Sprint(out.HasFuncs()),
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// SchemaRewrite (E-C7): Definition 6 checks on the paper pair and scaling
// families.
func SchemaRewrite(sizes []int, reps int) *Table {
	t := schemaRewriteHead.fresh()
	sender := schema.MustParseText(PaperSchemaText, nil)
	addPair := func(name string, target *schema.Schema, k int) {
		c := core.Compile(sender, target)
		report, err := core.SchemaSafeRewrite(c, "", k)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := core.SchemaSafeRewrite(core.Compile(sender, target), "", k); err != nil {
				panic(err)
			}
		}
		verdict := "unsafe"
		if report.Safe() {
			verdict = "safe"
		}
		t.Rows = append(t.Rows, []string{name, fmt.Sprint(len(report.Verdicts)), verdict, ns(time.Since(start), reps)})
	}
	mkTarget := func(model string) *schema.Schema {
		text := strings.Replace(PaperSchemaText,
			"elem newspaper = title.date.(Get_Temp|temp).(TimeOut|exhibit*)",
			"elem newspaper = "+model, 1)
		s2, err := schema.ParseTextShared(schema.NewShared(sender.Table), text, nil)
		if err != nil {
			panic(err)
		}
		return s2
	}
	addPair("(*) -> (*)", sender, 1)
	addPair("(*) -> (**)", mkTarget(TargetStarStar), 1)
	addPair("(*) -> (***)", mkTarget(TargetTripleStar), 1)
	for _, n := range sizes {
		c, _, _ := ChainInstance(n)
		report, err := core.SchemaSafeRewrite(c, "", 1)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := core.SchemaSafeRewrite(c, "", 1); err != nil {
				panic(err)
			}
		}
		verdict := "unsafe"
		if report.Safe() {
			verdict = "safe"
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("chain(%d) identity", n), fmt.Sprint(len(report.Verdicts)), verdict, ns(time.Since(start), reps)})
	}
	return t
}

// CopySharing is the ablation of the fork-construction design choice: the
// literal per-edge attachment of Figure 3 versus sharing output copies
// between forks with identical (function, successor, depth) — exponential
// versus linear in k for recursive output types, same language.
func CopySharing(ks []int, reps int) *Table {
	t := copySharingHead.fresh()
	c, w, _ := RecursiveInstance()
	for _, k := range ks {
		shared, err := core.BuildFork(c, w, k)
		if err != nil {
			panic(err)
		}
		unshared, err := core.BuildForkUnshared(c, w, k)
		if err != nil {
			t.Rows = append(t.Rows, []string{fmt.Sprint(k),
				fmt.Sprint(shared.NumStates()), "-", "state cap exceeded", "-"})
			continue
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := core.BuildFork(c, w, k); err != nil {
				panic(err)
			}
		}
		sharedTime := time.Since(start)
		start = time.Now()
		for i := 0; i < reps; i++ {
			if _, err := core.BuildForkUnshared(c, w, k); err != nil {
				panic(err)
			}
		}
		unsharedTime := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k),
			fmt.Sprint(shared.NumStates()), ns(sharedTime, reps),
			fmt.Sprint(unshared.NumStates()), ns(unsharedTime, reps),
		})
	}
	return t
}

// ParallelSpeedup (E-P1): wall-clock materialization time against the
// parallelism degree, per-call latency, and function density. With zero
// latency the engine's overhead dominates and the degrees tie; with real
// round-trips the speedup approaches min(degree, independent calls).
func ParallelSpeedup(degrees []int, latencies []time.Duration, densities []int, reps int) *Table {
	t := parallelSpeedupHead.fresh()
	for _, lat := range latencies {
		for _, n := range densities {
			var base time.Duration
			for _, degree := range degrees {
				sender, target := ParallelPair()
				rw := core.NewRewriterWithConfig(sender, target, core.RewriterConfig{Depth: 2, Invoker: ParallelInvoker(lat)})
				rw.Parallelism = degree
				var total time.Duration
				for i := 0; i < reps; i++ {
					root := ParallelDoc(n)
					start := time.Now()
					if _, err := rw.RewriteDocument(context.Background(), root, core.Safe); err != nil {
						panic(err)
					}
					total += time.Since(start)
				}
				wall := total / time.Duration(reps)
				if degree == degrees[0] {
					base = wall
				}
				speedup := "1.00x"
				if wall > 0 {
					speedup = fmt.Sprintf("%.2fx", float64(base)/float64(wall))
				}
				t.Rows = append(t.Rows, []string{
					fmt.Sprint(lat), fmt.Sprint(n), fmt.Sprint(degree),
					fmt.Sprintf("%.2fms", float64(wall.Microseconds())/1000), speedup,
				})
			}
		}
	}
	return t
}

// Experiment is one table of the harness: its heading, known without
// running anything, and Run, which computes the table with the
// experiment's default parameters.
type Experiment struct {
	Head *Table
	Run  func() *Table
}

// All lists every experiment; none runs until its Run is called.
func All() []Experiment {
	return []Experiment{
		{&figuresHead, Figures},
		{&safeScalingHead, func() *Table { return SafeScaling([]int{4, 8, 16, 32}, []int{1, 2}, 5) }},
		{&complementBlowupHead, func() *Table { return ComplementBlowup([]int{4, 8, 12, 16}, 5) }},
		{&possibleVsSafeHead, func() *Table { return PossibleVsSafe([]int{4, 8, 16, 32}, 5) }},
		{&mixedBenefitHead, func() *Table { return MixedBenefit([]int{4, 8, 16, 32}, 5) }},
		{&lazyPruningHead, func() *Table { return LazyPruning(4) }},
		{&kDepthHead, func() *Table { return KDepthGrowth([]int{1, 2, 3, 4, 6}) }},
		{&schemaRewriteHead, func() *Table { return SchemaRewrite([]int{8, 16}, 3) }},
		{&copySharingHead, func() *Table { return CopySharing([]int{2, 4, 6, 8, 10}, 3) }},
		{&parallelSpeedupHead, func() *Table {
			return ParallelSpeedup([]int{1, 2, 4, 8},
				[]time.Duration{0, time.Millisecond, 5 * time.Millisecond},
				[]int{8, 32}, 3)
		}},
	}
}
