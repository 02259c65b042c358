package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"axml/internal/doc"
	"axml/internal/schema"
	"axml/internal/telemetry"
)

// recordingInvoker is a pure, concurrency-safe service simulator: the result
// depends only on the call (label + first text parameter), so rewritten
// trees are identical no matter what order — or how concurrently — the calls
// execute. Every call is recorded for invocation-set comparisons.
type recordingInvoker struct {
	mu    sync.Mutex
	calls []string
	// wide makes every call return two val elements instead of one.
	wideFor string
}

func (r *recordingInvoker) key(call *doc.Node) string {
	key := call.Label
	if len(call.Children) == 1 && call.Children[0].Kind == doc.Text {
		key += ":" + call.Children[0].Value
	}
	return key
}

func (r *recordingInvoker) Invoke(_ context.Context, call *doc.Node) ([]*doc.Node, error) {
	key := r.key(call)
	r.mu.Lock()
	r.calls = append(r.calls, key)
	r.mu.Unlock()
	out := []*doc.Node{doc.Elem("val", doc.TextNode(key))}
	if r.wideFor != "" && key == r.wideFor {
		out = append(out, doc.Elem("val", doc.TextNode(key)))
	}
	return out, nil
}

func (r *recordingInvoker) sorted() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]string(nil), r.calls...)
	sort.Strings(out)
	return out
}

const stressSenderText = `
root page
elem page = sec*
elem sec = (Get|val)
elem val = data
func Get = data -> val
`

// stressPair builds the sender/target pair for the subtree-fan-out stress
// shape: every sec must materialize its Get into a val.
func stressPair(t *testing.T) (*schema.Schema, *schema.Schema) {
	t.Helper()
	sender := schema.MustParseText(stressSenderText, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), strings.Replace(
		stressSenderText, "elem sec = (Get|val)", "elem sec = val", 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	return sender, target
}

// stressDoc builds a page of n sec elements, each holding one Get call with
// a distinct parameter.
func stressDoc(n int) *doc.Node {
	kids := make([]*doc.Node, n)
	for i := range kids {
		kids[i] = doc.Elem("sec", doc.Call("Get", doc.TextNode(fmt.Sprintf("p%d", i))))
	}
	return doc.Elem("page", kids...)
}

// TestParallelStressIdenticalAcrossDegrees materializes a 500-function
// document at parallelism 1, 4 and GOMAXPROCS under every mode and asserts
// the resulting trees and the invocation sets are identical. Run under
// -race, this is also the engine's data-race stress.
func TestParallelStressIdenticalAcrossDegrees(t *testing.T) {
	const funcs = 500
	sender, target := stressPair(t)
	degrees := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, mode := range []Mode{Safe, Possible, Mixed} {
		var refTree *doc.Node
		var refCalls []string
		for _, degree := range degrees {
			inv := &recordingInvoker{}
			rw := NewRewriterWithConfig(sender, target, RewriterConfig{Depth: 2, Invoker: inv})
			rw.Audit = &Audit{}
			rw.Parallelism = degree
			out, err := rw.RewriteDocument(context.Background(), stressDoc(funcs), mode)
			if err != nil {
				t.Fatalf("mode %v degree %d: %v", mode, degree, err)
			}
			if err := rw.Context().Validate(out); err != nil {
				t.Fatalf("mode %v degree %d: invalid result: %v", mode, degree, err)
			}
			if got := rw.Audit.Len(); got != funcs {
				t.Errorf("mode %v degree %d: audit has %d calls, want %d", mode, degree, got, funcs)
			}
			calls := inv.sorted()
			if refTree == nil {
				refTree, refCalls = out, calls
				continue
			}
			if !out.Equal(refTree) {
				t.Errorf("mode %v degree %d: tree differs from degree %d", mode, degree, degrees[0])
			}
			if len(calls) != len(refCalls) {
				t.Fatalf("mode %v degree %d: %d calls, want %d", mode, degree, len(calls), len(refCalls))
			}
			for i := range calls {
				if calls[i] != refCalls[i] {
					t.Fatalf("mode %v degree %d: invocation set differs at %d: %s vs %s",
						mode, degree, i, calls[i], refCalls[i])
				}
			}
		}
	}
}

// TestParallelWordPipeline exercises the within-word batch: one element
// whose content word holds hundreds of independent calls. Trees and call
// sets must match the sequential engine's.
func TestParallelWordPipeline(t *testing.T) {
	const funcs = 300
	text := `
root page
elem page = (Get|val)*
elem val = data
func Get = data -> val
`
	sender := schema.MustParseText(text, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), strings.Replace(
		text, "elem page = (Get|val)*", "elem page = val*", 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	kids := make([]*doc.Node, funcs)
	for i := range kids {
		kids[i] = doc.Call("Get", doc.TextNode(fmt.Sprintf("p%d", i)))
	}
	build := func() *doc.Node { return doc.Elem("page", doc.CloneForest(kids)...) }

	var refTree *doc.Node
	for _, degree := range []int{1, 8} {
		inv := &recordingInvoker{}
		rw := NewRewriterWithConfig(sender, target, RewriterConfig{Depth: 2, Invoker: inv})
		rw.Audit = &Audit{}
		rw.Parallelism = degree
		out, err := rw.RewriteDocument(context.Background(), build(), Safe)
		if err != nil {
			t.Fatalf("degree %d: %v", degree, err)
		}
		if err := rw.Context().Validate(out); err != nil {
			t.Fatalf("degree %d: invalid result: %v", degree, err)
		}
		// The batch buffers audits per slot and flushes in document order, so
		// even the call-record order is document order at every degree.
		records := rw.Audit.Calls()
		if len(records) != funcs {
			t.Fatalf("degree %d: %d calls, want %d", degree, len(records), funcs)
		}
		want := make([]string, funcs)
		for i := range want {
			want[i] = fmt.Sprintf("Get:p%d", i)
		}
		sort.Strings(want)
		got := inv.sorted()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("degree %d: call set differs at %d: %s vs %s", degree, i, got[i], want[i])
			}
		}
		if refTree == nil {
			refTree = out
		} else if !out.Equal(refTree) {
			t.Errorf("degree %d: tree differs from sequential", degree)
		}
	}
}

// TestParallelAuditDeterministic: per-slot audit buffering flushed in
// document order makes the call-record order deterministic — document order,
// in fact — at every fixed degree, concurrent execution notwithstanding, in
// every mode. On the stress document every record reads Get at depth 1; on
// a generated one, whose calls differ by function and whose parameters
// hold calls of their own, every run's order is degree 1's.
func TestParallelAuditDeterministic(t *testing.T) {
	const funcs = 120
	sender, target := stressPair(t)
	generated := propDoc(rand.New(rand.NewSource(5)), 8)
	for _, mode := range []Mode{Safe, Possible, Mixed} {
		var want []string
		for _, degree := range []int{1, 4} {
			for run := 0; run < 2; run++ {
				inv := &recordingInvoker{}
				rw := NewRewriterWithConfig(sender, target, RewriterConfig{Depth: 2, Invoker: inv})
				rw.Audit = &Audit{}
				rw.Parallelism = degree
				if _, err := rw.RewriteDocument(context.Background(), stressDoc(funcs), mode); err != nil {
					t.Fatalf("mode %v degree %d: %v", mode, degree, err)
				}
				records := rw.Audit.Calls()
				if len(records) != funcs {
					t.Fatalf("mode %v degree %d: %d records, want %d", mode, degree, len(records), funcs)
				}
				for i, c := range records {
					if c.Func != "Get" || c.Depth != 1 {
						t.Fatalf("mode %v degree %d: record %d = %+v", mode, degree, i, c)
					}
				}
				gen := propRewriter(t, degree)
				if _, err := gen.RewriteDocument(context.Background(), generated.Clone(), mode); err != nil {
					t.Fatalf("mode %v degree %d: generated document: %v", mode, degree, err)
				}
				got := auditKeys(gen.Audit)
				if want == nil {
					want = got
				} else if !slices.Equal(got, want) {
					t.Errorf("mode %v degree %d run %d: audit %v\nwant %v", mode, degree, run, got, want)
				}
			}
		}
	}
}

// TestParallelAdaptiveDeferral is the regression for the within-word
// deferral rule: when a pending call's output language has more than one
// word, the safe strategy for a later occurrence may depend on the actual
// answer (here: keep G when F returns val, call G when F returns w). Fixing
// G's verdict while F is in flight would wrongly invoke it and finish on
// val.val, which the target rejects. The engine must defer G's decision to
// the round after F's result is spliced — exactly the sequential decision.
func TestParallelAdaptiveDeferral(t *testing.T) {
	text := `
root page
elem page = F.G
elem val = data
elem w = data
func F = data -> (val|w)
func G = data -> val
`
	sender := schema.MustParseText(text, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), strings.Replace(
		text, "elem page = F.G", "elem page = (val.G)|(w.val)", 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, degree := range []int{1, 8} {
		calls := 0
		var mu sync.Mutex
		inv := ContextInvokerFunc(func(_ context.Context, call *doc.Node) ([]*doc.Node, error) {
			mu.Lock()
			calls++
			mu.Unlock()
			return []*doc.Node{doc.Elem("val", doc.TextNode(call.Label))}, nil
		})
		rw := NewRewriterWithConfig(sender, target, RewriterConfig{Depth: 2, Invoker: inv})
		rw.Audit = &Audit{}
		rw.Parallelism = degree
		root := doc.Elem("page",
			doc.Call("F", doc.TextNode("x")),
			doc.Call("G", doc.TextNode("y")))
		out, err := rw.RewriteDocument(context.Background(), root, Safe)
		if err != nil {
			t.Fatalf("degree %d: %v", degree, err)
		}
		labels := out.ChildLabels()
		if len(labels) != 2 || labels[0] != "val" || labels[1] != "G" {
			t.Errorf("degree %d: children = %v, want [val G] (G kept)", degree, labels)
		}
		if calls != 1 {
			t.Errorf("degree %d: %d calls, want 1 (only F)", degree, calls)
		}
	}
}

// TestWordAnalyzedOnceAtEveryDegree: on TestParallelAdaptiveDeferral's F.G
// pair, each position is analyzed once at every degree. The static check
// analyzes the word, the plan F, whose answer (val or w) leaves G open,
// and the second round G against F's actual answer: 3 word-memo lookups,
// one invoke and one keep at degree 1 and at degree 8. A round that
// analyzed G while F was in flight would analyze it twice.
func TestWordAnalyzedOnceAtEveryDegree(t *testing.T) {
	text := `
root page
elem page = F.G
elem val = data
elem w = data
func F = data -> (val|w)
func G = data -> val
`
	sender := schema.MustParseText(text, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), strings.Replace(
		text, "elem page = F.G", "elem page = (val.G)|(w.val)", 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	inv := ContextInvokerFunc(func(_ context.Context, call *doc.Node) ([]*doc.Node, error) {
		return []*doc.Node{doc.Elem("val", doc.TextNode(call.Label))}, nil
	})
	for _, degree := range []int{1, 8} {
		reg := telemetry.NewRegistry()
		c := Compile(sender, target)
		rw := NewRewriterForConfig(c, RewriterConfig{Depth: 2, Invoker: inv, Parallelism: degree, Telemetry: reg})
		root := doc.Elem("page", doc.Call("F", doc.TextNode("x")), doc.Call("G", doc.TextNode("y")))
		if _, err := rw.RewriteDocument(context.Background(), root, Safe); err != nil {
			t.Fatalf("degree %d: %v", degree, err)
		}
		if st := c.WordCacheStats(); st.Hits+st.Misses != 3 {
			t.Errorf("degree %d: %d word-memo lookups, want 3", degree, st.Hits+st.Misses)
		}
		for decision, want := range map[string]float64{"invoke": 1, "keep": 1} {
			if v, _ := reg.Value("axml_word_decisions_total", "decision", decision); v != want {
				t.Errorf("degree %d: %v %s decisions, want %v", degree, v, decision, want)
			}
		}
	}
}

// TestNodePathSiblings: sibling paths share one boxed parent step and each
// renders its own last step — the aliasing the slice-based paths once had
// (a sibling's append overwrote the first's segment) cannot recur, and every
// step kind renders as the segment it replaced.
func TestNodePathSiblings(t *testing.T) {
	top := nodePath{label: "page", index: 0}
	up := top.box()
	a := nodePath{up: up, label: "a", index: 1}
	b := nodePath{up: up, label: "b", index: 12}
	param := nodePath{up: a.box(), label: "F", index: paramStep}
	plain := nodePath{up: param.box(), label: "x", index: plainStep}
	for _, c := range []struct {
		path nodePath
		want string
	}{
		{nodePath{}, ""},
		{top, "/page[0]"},
		{a, "/page[0]/a[1]"},
		{b, "/page[0]/b[12]"},
		{param, "/page[0]/a[1]/@F"},
		{plain, "/page[0]/a[1]/@F/x"},
	} {
		if got := c.path.String(); got != c.want {
			t.Errorf("path = %q, want %q", got, c.want)
		}
	}
}

// TestParallelErrorPathWideFanout: error paths reported out of a wide
// fan-out must name the failing subtree exactly, at every degree — the
// end-to-end face of the aliasing fix.
func TestParallelErrorPathWideFanout(t *testing.T) {
	const funcs = 60
	sender, target := stressPair(t)
	for _, degree := range []int{1, 4} {
		inv := &recordingInvoker{wideFor: "Get:p37"}
		rw := NewRewriterWithConfig(sender, target, RewriterConfig{Depth: 2, Invoker: inv})
		rw.Audit = &Audit{}
		rw.Parallelism = degree
		rw.ValidateReturns = false // let the bad splice reach the word check
		_, err := rw.RewriteDocument(context.Background(), stressDoc(funcs), Possible)
		if err == nil {
			t.Fatalf("degree %d: sec[37]'s double val must fail", degree)
		}
		var nse *NotSafeError
		if !errors.As(err, &nse) {
			t.Fatalf("degree %d: want NotSafeError, got %v", degree, err)
		}
		if nse.Path != "/page[0]/sec[37]" {
			t.Errorf("degree %d: error path = %q, want /page[0]/sec[37]", degree, nse.Path)
		}
	}
}

// TestSingletonWord pins the conservative singleton-language test the
// deferral rule relies on.
func TestSingletonWord(t *testing.T) {
	s := schema.MustParseText(`
root page
elem page = a.b
elem a = data
elem b = data
func One = data -> a.b
func Many = data -> (a|b)
func Star = data -> a*
func Opt = data -> a?
func Data = data -> data
`, nil)
	c := Compile(s, s)
	rw := NewRewriterForConfig(c, RewriterConfig{Depth: 1})
	ex := &executor{rw: rw}
	for fn, want := range map[string]bool{
		"One": true, "Many": false, "Star": false, "Opt": false, "Data": true,
	} {
		if got := ex.singletonOutput(doc.Call(fn)); got != want {
			t.Errorf("singletonOutput(%s) = %v, want %v", fn, got, want)
		}
	}
}

// TestParallelDefersAfterReturnedCall: a pending call whose one output
// word is itself a call settles nothing to its right. F returns a call of
// G, whose answer (x or y) decides whether H may be kept, so H must wait
// for G, as the sequential engine does: degree 4 keeps H after x, like
// degree 1, instead of invoking it alongside F.
func TestParallelDefersAfterReturnedCall(t *testing.T) {
	sender := schema.MustParseText(`
root page
elem page = (F|G|x|y).(H|z)
elem x = data
elem y = data
elem z = data
func F = data -> G
func G = data -> (x|y)
func H = data -> z
`, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), `
root page
elem page = (x.H)|(y.z)
elem x = data
elem y = data
elem z = data
func F = data -> G
func G = data -> (x|y)
func H = data -> z
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	inv := ContextInvokerFunc(func(_ context.Context, call *doc.Node) ([]*doc.Node, error) {
		switch call.Label {
		case "F":
			return []*doc.Node{doc.Call("G", doc.TextNode("g"))}, nil
		case "G":
			return []*doc.Node{doc.Elem("x", doc.TextNode("1"))}, nil
		}
		return []*doc.Node{doc.Elem("z", doc.TextNode("2"))}, nil
	})
	for _, degree := range []int{1, 4} {
		rw := NewRewriterWithConfig(sender, target, RewriterConfig{Depth: 2, Invoker: inv, Parallelism: degree})
		out, err := rw.RewriteDocument(context.Background(),
			doc.Elem("page", doc.Call("F", doc.TextNode("f")), doc.Call("H", doc.TextNode("h"))), Safe)
		if err != nil {
			t.Fatalf("degree %d: %v", degree, err)
		}
		if got := out.ChildLabels(); len(got) != 2 || got[0] != "x" || got[1] != "H" {
			t.Errorf("degree %d: children %v, want [x H]", degree, got)
		}
		if got := auditKeys(rw.Audit); len(got) != 2 {
			t.Errorf("degree %d: audit %v, want F and G only", degree, got)
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks for the error/audit-path string builders.

func BenchmarkPathString(b *testing.B) {
	var path nodePath
	for _, step := range []nodePath{{label: "page", index: 0}, {label: "sec", index: 12},
		{label: "item", index: 3}, {label: "Get", index: paramStep}, {label: "city", index: 0}} {
		step.up = path.box()
		path = step
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s := path.String(); len(s) == 0 {
			b.Fatal("empty")
		}
	}
}
