package core

import (
	"context"
	"strings"
	"testing"

	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/schema"
)

// patternSchemas builds a sender with concrete weather services and a target
// whose newspaper slot admits any Forecast-pattern function.
func patternSchemas(t *testing.T) (*schema.Schema, *schema.Schema) {
	t.Helper()
	preds := map[string]schema.Predicate{
		"uddi": func(name string, in, out *regex.Regex) bool {
			return strings.HasPrefix(name, "Get_")
		},
	}
	sender := schema.MustParseText(`
root newspaper
elem newspaper = title.(Get_Temp|Rogue_Temp|temp)
elem title = data
elem temp = data
elem city = data
func Get_Temp = city -> temp
func Rogue_Temp = city -> temp
`, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), `
root newspaper
elem newspaper = title.(Forecast|temp)
elem title = data
elem temp = data
elem city = data
pattern Forecast = city -> temp {pred=uddi}
`, preds)
	if err != nil {
		t.Fatal(err)
	}
	return sender, target
}

// TestPatternKeepSafe: a concrete function matching the target's pattern may
// be kept — the pattern expansion makes Get_Temp a word of the target model.
func TestPatternKeepSafe(t *testing.T) {
	sender, target := patternSchemas(t)
	rw := NewRewriterWithConfig(sender, target, RewriterConfig{Depth: 1, Invoker: stubInvoker{}})
	rw.Audit = &Audit{}
	good := doc.Elem("newspaper",
		doc.Elem("title", doc.TextNode("t")),
		doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))))
	out, err := rw.RewriteDocument(context.Background(), good, Safe)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Audit.Len() != 0 {
		t.Errorf("pattern-matching call should be kept, %d calls made", rw.Audit.Len())
	}
	if err := rw.Context().Validate(out); err != nil {
		t.Errorf("result invalid: %v", err)
	}
}

// TestPatternRejectedMustMaterialize: a function failing the predicate does
// not match the pattern; the only safe move is invoking it.
func TestPatternRejectedMustMaterialize(t *testing.T) {
	sender, target := patternSchemas(t)
	inv := stubInvoker{
		"Rogue_Temp": ret(doc.Elem("temp", doc.TextNode("12"))),
	}
	rw := NewRewriterWithConfig(sender, target, RewriterConfig{Depth: 1, Invoker: inv})
	rw.Audit = &Audit{}
	rogue := doc.Elem("newspaper",
		doc.Elem("title", doc.TextNode("t")),
		doc.Call("Rogue_Temp", doc.Elem("city", doc.TextNode("Paris"))))
	out, err := rw.RewriteDocument(context.Background(), rogue, Safe)
	if err != nil {
		t.Fatal(err)
	}
	calls := rw.Audit.Calls()
	if len(calls) != 1 || calls[0].Func != "Rogue_Temp" {
		t.Errorf("audit = %+v, want one Rogue_Temp call", calls)
	}
	if out.Children[1].Label != "temp" {
		t.Errorf("children = %v", out.ChildLabels())
	}
}

// TestPatternLazyAgrees: pattern expansion behaves identically in the lazy
// analysis: the words the check asks about the two documents, kept or
// frozen, get WordSafe's verdicts from LazySafe.
func TestPatternLazyAgrees(t *testing.T) {
	sender, target := patternSchemas(t)
	c := Compile(sender, target)
	model := target.Labels["newspaper"].Content
	for _, callName := range []string{"Get_Temp", "Rogue_Temp"} {
		for _, frozen := range []bool{false, true} {
			word := []Token{{Sym: c.Table.Intern("title")}, {Sym: c.Table.Intern(callName), Frozen: frozen}}
			eager, err := WordSafe(c, word, model, 1)
			if err != nil {
				t.Fatal(err)
			}
			lazy, err := LazySafe(c, word, model, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Safe either way while the call may be invoked (keep
			// Get_Temp, call Rogue_Temp).
			if want := !frozen || callName == "Get_Temp"; eager != want || lazy.Verdict != want {
				t.Errorf("%s frozen %v: eager=%v lazy=%v, want %v", callName, frozen, eager, lazy.Verdict, want)
			}
		}
	}
}

// TestAbstractPatternInOutputType: a service's output type mentions a
// pattern ("returns some Forecast-style function"); keeping the abstract
// occurrence matches the target's same pattern, and invoking it uses the
// pattern's output type.
func TestAbstractPatternInOutputType(t *testing.T) {
	sender := schema.MustParseText(`
root page
elem page = Directory
elem temp = data
elem city = data
func Directory = data -> Forecast
pattern Forecast = city -> temp
`, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), `
root page
elem page = Forecast|temp
elem temp = data
elem city = data
pattern Forecast = city -> temp
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(sender, target)
	w := WordTokens([]regex.Symbol{c.Table.Intern("Directory")})
	// Calling Directory yields an abstract Forecast occurrence, which the
	// target admits — safe at k=1.
	targetModel := regex.MustParse(c.Table, "Forecast|temp")
	safe, err := WordSafe(c, w, targetModel, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !safe {
		t.Error("keeping the returned Forecast function should be safe")
	}
	// Requiring a concrete temp needs the abstract function invoked too:
	// depth 2.
	tempOnly := regex.MustParse(c.Table, "temp")
	safe1, err := WordSafe(c, w, tempOnly, 1)
	if err != nil {
		t.Fatal(err)
	}
	if safe1 {
		t.Error("k=1 cannot invoke the returned function")
	}
	safe2, err := WordSafe(c, w, tempOnly, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !safe2 {
		t.Error("k=2 should invoke the returned Forecast function")
	}
}

// TestWildcardTarget: targets containing wildcards admit arbitrary kept
// content; exclusions force materialization.
func TestWildcardTarget(t *testing.T) {
	c, w := paperCompiled(t), []Token(nil)
	_ = w
	word := paperWord(c)
	// title.date.~* admits everything after title.date, functions included.
	anyTail := regex.MustParse(c.Table, "title.date.~*")
	safe, err := WordSafe(c, word, anyTail, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !safe {
		t.Error("wildcard tail should accept the word as-is")
	}
	// Excluding Get_Temp forces its materialization.
	noGetTemp := regex.MustParse(c.Table, "title.date.~!(Get_Temp)*")
	safe0, err := WordSafe(c, word, noGetTemp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if safe0 {
		t.Error("k=0 cannot remove the excluded Get_Temp")
	}
	safe1, err := WordSafe(c, word, noGetTemp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !safe1 {
		t.Error("k=1 materializes Get_Temp into temp, which the wildcard admits")
	}
	// Lazy agreement on wildcard targets.
	lazy, err := LazySafe(c, word, noGetTemp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !lazy.Verdict {
		t.Error("lazy disagrees on wildcard target")
	}
}

// TestWildcardInOutputType: a service may return arbitrary elements; safety
// against a closed target must treat the wildcard adversarially.
func TestWildcardInOutputType(t *testing.T) {
	s := schema.MustParseText(`
root page
elem page = Anything
elem a = data
func Anything = data -> ~*
`, nil)
	c := Compile(s, s)
	w := WordTokens([]regex.Symbol{c.Table.Intern("Anything")})
	// A closed target cannot be guaranteed: the wildcard may produce
	// anything at all.
	closed := regex.MustParse(c.Table, "a*")
	safe, err := WordSafe(c, w, closed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if safe {
		t.Error("calling a wildcard-output service can never be safe against a closed target")
	}
	possible, err := WordPossible(c, w, closed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !possible {
		t.Error("it is possible though (the service may return only a's)")
	}
	// An open target is safe.
	open := regex.MustParse(c.Table, "~*")
	safeOpen, err := WordSafe(c, w, open, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !safeOpen {
		t.Error("wildcard target accepts whatever comes back")
	}
	// Lazy agreement across all three.
	for _, tc := range []struct {
		target *regex.Regex
		k      int
		want   bool
	}{{closed, 1, false}, {open, 1, true}} {
		l, err := LazySafe(c, w, tc.target, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if l.Verdict != tc.want {
			t.Errorf("lazy wildcard verdict = %v want %v", l.Verdict, tc.want)
		}
	}
}

// TestAuditCosts: cost metadata flows into the audit.
func TestAuditCosts(t *testing.T) {
	sender := schema.MustParseText(`
root page
elem page = temp.temp
elem temp = data
elem city = data
func Cheap = city -> temp {cost=1}
func Pricey = city -> temp {cost=10}
`, nil)
	inv := stubInvoker{
		"Cheap":  ret(doc.Elem("temp", doc.TextNode("1"))),
		"Pricey": ret(doc.Elem("temp", doc.TextNode("2"))),
	}
	rw := NewRewriterWithConfig(sender, sender, RewriterConfig{Depth: 1, Invoker: inv})
	rw.Audit = &Audit{}
	root := doc.Elem("page",
		doc.Call("Cheap", doc.Elem("city")),
		doc.Call("Pricey", doc.Elem("city")))
	// Target requires both materialized.
	if _, err := rw.RewriteForest(context.Background(), []*doc.Node{root}, regex.MustParse(sender.Table, "page"), Safe); err != nil {
		t.Fatal(err)
	}
	if got := rw.Audit.TotalCost(); got != 11 {
		t.Errorf("TotalCost = %v want 11", got)
	}
	if rw.Audit.String() == "" {
		t.Error("Audit.String empty")
	}
}

// TestTokensOfForest and fork statistics.
func TestForkStatistics(t *testing.T) {
	c, _ := PaperPairForTest(t)
	forest := []*doc.Node{
		doc.Elem("title"),
		doc.TextNode("skip me"),
		doc.Call("Get_Temp", doc.Elem("city")),
	}
	tokens := TokensOfForest(c, forest)
	if len(tokens) != 2 {
		t.Fatalf("tokens = %d", len(tokens))
	}
	fork, err := BuildFork(c, tokens, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fork.NumStates() < 3 || fork.NumEdges() < 3 {
		t.Errorf("stats: states=%d edges=%d", fork.NumStates(), fork.NumEdges())
	}
	a, err := AnalyzePossible(c, tokens, regex.MustParse(c.Table, "title.temp"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumProdStates() == 0 {
		t.Error("possible product empty")
	}
	sa, err := AnalyzeSafe(c, tokens, regex.MustParse(c.Table, "title.temp"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if sa.NumProdEdges() == 0 {
		t.Error("safe product has no edges")
	}
}

// PaperPairForTest exposes the paper fixture for sibling test files.
func PaperPairForTest(t *testing.T) (*Compiled, []Token) {
	t.Helper()
	c := paperCompiled(t)
	return c, paperWord(c)
}

// TestModeAndErrorStrings: formatting helpers.
func TestModeAndErrorStrings(t *testing.T) {
	if Safe.String() != "safe" || Possible.String() != "possible" || Mixed.String() != "mixed" {
		t.Error("mode strings wrong")
	}
	if !strings.Contains(Mode(9).String(), "9") {
		t.Error("unknown mode string")
	}
	e := &NotSafeError{Msg: "boom"}
	if !strings.Contains(e.Error(), "boom") || strings.Contains(e.Error(), "//") {
		t.Errorf("error = %q", e.Error())
	}
	e2 := &NotSafeError{Path: "/a/b", Msg: "boom"}
	if !strings.Contains(e2.Error(), "/a/b") {
		t.Errorf("error = %q", e2.Error())
	}
}

// TestDocumentTypeErrors: root resolution corner cases.
func TestDocumentTypeErrors(t *testing.T) {
	s := schema.MustParseText("elem a = data", nil) // no root declared
	rw := NewRewriterWithConfig(s, s, RewriterConfig{Depth: 1})
	if err := rw.CheckDocument(doc.Call("F"), Safe); err == nil {
		t.Error("function root without schema root should fail")
	}
	if err := rw.CheckDocument(doc.Elem("undeclared"), Safe); err == nil {
		t.Error("undeclared root label should fail")
	}
	if err := rw.CheckDocument(doc.Elem("a", doc.TextNode("x")), Safe); err != nil {
		t.Errorf("declared data root should pass: %v", err)
	}
}

// TestInvokerFuncAdapter covers the function adapter.
func TestInvokerFuncAdapter(t *testing.T) {
	inv := ContextInvokerFunc(func(_ context.Context, call *doc.Node) ([]*doc.Node, error) {
		return []*doc.Node{doc.TextNode(call.Label)}, nil
	})
	out, err := inv.Invoke(context.Background(), doc.Call("X"))
	if err != nil || len(out) != 1 || out[0].Value != "X" {
		t.Errorf("adapter broken: %v %v", out, err)
	}
}

// Wildcard schemas: x is mentioned by page's content model but never
// declared, so x subtrees are foreign content the executor passes through.
const wildSenderText = `
root page
elem page = hdr.x*
elem hdr = data
elem val = data
func Get = data -> val
`

func wildRewriter(t *testing.T) *Rewriter {
	t.Helper()
	sender := schema.MustParseText(wildSenderText, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), wildSenderText, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewRewriterForConfig(Compile(sender, target), RewriterConfig{Invoker: newPureInvoker()})
}

// passesThroughUnchanged rewrites root in Safe mode with a lenient wildcard
// rewriter and checks the output equals the input and no call was made.
func passesThroughUnchanged(t *testing.T, root *doc.Node) {
	t.Helper()
	rw := wildRewriter(t)
	out, err := rw.RewriteDocument(context.Background(), root.Clone(), Safe)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(root) {
		t.Errorf("foreign content changed:\n%s\nwant\n%s", out, root)
	}
	if n := rw.Audit.Len(); n != 0 {
		t.Errorf("%d calls made, want none", n)
	}
}

// TestWildcardContentPassesThrough: foreign subtrees come out verbatim in
// lenient mode, and a strict context refuses them.
func TestWildcardContentPassesThrough(t *testing.T) {
	root := doc.Elem("page",
		doc.Elem("hdr", doc.TextNode("h")),
		doc.Elem("x",
			doc.Elem("y", doc.TextNode("w")),
			doc.TextNode("free  text"),
			doc.Elem("z"),
		),
		doc.Elem("x", doc.TextNode("only")),
		doc.Elem("x"),
	)
	passesThroughUnchanged(t, root)
	strict := wildRewriter(t)
	strict.Context().Strict = true
	if _, err := strict.RewriteDocument(context.Background(), root.Clone(), Safe); err == nil {
		t.Error("a strict context accepted foreign content")
	}
}

// TestWildcardCallKeptUninvoked: a call inside foreign content is foreign
// content too. It is kept as written and never invoked.
func TestWildcardCallKeptUninvoked(t *testing.T) {
	passesThroughUnchanged(t, doc.Elem("page",
		doc.Elem("hdr", doc.TextNode("h")),
		doc.Elem("x", doc.Call("Get", doc.TextNode("frozen"))),
	))
}
