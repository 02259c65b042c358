package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/schema"
)

// stubInvoker dispatches on function name.
type stubInvoker map[string]func(call *doc.Node) ([]*doc.Node, error)

func (s stubInvoker) Invoke(_ context.Context, call *doc.Node) ([]*doc.Node, error) {
	f, ok := s[call.Label]
	if !ok {
		return nil, errors.New("no stub for " + call.Label)
	}
	return f(call)
}

func ret(nodes ...*doc.Node) func(*doc.Node) ([]*doc.Node, error) {
	return func(*doc.Node) ([]*doc.Node, error) { return doc.CloneForest(nodes), nil }
}

// fig2doc is the Figure 2.a newspaper document.
func fig2doc() *doc.Node {
	return doc.Elem("newspaper",
		doc.Elem("title", doc.TextNode("The Sun")),
		doc.Elem("date", doc.TextNode("04/10/2002")),
		doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))),
		doc.Call("TimeOut", doc.TextNode("exhibits")),
	)
}

const senderText = `
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

// targetSchema builds a target schema sharing the sender's symbol table,
// with the newspaper content model replaced by the given expression.
func targetSchema(t *testing.T, sender *schema.Schema, newspaper string) *schema.Schema {
	t.Helper()
	text := strings.Replace(senderText,
		"elem newspaper = title.date.(Get_Temp|temp).(TimeOut|exhibit*)",
		"elem newspaper = "+newspaper, 1)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), text, nil)
	if err != nil {
		t.Fatal(err)
	}
	return target
}

func paperRewriter(t *testing.T, newspaper string, inv Invoker) *Rewriter {
	t.Helper()
	sender := schema.MustParseText(senderText, nil)
	target := targetSchema(t, sender, newspaper)
	rw := NewRewriterWithConfig(sender, target, RewriterConfig{Depth: 2, Invoker: inv})
	rw.Audit = &Audit{}
	return rw
}

// TestFig2SafeExecution reproduces the paper's central example: rewriting
// the Figure 2.a document into schema (**) calls Get_Temp, keeps TimeOut.
func TestFig2SafeExecution(t *testing.T) {
	inv := stubInvoker{
		"Get_Temp": ret(doc.Elem("temp", doc.TextNode("15"))),
		"TimeOut": func(*doc.Node) ([]*doc.Node, error) {
			t.Error("TimeOut must not be invoked for schema (**)")
			return nil, nil
		},
	}
	rw := paperRewriter(t, "title.date.temp.(TimeOut|exhibit*)", inv)
	out, err := rw.RewriteDocument(context.Background(), fig2doc(), Safe)
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Context().Validate(out); err != nil {
		t.Fatalf("result does not validate: %v", err)
	}
	labels := out.ChildLabels()
	want := []string{"title", "date", "temp", "TimeOut"}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("children = %v want %v", labels, want)
		}
	}
	calls := rw.Audit.Calls()
	if len(calls) != 1 || calls[0].Func != "Get_Temp" {
		t.Errorf("audit = %+v want exactly one Get_Temp call", calls)
	}
}

// TestFig8SafeRefusal: rewriting into (***) is refused before any call.
func TestFig8SafeRefusal(t *testing.T) {
	invoked := false
	inv := ContextInvokerFunc(func(context.Context, *doc.Node) ([]*doc.Node, error) {
		invoked = true
		return nil, nil
	})
	rw := paperRewriter(t, "title.date.temp.exhibit*", inv)
	if _, err := rw.RewriteDocument(context.Background(), fig2doc(), Safe); err == nil {
		t.Fatal("safe rewriting into (***) should be refused")
	}
	if invoked {
		t.Error("safe mode must not invoke anything when refusing")
	}
	if rw.Audit.Len() != 0 {
		t.Error("audit should be empty after refusal")
	}
}

// TestFig11PossibleExecution: possible mode succeeds when TimeOut returns
// only exhibits, and fails (with the side effects on record) when it
// returns a performance.
func TestFig11PossibleExecution(t *testing.T) {
	exhibit := doc.Elem("exhibit", doc.Elem("title", doc.TextNode("Dali")), doc.Elem("date", doc.TextNode("2002")))
	lucky := stubInvoker{
		"Get_Temp": ret(doc.Elem("temp", doc.TextNode("15"))),
		"TimeOut":  ret(exhibit, exhibit),
	}
	rw := paperRewriter(t, "title.date.temp.exhibit*", lucky)
	out, err := rw.RewriteDocument(context.Background(), fig2doc(), Possible)
	if err != nil {
		t.Fatalf("lucky TimeOut: %v", err)
	}
	if err := rw.Context().Validate(out); err != nil {
		t.Fatalf("result invalid: %v", err)
	}
	if got := rw.Audit.Len(); got != 2 {
		t.Errorf("expected 2 calls (Get_Temp, TimeOut), audit = %d", got)
	}

	unlucky := stubInvoker{
		"Get_Temp": ret(doc.Elem("temp", doc.TextNode("15"))),
		"TimeOut":  ret(doc.Elem("performance", doc.TextNode("opera"))),
	}
	rw2 := paperRewriter(t, "title.date.temp.exhibit*", unlucky)
	_, err = rw2.RewriteDocument(context.Background(), fig2doc(), Possible)
	if err == nil {
		t.Fatal("unlucky TimeOut should fail the possible rewriting")
	}
	if rw2.Audit.Len() == 0 {
		t.Error("the failed attempt performed calls; the audit must show them")
	}
}

// TestPossibleRefusedStatically: an impossible request is refused with no
// calls at all.
func TestPossibleRefusedStatically(t *testing.T) {
	rw := paperRewriter(t, "title.date.temp.temp", stubInvoker{
		"Get_Temp": func(*doc.Node) ([]*doc.Node, error) {
			t.Error("must not invoke for an impossible target")
			return nil, nil
		},
	})
	if _, err := rw.RewriteDocument(context.Background(), fig2doc(), Possible); err == nil {
		t.Fatal("impossible target should be refused")
	}
	if rw.Audit.Len() != 0 {
		t.Error("no calls should be made for an impossible target")
	}
}

// TestNestedParams: the parameters of a function are themselves intensional
// and must be materialized (deepest first) before the function is invoked.
func TestNestedParams(t *testing.T) {
	sender := schema.MustParseText(`
root newspaper
elem newspaper = temp
elem temp = data
elem city = data
func Get_Temp = city -> temp
func Default_City = data -> city
`, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), `
root newspaper
elem newspaper = temp
elem temp = data
elem city = data
func Get_Temp = city -> temp
func Default_City = data -> city
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	inv := stubInvoker{
		"Default_City": func(*doc.Node) ([]*doc.Node, error) {
			order = append(order, "Default_City")
			return []*doc.Node{doc.Elem("city", doc.TextNode("Paris"))}, nil
		},
		"Get_Temp": func(call *doc.Node) ([]*doc.Node, error) {
			order = append(order, "Get_Temp")
			if len(call.Children) != 1 || call.Children[0].Label != "city" {
				t.Errorf("Get_Temp invoked with unmaterialized params: %v", call.Children)
			}
			return []*doc.Node{doc.Elem("temp", doc.TextNode("15"))}, nil
		},
	}
	rw := NewRewriterWithConfig(sender, target, RewriterConfig{Depth: 2, Invoker: inv})
	rw.Audit = &Audit{}
	root := doc.Elem("newspaper", doc.Call("Get_Temp", doc.Call("Default_City", doc.TextNode("fr"))))
	out, err := rw.RewriteDocument(context.Background(), root, Safe)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "Default_City" || order[1] != "Get_Temp" {
		t.Errorf("invocation order = %v, want params first", order)
	}
	if err := rw.Context().Validate(out); err != nil {
		t.Errorf("result invalid: %v", err)
	}
}

// TestStrictParamsFailure: a function whose parameters cannot be fixed
// fails the rewriting even when it could be kept.
func TestStrictParamsFailure(t *testing.T) {
	rw := paperRewriter(t, "title.date.(Get_Temp|temp).(TimeOut|exhibit*)", stubInvoker{})
	bad := fig2doc()
	bad.Children[2] = doc.Call("Get_Temp", doc.Elem("date")) // wrong param type
	if err := rw.CheckDocument(bad, Safe); err == nil {
		t.Fatal("unfixable parameters must be rejected")
	}
}

// TestDataCollapse: data elements containing data-returning function calls
// are materialized.
func TestDataCollapse(t *testing.T) {
	sender := schema.MustParseText(`
root page
elem page = temp
elem temp = data
func Read_Sensor = data -> data
`, nil)
	inv := stubInvoker{
		"Read_Sensor": ret(doc.TextNode("21.5")),
	}
	rw := NewRewriterWithConfig(sender, sender, RewriterConfig{Depth: 1, Invoker: inv})
	root := doc.Elem("page", doc.Elem("temp", doc.Call("Read_Sensor", doc.TextNode("s1"))))
	out, err := rw.RewriteDocument(context.Background(), root, Safe)
	if err != nil {
		t.Fatal(err)
	}
	tempElem := out.Children[0]
	if len(tempElem.Children) != 1 || tempElem.Children[0].Kind != doc.Text || tempElem.Children[0].Value != "21.5" {
		t.Errorf("temp content = %v", tempElem.Children)
	}
	if err := rw.Context().Validate(out); err != nil {
		t.Errorf("result invalid: %v", err)
	}
}

// TestValidateReturns: a service returning a non-conforming forest is caught.
func TestValidateReturns(t *testing.T) {
	inv := stubInvoker{
		"Get_Temp": ret(doc.Elem("city", doc.TextNode("nonsense"))),
	}
	rw := paperRewriter(t, "title.date.temp.(TimeOut|exhibit*)", inv)
	_, err := rw.RewriteDocument(context.Background(), fig2doc(), Safe)
	if err == nil || !strings.Contains(err.Error(), "non-conforming") {
		t.Fatalf("expected non-conforming result error, got %v", err)
	}
}

// TestInvokerError propagates service failures.
func TestInvokerError(t *testing.T) {
	inv := stubInvoker{
		"Get_Temp": func(*doc.Node) ([]*doc.Node, error) { return nil, errors.New("boom") },
	}
	rw := paperRewriter(t, "title.date.temp.(TimeOut|exhibit*)", inv)
	_, err := rw.RewriteDocument(context.Background(), fig2doc(), Safe)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected invoker error, got %v", err)
	}
}

// TestMaxCallsValve stops runaway recursive services.
func TestMaxCallsValve(t *testing.T) {
	sender := schema.MustParseText(`
root results
elem results = url*
elem url = data
func Get_More = data -> url*.Get_More?
`, nil)
	inv := stubInvoker{
		"Get_More": ret(doc.Elem("url", doc.TextNode("http://x")), doc.Call("Get_More", doc.TextNode("next"))),
	}
	rw := NewRewriterWithConfig(sender, sender, RewriterConfig{Depth: 50, Invoker: inv})
	rw.MaxCalls = 10
	root := doc.Elem("results", doc.Call("Get_More", doc.TextNode("q")))
	_, err := rw.RewriteDocument(context.Background(), root, Possible)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("expected call budget error, got %v", err)
	}
	if rw.Audit.Len() > 10 {
		t.Errorf("made %d calls, budget was 10", rw.Audit.Len())
	}
}

// TestRecursiveMaterialization: a Get_More handle that eventually dries up
// materializes fully in possible mode.
func TestRecursiveMaterialization(t *testing.T) {
	sender := schema.MustParseText(`
root results
elem results = url*.Get_More?
elem url = data
func Get_More = data -> url*.Get_More?
`, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), `
root results
elem results = url*
elem url = data
func Get_More = data -> url*.Get_More?
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	pages := 3
	inv := stubInvoker{
		"Get_More": func(*doc.Node) ([]*doc.Node, error) {
			pages--
			out := []*doc.Node{doc.Elem("url", doc.TextNode("u"))}
			if pages > 0 {
				out = append(out, doc.Call("Get_More", doc.TextNode("next")))
			}
			return out, nil
		},
	}
	rw := NewRewriterWithConfig(sender, target, RewriterConfig{Depth: 5, Invoker: inv})
	rw.Audit = &Audit{}
	root := doc.Elem("results", doc.Elem("url", doc.TextNode("u0")), doc.Call("Get_More", doc.TextNode("q")))
	out, err := rw.RewriteDocument(context.Background(), root, Possible)
	if err != nil {
		t.Fatal(err)
	}
	if out.HasFuncs() {
		t.Error("result still intensional")
	}
	if got := len(out.Children); got != 4 {
		t.Errorf("urls = %d want 4", got)
	}
	if rw.Audit.Len() != 3 {
		t.Errorf("calls = %d want 3", rw.Audit.Len())
	}
}

// TestMixedMode: pre-invoking the side-effect-free TimeOut turns the unsafe
// (***) request into a safe one when the actual data happens to conform.
func TestMixedMode(t *testing.T) {
	exhibit := doc.Elem("exhibit", doc.Elem("title", doc.TextNode("Dali")), doc.Elem("date", doc.TextNode("2002")))
	inv := stubInvoker{
		"Get_Temp": ret(doc.Elem("temp", doc.TextNode("15"))),
		"TimeOut":  ret(exhibit),
	}
	rw := paperRewriter(t, "title.date.temp.exhibit*", inv)
	out, err := rw.RewriteDocument(context.Background(), fig2doc(), Mixed)
	if err != nil {
		t.Fatalf("mixed mode should succeed with conforming actual data: %v", err)
	}
	if err := rw.Context().Validate(out); err != nil {
		t.Errorf("result invalid: %v", err)
	}
	// With a performance in the actual data, the post-pre-invocation safe
	// check refuses — after the speculative calls.
	inv2 := stubInvoker{
		"Get_Temp": ret(doc.Elem("temp", doc.TextNode("15"))),
		"TimeOut":  ret(doc.Elem("performance", doc.TextNode("opera"))),
	}
	rw2 := paperRewriter(t, "title.date.temp.exhibit*", inv2)
	if _, err := rw2.RewriteDocument(context.Background(), fig2doc(), Mixed); err == nil {
		t.Fatal("mixed mode should refuse when actual data does not conform")
	}
}

// TestMixedSkipsSideEffects: the speculative pass must not invoke
// side-effecting or costly functions.
func TestMixedSkipsSideEffects(t *testing.T) {
	sender := schema.MustParseText(`
root page
elem page = (Pay|receipt)
elem receipt = data
func Pay = data -> receipt {effects}
`, nil)
	inv := stubInvoker{
		"Pay": func(*doc.Node) ([]*doc.Node, error) {
			t.Error("side-effecting Pay must not be pre-invoked")
			return []*doc.Node{doc.Elem("receipt", doc.TextNode("ok"))}, nil
		},
	}
	rw := NewRewriterWithConfig(sender, sender, RewriterConfig{Depth: 1, Invoker: inv})
	root := doc.Elem("page", doc.Call("Pay", doc.TextNode("100")))
	out, err := rw.RewriteDocument(context.Background(), root, Mixed)
	if err != nil {
		t.Fatal(err)
	}
	if out.Children[0].Label != "Pay" {
		t.Error("Pay should have been kept")
	}
}

// TestMixedCallFreeAllocations: Mixed mode's pre-pass skips a subtree
// that holds no function node without a slot, a path or a closure, so on a
// call-free document a Mixed rewrite allocates no more than a Safe one
// (1,182 allocations against Safe's 15 when every element took a slot).
// Skipped under -race.
func TestMixedCallFreeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	rw := propRewriter(t, 1)
	d, err := rw.RewriteDocument(context.Background(), propDoc(rand.New(rand.NewSource(1)), 200), Safe)
	if err != nil {
		t.Fatal(err)
	}
	if d.HasFuncs() {
		t.Fatal("the materialized document still holds a call")
	}
	allocs := func(mode Mode) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := rw.RewriteDocument(context.Background(), d, mode); err != nil {
				t.Fatal(err)
			}
		})
	}
	safe, mixed := allocs(Safe), allocs(Mixed)
	t.Logf("call-free 200-section document: Safe %v allocations, Mixed %v", safe, mixed)
	if mixed > safe {
		t.Errorf("Mixed rewrite of a call-free document = %v allocations, Safe %v", mixed, safe)
	}
}

// TestRootFunctionDocument: a document whose root is a function node.
func TestRootFunctionDocument(t *testing.T) {
	sender := schema.MustParseText(`
root page
elem page = data
func Make_Page = data -> page
`, nil)
	inv := stubInvoker{
		"Make_Page": ret(doc.Elem("page", doc.TextNode("hello"))),
	}
	rw := NewRewriterWithConfig(sender, sender, RewriterConfig{Depth: 1, Invoker: inv})
	out, err := rw.RewriteDocument(context.Background(), doc.Call("Make_Page", doc.TextNode("x")), Safe)
	if err != nil {
		t.Fatal(err)
	}
	if out.Label != "page" || out.Kind != doc.Element {
		t.Errorf("root = %v %q", out.Kind, out.Label)
	}
}

// TestSchemaRewritePaper reproduces Section 6's example: schema (*) safely
// rewrites into (**) but not into (***).
func TestSchemaRewritePaper(t *testing.T) {
	sender := schema.MustParseText(senderText, nil)

	okTarget := targetSchema(t, sender, "title.date.temp.(TimeOut|exhibit*)")
	c := Compile(sender, okTarget)
	report, err := SchemaSafeRewrite(c, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Safe() {
		t.Fatalf("(*) should safely rewrite into (**): %+v", report.Failures())
	}

	badTarget := targetSchema(t, sender, "title.date.temp.exhibit*")
	c2 := Compile(sender, badTarget)
	report2, err := SchemaSafeRewrite(c2, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if report2.Safe() {
		t.Fatal("(*) must not safely rewrite into (***)")
	}
	fails := report2.Failures()
	if len(fails) == 0 || fails[0].Label != "newspaper" {
		t.Errorf("failures = %+v, want newspaper", fails)
	}
}

// TestSchemaRewriteIdentity: every schema safely rewrites into itself with
// k=0 (instances are already instances).
func TestSchemaRewriteIdentity(t *testing.T) {
	sender := schema.MustParseText(senderText, nil)
	c := Compile(sender, sender)
	report, err := SchemaSafeRewrite(c, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Safe() {
		t.Fatalf("identity schema rewrite failed: %+v", report.Failures())
	}
}

// TestSchemaRewriteDataMismatch: data vs structured content is flagged.
func TestSchemaRewriteDataMismatch(t *testing.T) {
	table := regex.NewTable()
	sender, err := schema.ParseTextShared(schema.NewShared(table), "root a\nelem a = b\nelem b = data", nil)
	if err != nil {
		t.Fatal(err)
	}
	target, err := schema.ParseTextShared(schema.NewShared(table), "root a\nelem a = b\nelem b = c\nelem c = data", nil)
	if err != nil {
		t.Fatal(err)
	}
	report, err := SchemaSafeRewrite(Compile(sender, target), "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if report.Safe() {
		t.Fatal("data/structured mismatch should fail")
	}
}

// TestSchemaRewriteErrors: missing root declarations are reported.
func TestSchemaRewriteErrors(t *testing.T) {
	s := schema.MustParseText("elem a = data", nil)
	c := Compile(s, s)
	if _, err := SchemaSafeRewrite(c, "", 1); err == nil {
		t.Error("missing root should error")
	}
	if _, err := SchemaSafeRewrite(c, "zzz", 1); err == nil {
		t.Error("undeclared root should error")
	}
}
