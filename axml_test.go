package axml_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"axml"
)

const senderSrc = `
root newspaper
elem newspaper = title.date.(Get_Temp|temp).(TimeOut|exhibit*)
elem title = data
elem date = data
elem temp = data
elem city = data
elem exhibit = title.date
elem performance = data
func Get_Temp = city -> temp
func TimeOut = data -> (exhibit|performance)*
`

const targetSrc = `
root newspaper
elem newspaper = title.date.temp.(TimeOut|exhibit*)
elem title = data
elem date = data
elem temp = data
elem city = data
elem exhibit = title.date
elem performance = data
func Get_Temp = city -> temp
func TimeOut = data -> (exhibit|performance)*
`

func newspaper() *axml.Node {
	return axml.Elem("newspaper",
		axml.Elem("title", axml.Text("The Sun")),
		axml.Elem("date", axml.Text("04/10/2002")),
		axml.Call("Get_Temp", axml.Elem("city", axml.Text("Paris"))),
		axml.Call("TimeOut", axml.Text("exhibits")),
	)
}

func weatherInvoker(t *testing.T) axml.Invoker {
	return axml.ContextInvokerFunc(func(_ context.Context, call *axml.Node) ([]*axml.Node, error) {
		switch call.Label {
		case "Get_Temp":
			return []*axml.Node{axml.Elem("temp", axml.Text("15"))}, nil
		default:
			t.Fatalf("unexpected call %q", call.Label)
			return nil, nil
		}
	})
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sender := axml.MustParseSchemaText(senderSrc)
	target := axml.MustParseSchemaTextShared(sender, targetSrc)

	if err := axml.Validate(sender, nil, newspaper()); err != nil {
		t.Fatalf("document should validate against sender schema: %v", err)
	}
	if err := axml.Validate(target, nil, newspaper()); err == nil {
		t.Fatal("document should not validate against target schema yet")
	}

	rw := axml.NewRewriterWithConfig(sender, target, axml.RewriterConfig{Depth: 2, Invoker: weatherInvoker(t)})
	rw.Audit = &axml.Audit{}
	out, err := rw.RewriteDocument(context.Background(), newspaper(), axml.Safe)
	if err != nil {
		t.Fatal(err)
	}
	if err := axml.Validate(target, nil, out); err != nil {
		t.Fatalf("rewritten document invalid: %v", err)
	}
	if rw.Audit.Len() != 1 {
		t.Errorf("calls = %d want 1", rw.Audit.Len())
	}
}

func TestPublicAPIDocumentRoundTrip(t *testing.T) {
	s := axml.DocumentString(newspaper())
	back, err := axml.ParseDocumentString(s)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(newspaper()) {
		t.Error("document round trip changed tree")
	}
}

func TestPublicAPISchemaCompatibility(t *testing.T) {
	sender := axml.MustParseSchemaText(senderSrc)
	target := axml.MustParseSchemaTextShared(sender, targetSrc)
	report, err := axml.SchemaCompatible(sender, target, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Safe() {
		t.Errorf("(*) should be compatible with (**): %+v", report.Failures())
	}
	bad := axml.MustParseSchemaTextShared(sender, strings.Replace(targetSrc,
		"elem newspaper = title.date.temp.(TimeOut|exhibit*)",
		"elem newspaper = title.date.temp.exhibit*", 1))
	report2, err := axml.SchemaCompatible(sender, bad, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if report2.Safe() {
		t.Error("(*) must not be compatible with (***)")
	}
}

func TestPublicAPIXSDRoundTrip(t *testing.T) {
	sender := axml.MustParseSchemaText(senderSrc)
	var b strings.Builder
	if err := axml.WriteXSD(&b, sender, nil); err != nil {
		t.Fatal(err)
	}
	back, err := axml.ParseXSD(strings.NewReader(b.String()), nil, nil)
	if err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	if err := axml.Validate(back, nil, newspaper()); err != nil {
		t.Errorf("XSD round-tripped schema rejects the document: %v", err)
	}
}

func TestPublicAPICheckOnly(t *testing.T) {
	sender := axml.MustParseSchemaText(senderSrc)
	target := axml.MustParseSchemaTextShared(sender, targetSrc)
	rw := axml.NewRewriterWithConfig(sender, target, axml.RewriterConfig{Depth: 2}) // no invoker: checks only
	if err := rw.CheckDocument(newspaper(), axml.Safe); err != nil {
		t.Errorf("safe check failed: %v", err)
	}
	if _, err := rw.RewriteDocument(context.Background(), newspaper(), axml.Safe); err == nil {
		t.Error("rewriting without an invoker should fail loudly")
	}
}

// TestPublicAPIPolicies drives the invocation layer purely through the axml
// facade: RewriterConfig, policy constructors and the fault injector, without
// importing any internal package.
func TestPublicAPIPolicies(t *testing.T) {
	sender := axml.MustParseSchemaText(senderSrc)
	target := axml.MustParseSchemaTextShared(sender, targetSrc)

	fi := axml.NewFaultInjector(weatherInvoker(t)).
		Plan("Get_Temp", axml.Fault{Kind: axml.FaultError}).
		Plan("TimeOut", axml.Fault{Kind: axml.FaultGarbage, Result: nil})
	rw := axml.NewRewriterWithConfig(sender, target, axml.RewriterConfig{
		Depth:   1,
		Invoker: fi,
		Policies: []axml.InvokePolicy{
			axml.WithBreaker(axml.BreakerPolicy{Failures: 5}),
			axml.WithRetry(axml.RetryPolicy{Attempts: 2, Sleep: func(ctx context.Context, d time.Duration) error { return nil }}),
			axml.WithTimeout(time.Second),
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := rw.RewriteDocument(ctx, newspaper(), axml.Safe)
	if err != nil {
		t.Fatal(err)
	}
	if out.Children[2].Label != "temp" {
		t.Errorf("temp not materialized after retry: %v", out.ChildLabels())
	}
	if rw.Audit == nil || rw.Audit.EventCount("attempt") < 2 {
		t.Errorf("config path should audit attempts, got %v", rw.Audit.Events())
	}
}

// TestPublicAPITelemetry drives the telemetry surface purely through the
// facade: a registry threaded via RewriterConfig, a pinned rewrite ID, the
// Prometheus exposition and the span ring.
func TestPublicAPITelemetry(t *testing.T) {
	sender := axml.MustParseSchemaText(senderSrc)
	target := axml.MustParseSchemaTextShared(sender, targetSrc)
	reg := axml.NewTelemetry()
	rw := axml.NewRewriterWithConfig(sender, target, axml.RewriterConfig{
		Depth:     1,
		Invoker:   weatherInvoker(t),
		Telemetry: reg,
	})
	id := axml.NewRewriteID()
	ctx := axml.WithRewriteID(context.Background(), id)
	if _, err := rw.RewriteDocument(ctx, newspaper(), axml.Safe); err != nil {
		t.Fatal(err)
	}
	if v, ok := reg.Value("axml_rewrites_total", "mode", "safe"); !ok || v != 1 {
		t.Errorf("axml_rewrites_total{mode=safe} = %v, %v", v, ok)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `axml_invoke_seconds_count{endpoint="Get_Temp"} 1`) {
		t.Errorf("exposition missing invoke series:\n%s", sb.String())
	}
	var rewriteSpan *axml.TelemetrySpanRecord
	for _, s := range reg.Tracer().Spans() {
		if s.Name == "rewrite.safe" {
			s := s
			rewriteSpan = &s
		}
	}
	if rewriteSpan == nil {
		t.Fatal("no rewrite.safe span recorded")
	}
	if rewriteSpan.TraceID != id {
		t.Errorf("span trace %q not pinned to rewrite id %q", rewriteSpan.TraceID, id)
	}
	if got := rw.Audit.Calls()[0].Rewrite; got != id {
		t.Errorf("audit record stamped %q want %q", got, id)
	}
}
