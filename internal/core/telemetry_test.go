package core

import (
	"context"
	"strings"
	"testing"

	"axml/internal/doc"
	"axml/internal/schema"
	"axml/internal/telemetry"
)

// telemetryRewriter builds a fully instrumented rewriter over the Figure 2
// fixture and a fresh registry.
func telemetryRewriter(t *testing.T, inv Invoker) (*Rewriter, *telemetry.Registry) {
	t.Helper()
	sender := schema.MustParseText(senderText, nil)
	target := targetSchema(t, sender, "title.date.temp.(TimeOut|exhibit*)")
	reg := telemetry.NewRegistry()
	rw := NewRewriterWithConfig(sender, target, RewriterConfig{
		Invoker:   inv,
		Telemetry: reg,
	})
	return rw, reg
}

func TestRewriteTelemetry(t *testing.T) {
	inv := stubInvoker{
		"Get_Temp": ret(doc.Elem("temp", doc.TextNode("15"))),
	}
	rw, reg := telemetryRewriter(t, inv)
	if _, err := rw.RewriteDocument(context.Background(), fig2doc(), Safe); err != nil {
		t.Fatal(err)
	}

	mustValue := func(name string, labels ...string) float64 {
		t.Helper()
		v, ok := reg.Value(name, labels...)
		if !ok {
			t.Fatalf("series %s %v not registered", name, labels)
		}
		return v
	}
	if v := mustValue("axml_rewrites_total", "mode", "safe"); v != 1 {
		t.Errorf("rewrites_total = %v, want 1", v)
	}
	if v := mustValue("axml_rewrite_seconds", "mode", "safe"); v != 1 {
		t.Errorf("rewrite_seconds count = %v, want 1", v)
	}
	if v := mustValue("axml_word_decisions_total", "decision", "invoke"); v != 1 {
		t.Errorf("invoke decisions = %v, want 1 (Get_Temp)", v)
	}
	if v := mustValue("axml_word_decisions_total", "decision", "keep"); v < 1 {
		t.Errorf("keep decisions = %v, want >= 1 (TimeOut kept)", v)
	}
	if v := mustValue("axml_invoke_seconds", "endpoint", "Get_Temp"); v != 1 {
		t.Errorf("invoke latency observations = %v, want 1", v)
	}
	if v := mustValue("axml_word_verdicts_total", "engine", "eager", "mode", "safe"); v < 1 {
		t.Errorf("word verdicts = %v, want >= 1", v)
	}
	if v := mustValue("axml_automaton_states", "kind", "fork"); v < 1 {
		t.Errorf("fork size observations = %v, want >= 1", v)
	}
	// pre-registered but untouched series are visible at zero
	if v := mustValue("axml_invoke_retries_total"); v != 0 {
		t.Errorf("retries = %v, want 0", v)
	}
	if v := mustValue("axml_rewrites_total", "mode", "possible"); v != 0 {
		t.Errorf("possible rewrites = %v, want 0", v)
	}
}

// TestRewriteIDStampsAuditAndSpans pins the audit/trace correlation: one
// generated ID per top-level rewrite, present on call records, policy
// events and the root span's trace ID.
func TestRewriteIDStampsAuditAndSpans(t *testing.T) {
	inv := stubInvoker{
		"Get_Temp": ret(doc.Elem("temp", doc.TextNode("15"))),
	}
	rw, reg := telemetryRewriter(t, inv)
	ctx := telemetry.WithTraceID(context.Background(), "rw-test-1")
	if _, err := rw.RewriteDocument(ctx, fig2doc(), Safe); err != nil {
		t.Fatal(err)
	}
	calls := rw.Audit.Calls()
	if len(calls) != 1 || calls[0].Rewrite != "rw-test-1" {
		t.Fatalf("call records not stamped: %+v", calls)
	}
	var root *telemetry.SpanRecord
	for i, s := range reg.Tracer().Spans() {
		if s.Name == "rewrite.safe" {
			root = &reg.Tracer().Spans()[i]
		}
	}
	if root == nil {
		t.Fatal("no rewrite.safe span recorded")
	}
	if root.TraceID != "rw-test-1" {
		t.Errorf("span trace id = %q, want rw-test-1", root.TraceID)
	}
	var sawInvoke bool
	for _, s := range reg.Tracer().Spans() {
		if s.Name == "invoke.Get_Temp" {
			sawInvoke = true
			if s.TraceID != "rw-test-1" || s.ParentID == "" {
				t.Errorf("invoke span not linked: %+v", s)
			}
		}
	}
	if !sawInvoke {
		t.Error("no invoke.Get_Temp span recorded")
	}
}

// TestRewriteIDWithoutTelemetry: the ID machinery works with no registry
// configured — `axml rewrite -v` relies on this.
func TestRewriteIDWithoutTelemetry(t *testing.T) {
	inv := stubInvoker{
		"Get_Temp": ret(doc.Elem("temp", doc.TextNode("15"))),
	}
	rw := paperRewriter(t, "title.date.temp.(TimeOut|exhibit*)", inv)
	ctx := telemetry.WithTraceID(context.Background(), "rw-plain")
	if _, err := rw.RewriteDocument(ctx, fig2doc(), Safe); err != nil {
		t.Fatal(err)
	}
	calls := rw.Audit.Calls()
	if len(calls) != 1 || calls[0].Rewrite != "rw-plain" {
		t.Fatalf("call records not stamped without telemetry: %+v", calls)
	}
}

// TestEventBridge drives a failing invoker in possible mode and checks the
// degraded policy event reaches both the audit (stamped) and the counters.
func TestEventBridge(t *testing.T) {
	inv := stubInvoker{
		"Get_Temp": func(*doc.Node) ([]*doc.Node, error) {
			return nil, transientStub{}
		},
		"TimeOut": ret(doc.Elem("exhibit", doc.Elem("title", doc.TextNode("expo")),
			doc.Elem("date", doc.TextNode("05/10/2002")))),
	}
	sender := schema.MustParseText(senderText, nil)
	// The target requires temp, so possible mode must invoke Get_Temp; the
	// transient failure degrades to a frozen occurrence and the rewriting
	// ultimately fails — with the degradation on record.
	target := targetSchema(t, sender, "title.date.temp.(TimeOut|exhibit*)")
	reg := telemetry.NewRegistry()
	rw := NewRewriterWithConfig(sender, target, RewriterConfig{
		Invoker:   inv,
		Telemetry: reg,
	})
	if _, err := rw.RewriteDocument(context.Background(), fig2doc(), Possible); err == nil {
		t.Fatal("expected the degraded rewriting to fail")
	}
	if v, _ := reg.Value("axml_invoke_degraded_total"); v != 1 {
		t.Errorf("degraded counter = %v, want 1", v)
	}
	events := rw.Audit.Events()
	var found bool
	for _, e := range events {
		if e.Kind == EventDegraded {
			found = true
			if e.Rewrite == "" {
				t.Error("degraded event not stamped with a rewrite id")
			}
		}
	}
	if !found {
		t.Fatalf("no degraded event in audit: %+v", events)
	}
}

type transientStub struct{}

func (transientStub) Error() string       { return "transient stub failure" }
func (transientStub) TransientCall() bool { return true }

// TestParallelTelemetrySingleCounting: at degree 4 the slot buffers replay
// through the stamping sink exactly once, so bridged counters match the
// sequential run.
func TestParallelTelemetrySingleCounting(t *testing.T) {
	inv := stubInvoker{
		"Get_Temp": ret(doc.Elem("temp", doc.TextNode("15"))),
		"Get_Date": ret(doc.Elem("date", doc.TextNode("04/10/2002"))),
	}
	sender := schema.MustParseText(senderText, nil)
	target := targetSchema(t, sender, "title.date.temp.(TimeOut|exhibit*)")
	reg := telemetry.NewRegistry()
	rw := NewRewriterWithConfig(sender, target, RewriterConfig{
		Invoker:     inv,
		Telemetry:   reg,
		Parallelism: 4,
	})
	if _, err := rw.RewriteDocument(context.Background(), fig2doc(), Safe); err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Value("axml_rewrites_total", "mode", "safe"); v != 1 {
		t.Errorf("rewrites = %v, want 1", v)
	}
	if v, _ := reg.Value("axml_invoke_seconds", "endpoint", "Get_Temp"); v != 1 {
		t.Errorf("Get_Temp latency observations = %v, want exactly 1", v)
	}
	calls := rw.Audit.Calls()
	if len(calls) != 1 || calls[0].Rewrite == "" {
		t.Fatalf("parallel call records not stamped: %+v", calls)
	}
}

// TestInstrumentsNilSafety: a nil *Instruments is inert on every path.
func TestInstrumentsNilSafety(t *testing.T) {
	var ins *Instruments
	ins.countKeep()
	ins.countInvoke()
	ins.countDefer()
	ins.countBacktrack()
	ins.taskStart(true)
	ins.taskEnd()
	ins.round(phaseWord, 3)
	ins.observeWordVerdict(Lazy, Possible)
	ins.observeWordAnalysis(Eager, Safe, 0)
	ins.observeLazy(nil)
	ins.observeRewrite(Mixed, 0, nil, "")
	ins.observeEvent(InvokeEvent{Kind: EventTimeout})
	if ins.endpoint("x") != nil {
		t.Fatal("nil instruments returned live handles")
	}
	if ins.Registry() != nil {
		t.Fatal("nil instruments returned a registry")
	}
}

// TestCompiledCacheInstrument: the cache registers scrape-time series and
// pushes instruments onto resident and future Compileds.
func TestCompiledCacheInstrument(t *testing.T) {
	sender := schema.MustParseText(senderText, nil)
	target := targetSchema(t, sender, "title.date.temp.(TimeOut|exhibit*)")
	cc := NewCompiledCache(8)
	resident := cc.Get(sender, target) // compiled before instrumentation
	reg := telemetry.NewRegistry()
	cc.Instrument(reg)
	if resident.instruments() == nil {
		t.Fatal("resident Compiled not instrumented")
	}
	cc.Get(sender, target) // hit
	if v, _ := reg.Value("axml_compile_cache_hits_total"); v != 1 {
		t.Errorf("compile cache hits = %v, want 1", v)
	}
	if v, _ := reg.Value("axml_compile_cache_misses_total"); v != 1 {
		t.Errorf("compile cache misses = %v, want 1", v)
	}
	if v, _ := reg.Value("axml_compile_cache_entries"); v != 1 {
		t.Errorf("compile cache entries = %v, want 1", v)
	}
	// a different pair compiled after instrumentation is timed and wired
	target2 := targetSchema(t, sender, "title.date.(Get_Temp|temp).(TimeOut|exhibit*)")
	c2 := cc.Get(sender, target2)
	if c2.instruments() == nil {
		t.Fatal("newly compiled entry not instrumented")
	}
	if v, _ := reg.Value("axml_compile_seconds"); v != 1 {
		t.Errorf("compile_seconds observations = %v, want 1", v)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, sentinel := range []string{
		"axml_compile_cache_hits_total 1",
		"axml_word_cache_hits_total",
		"axml_compile_seconds_count 1",
	} {
		if !strings.Contains(b.String(), sentinel) {
			t.Errorf("exposition missing %q", sentinel)
		}
	}
}
