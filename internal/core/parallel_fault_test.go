// Fault-injection tests for the parallel materialization engine. They live
// in package core_test because internal/invoke imports internal/core: the
// injector and retry policies cannot be imported from within package core.
package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/invoke"
	"axml/internal/schema"
)

const faultSenderText = `
root page
elem page = a.b
elem a = (GetA|val)
elem b = (GetB|val)
elem val = data
func GetA = data -> val
func GetB = data -> val
`

// faultPair builds the two-branch sender and a target where both branches
// (or, with keepA, only b) must be materialized.
func faultPair(t *testing.T, keepA bool) (*schema.Schema, *schema.Schema) {
	t.Helper()
	sender := schema.MustParseText(faultSenderText, nil)
	text := strings.Replace(faultSenderText, "elem b = (GetB|val)", "elem b = val", 1)
	if !keepA {
		text = strings.Replace(text, "elem a = (GetA|val)", "elem a = val", 1)
	}
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), text, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sender, target
}

func faultDoc() *doc.Node {
	return doc.Elem("page",
		doc.Elem("a", doc.Call("GetA", doc.TextNode("x"))),
		doc.Elem("b", doc.Call("GetB", doc.TextNode("y"))))
}

// stubInv answers every call with a single val element.
type stubInv struct{}

func (stubInv) Invoke(_ context.Context, call *doc.Node) ([]*doc.Node, error) {
	return []*doc.Node{doc.Elem("val", doc.TextNode(call.Label))}, nil
}

// instantRetry wraps inv in a single-attempt retry policy: any failure
// surfaces as a transient *invoke.PolicyError, the class Possible/Mixed
// rewritings degrade over.
func instantRetry(inv core.Invoker) core.Invoker {
	return invoke.Chain(inv, invoke.WithRetry(invoke.Retry{
		Attempts: 1,
		Sleep:    func(context.Context, time.Duration) error { return nil },
	}))
}

// TestFaultParallelSafeCancelsSiblings: in safe mode a failed concurrent
// call must abort the whole rewriting promptly — the in-flight sibling (a
// hang that only ends on context cancellation) is cancelled rather than
// awaited to its own timeout.
func TestFaultParallelSafeCancelsSiblings(t *testing.T) {
	sender, target := faultPair(t, false)
	fi := invoke.NewFaultInjector(nil)
	// GetA: 100ms, then fail (nil inner). The delay gives GetB's hang time
	// to start so the test observes a genuine in-flight cancellation.
	fi.Plan("GetA", invoke.Fault{Kind: invoke.FaultLatency, Latency: 100 * time.Millisecond})
	fi.Plan("GetB", invoke.Fault{Kind: invoke.FaultHang})

	rw := core.NewRewriterWithConfig(sender, target, core.RewriterConfig{Depth: 2, Invoker: fi})
	rw.Audit = &core.Audit{}
	rw.Parallelism = 4
	start := time.Now()
	_, err := rw.RewriteDocument(context.Background(), faultDoc(), core.Safe)
	elapsed := time.Since(start)
	if !errors.Is(err, invoke.ErrInjected) {
		t.Fatalf("want ErrInjected from GetA, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("rewriting took %v: the hung sibling was not cancelled", elapsed)
	}
	if got := fi.Calls("GetB"); got != 1 {
		t.Errorf("GetB started %d times, want 1 (dispatched concurrently, then cancelled)", got)
	}
}

// TestFaultParallelPossibleDegrades: a transient failure on a concurrent
// call in possible mode must degrade to backtracking — the occurrence is
// frozen, EventDegraded is audited, and the rewriting fails only at final
// verification because the frozen call cannot match the target.
func TestFaultParallelPossibleDegrades(t *testing.T) {
	sender, target := faultPair(t, false)
	fi := invoke.NewFaultInjector(stubInv{})
	fi.Plan("GetA", invoke.Fault{Kind: invoke.FaultError})

	rw := core.NewRewriterWithConfig(sender, target, core.RewriterConfig{Depth: 2, Invoker: instantRetry(fi)})
	rw.Audit = &core.Audit{}
	rw.Parallelism = 4
	_, err := rw.RewriteDocument(context.Background(), faultDoc(), core.Possible)
	var nse *core.NotSafeError
	if !errors.As(err, &nse) {
		t.Fatalf("want NotSafeError after degradation, got %v", err)
	}
	degraded := false
	for _, e := range rw.Audit.Events() {
		if e.Kind == core.EventDegraded && e.Func == "GetA" {
			degraded = true
		}
	}
	if !degraded {
		t.Error("no EventDegraded for GetA in the audit: failure did not degrade to backtracking")
	}
}

// TestFaultParallelMixedPreInvokeDegrades: in the batched pre-invocation a
// transient failure freezes that occurrence and leaves it intensional while
// the rest of the batch lands; the rewriting still succeeds when the target
// admits the kept call.
func TestFaultParallelMixedPreInvokeDegrades(t *testing.T) {
	sender, target := faultPair(t, true) // target keeps (GetA|val) for a
	fi := invoke.NewFaultInjector(stubInv{})
	fi.Plan("GetA", invoke.Fault{Kind: invoke.FaultError})

	rw := core.NewRewriterWithConfig(sender, target, core.RewriterConfig{Depth: 2, Invoker: instantRetry(fi)})
	rw.Audit = &core.Audit{}
	rw.Parallelism = 4
	out, err := rw.RewriteDocument(context.Background(), faultDoc(), core.Mixed)
	if err != nil {
		t.Fatalf("mixed rewriting must survive the degraded pre-invocation: %v", err)
	}
	a, b := out.Children[0], out.Children[1]
	if len(a.Children) != 1 || a.Children[0].Kind != doc.Func || a.Children[0].Label != "GetA" {
		t.Errorf("a = %v, want the intensional GetA kept", a.ChildLabels())
	}
	if len(b.Children) != 1 || b.Children[0].Label != "val" {
		t.Errorf("b = %v, want the pre-invoked val", b.ChildLabels())
	}
	degraded := false
	for _, e := range rw.Audit.Events() {
		if e.Kind == core.EventDegraded && e.Func == "GetA" {
			degraded = true
		}
	}
	if !degraded {
		t.Error("no EventDegraded for GetA in the audit")
	}
	if got := fi.Calls("GetB"); got != 1 {
		t.Errorf("GetB called %d times, want 1 (batch proceeds past the fault)", got)
	}
}
