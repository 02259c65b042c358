package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"axml/internal/doc"
	"axml/internal/schema"
)

// The audit keeps a window of the newest calls and events, while Len,
// TotalCost and EventCount stay exact totals over everything recorded.
func TestAuditWindowKeepsNewestAndExactTotals(t *testing.T) {
	const n = 3 * auditWindow
	var a Audit
	kinds := []string{EventAttempt, EventRetryWait, EventTimeout}
	wantCost := 0.0
	for i := 0; i < n; i++ {
		c := CallRecord{Func: fmt.Sprintf("f%d", i), Cost: float64(i % 5), Rewrite: fmt.Sprintf("r%d", i%3)}
		a.Record(c)
		wantCost += c.Cost
		a.RecordEvent(InvokeEvent{Func: c.Func, Kind: kinds[i%len(kinds)], Rewrite: c.Rewrite})
	}
	if got := a.Len(); got != n {
		t.Errorf("Len = %d, want %d", got, n)
	}
	if got := a.TotalCost(); got != wantCost {
		t.Errorf("TotalCost = %v, want %v", got, wantCost)
	}
	for _, k := range kinds {
		if got := a.EventCount(k); got != n/len(kinds) {
			t.Errorf("EventCount(%s) = %d, want %d", k, got, n/len(kinds))
		}
	}

	calls, events := a.Calls(), a.Events()
	if len(calls) != auditWindow || len(events) != auditWindow {
		t.Fatalf("retained %d calls and %d events, want %d each", len(calls), len(events), auditWindow)
	}
	for i := range calls {
		want := fmt.Sprintf("f%d", n-auditWindow+i)
		if calls[i].Func != want || events[i].Func != want {
			t.Fatalf("retained[%d] = call %s, event %s, want %s (newest, oldest first)",
				i, calls[i].Func, events[i].Func, want)
		}
	}
	if got := len(a.CallsFor("r1")); got != auditWindow/3+1 && got != auditWindow/3 {
		t.Errorf("CallsFor scanned beyond the window: %d matches", got)
	}
	if c, e := cap(a.calls.buf), cap(a.events.buf); c > 2*auditWindow || e > 2*auditWindow {
		t.Errorf("retained capacity %d calls, %d events; want at most %d", c, e, 2*auditWindow)
	}

	a.Reset()
	if a.Len() != 0 || a.TotalCost() != 0 || a.EventCount(EventAttempt) != 0 || len(a.Calls()) != 0 {
		t.Errorf("Reset left %v", &a)
	}
	a.Record(CallRecord{Func: "after"})
	if calls := a.Calls(); len(calls) != 1 || calls[0].Func != "after" {
		t.Errorf("after Reset: %v", calls)
	}
}

// attemptInvoker emits one attempt event per call before answering, the
// way the policy chain does, so event totals can be checked end to end.
type attemptInvoker struct{ recordingInvoker }

func (a *attemptInvoker) Invoke(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
	Emit(ctx, InvokeEvent{Func: call.Label, Kind: EventAttempt})
	return a.recordingInvoker.Invoke(ctx, call)
}

// A parallel slot buffers its whole subtree's calls and events before they
// reach the Rewriter's Audit; a slot holding more than the audit window
// must still replay every one of them.
func TestAuditExactThroughParallelSlots(t *testing.T) {
	const big = auditWindow + 904
	text := `
root page
elem page = wrap*
elem wrap = sec*
elem sec = (Get|val)
elem val = data
func Get = data -> val {cost=2}
`
	sender := schema.MustParseText(text, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), strings.Replace(
		text, "elem sec = (Get|val)", "elem sec = val", 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	secs := make([]*doc.Node, big)
	for i := range secs {
		secs[i] = doc.Elem("sec", doc.Call("Get", doc.TextNode(fmt.Sprintf("p%d", i))))
	}
	last := doc.Elem("sec", doc.Call("Get", doc.TextNode("last")))
	root := doc.Elem("page", doc.Elem("wrap", secs...), doc.Elem("wrap", last))

	rw := NewRewriterForConfig(Compile(sender, target), RewriterConfig{
		Depth: 2, Invoker: &attemptInvoker{}, Parallelism: 4,
	})
	if _, err := rw.RewriteDocument(context.Background(), root, Safe); err != nil {
		t.Fatal(err)
	}
	const want = big + 1
	if got := rw.Audit.Len(); got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
	if got := rw.Audit.TotalCost(); got != 2*want {
		t.Errorf("TotalCost = %v, want %v", got, 2*want)
	}
	if got := rw.Audit.EventCount(EventAttempt); got != want {
		t.Errorf("EventCount(attempt) = %d, want %d", got, want)
	}
	calls := rw.Audit.Calls()
	if len(calls) != auditWindow {
		t.Errorf("retained %d calls, want the newest %d", len(calls), auditWindow)
	}
}

// A document whose every call carries a nested parameter call: with more
// of them than the audit window, the Audit still counts every call, on the
// sequential and the parallel engine alike.
func TestAuditExactBeyondWindow(t *testing.T) {
	const deep = auditWindow + 104
	kids := []*doc.Node{doc.Elem("hdr", doc.TextNode("h"))}
	for i := 0; i < deep; i++ {
		kids = append(kids, doc.Elem("sec", doc.Elem("ttl", doc.TextNode("t")),
			doc.Call("Deep", doc.Call("MkTtl", doc.TextNode(fmt.Sprintf("d%d", i))))))
	}
	root := doc.Elem("page", kids...)
	const want = 2 * deep // one MkTtl parameter call and one Deep per occurrence
	for _, degree := range []int{1, 4} {
		rw := propRewriter(t, degree)
		if _, err := rw.RewriteDocument(context.Background(), root.Clone(), Safe); err != nil {
			t.Fatalf("degree %d: %v", degree, err)
		}
		if got := rw.Audit.Len(); got != want {
			t.Errorf("degree %d: Audit.Len = %d, want %d", degree, got, want)
		}
		if got := len(rw.Audit.Calls()); got != auditWindow {
			t.Errorf("degree %d: retained %d calls, want the newest %d", degree, got, auditWindow)
		}
	}
}
