package invoke

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/schema"
)

// instant is an injected Sleep that never actually waits, keeping the retry
// suites fast and deterministic.
func instant(ctx context.Context, d time.Duration) error { return ctx.Err() }

// tempService answers every call with a single materialized <temp> element.
var tempService = core.ContextInvokerFunc(func(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
	return []*doc.Node{doc.Elem("temp", doc.TextNode("20"))}, nil
})

// newsPair builds the Figure 2 sender/target pair: the sender may keep the
// call intensional, targetContent decides what the receiver accepts.
func newsPair(t *testing.T, targetContent string) (*schema.Schema, *schema.Schema) {
	t.Helper()
	sender := schema.MustParseText(`
root page
elem page = Get_Temp|temp
elem temp = data
elem city = data
func Get_Temp = city -> temp
`, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), fmt.Sprintf(`
root page
elem page = %s
elem temp = data
elem city = data
func Get_Temp = city -> temp
`, targetContent), nil)
	if err != nil {
		t.Fatal(err)
	}
	return sender, target
}

func pageDoc() *doc.Node {
	return doc.Elem("page", doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))))
}

// TestFaultRetryRecoversSafeMode is acceptance criterion (a): two transient
// errors, then a good answer — a Safe rewriting behind WithRetry(3) succeeds,
// and the audit shows exactly the attempts, pauses and faults that happened.
func TestFaultRetryRecoversSafeMode(t *testing.T) {
	sender, target := newsPair(t, "temp")
	fi := NewFaultInjector(tempService).
		Plan("Get_Temp", Fault{Kind: FaultError}, Fault{Kind: FaultError})
	rw := core.NewRewriterWithConfig(sender, target, core.RewriterConfig{
		Depth:    1,
		Invoker:  fi,
		Policies: []core.InvokePolicy{WithRetry(Retry{Attempts: 3, Sleep: instant})},
	})
	out, err := rw.RewriteDocument(context.Background(), pageDoc(), core.Safe)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Children) != 1 || out.Children[0].Label != "temp" {
		t.Fatalf("temp not materialized: %v", out.ChildLabels())
	}
	if got := fi.Calls("Get_Temp"); got != 3 {
		t.Errorf("delivery attempts = %d, want 3", got)
	}
	a := rw.Audit
	if n := a.EventCount(core.EventAttempt); n != 3 {
		t.Errorf("attempt events = %d, want 3", n)
	}
	if n := a.EventCount(core.EventRetryWait); n != 2 {
		t.Errorf("retry-wait events = %d, want 2", n)
	}
	if n := a.EventCount(core.EventFault); n != 2 {
		t.Errorf("fault events = %d, want 2", n)
	}
	if a.Len() != 1 {
		t.Errorf("call records = %d, want 1 (only the completed call)", a.Len())
	}
}

// TestFaultRetryExhaustedAbortsSafeMode: the same dead service aborts a Safe
// rewriting — Safe promised success, so a failed call is a hard error carrying
// the policy diagnosis.
func TestFaultRetryExhaustedAbortsSafeMode(t *testing.T) {
	sender, target := newsPair(t, "temp")
	fi := NewFaultInjector(nil) // schedule exhausted => ErrInjected every time
	rw := core.NewRewriterWithConfig(sender, target, core.RewriterConfig{
		Depth:    1,
		Invoker:  fi,
		Policies: []core.InvokePolicy{WithRetry(Retry{Attempts: 3, Sleep: instant})},
	})
	_, err := rw.RewriteDocument(context.Background(), pageDoc(), core.Safe)
	var pe *PolicyError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PolicyError, got %v", err)
	}
	if pe.Policy != "retry" || pe.Attempts != 3 {
		t.Errorf("PolicyError = %+v", pe)
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("cause not preserved: %v", err)
	}
	if !core.IsTransientCall(err) {
		t.Error("exhausted retry should classify as transient")
	}
	if n := rw.Audit.EventCount(core.EventExhausted); n != 1 {
		t.Errorf("exhausted events = %d, want 1", n)
	}
}

// TestFaultPossibleModeDegradesToBacktracking is acceptance criterion (b): in
// Possible mode the exhausted policy is treated like an unlucky answer — the
// occurrence is frozen, the backtracking machinery runs, and the caller gets
// the rewriting verdict (*NotSafeError), never the raw policy abort.
func TestFaultPossibleModeDegradesToBacktracking(t *testing.T) {
	sender, target := newsPair(t, "temp")
	fi := NewFaultInjector(nil)
	rw := core.NewRewriterWithConfig(sender, target, core.RewriterConfig{
		Depth:    1,
		Invoker:  fi,
		Policies: []core.InvokePolicy{WithRetry(Retry{Attempts: 2, Sleep: instant})},
	})
	root := pageDoc()
	_, err := rw.RewriteDocument(context.Background(), root, core.Possible)
	var nse *core.NotSafeError
	if !errors.As(err, &nse) {
		t.Fatalf("want *NotSafeError (degraded + backtracked), got %T: %v", err, err)
	}
	var pe *PolicyError
	if errors.As(err, &pe) {
		t.Errorf("policy abort leaked through the degradation path: %v", err)
	}
	if n := rw.Audit.EventCount(core.EventDegraded); n != 1 {
		t.Errorf("degraded events = %d, want 1", n)
	}
	if n := rw.Audit.EventCount(core.EventExhausted); n != 1 {
		t.Errorf("exhausted events = %d, want 1", n)
	}
}

// TestFaultMixedPreInvokeSurvivesDeadService: the Mixed speculative pass is
// best-effort — when the endpoint is dead, the call is left intensional and
// the rewriting still succeeds because the target admits the function node.
func TestFaultMixedPreInvokeSurvivesDeadService(t *testing.T) {
	sender, target := newsPair(t, "Get_Temp|temp")
	fi := NewFaultInjector(nil)
	rw := core.NewRewriterWithConfig(sender, target, core.RewriterConfig{
		Depth:    1,
		Invoker:  fi,
		Policies: []core.InvokePolicy{WithRetry(Retry{Attempts: 2, Sleep: instant})},
	})
	out, err := rw.RewriteDocument(context.Background(), pageDoc(), core.Mixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Children) != 1 || out.Children[0].Kind != doc.Func {
		t.Fatalf("dead service should stay intensional, got %v", out.ChildLabels())
	}
	if n := rw.Audit.EventCount(core.EventDegraded); n != 1 {
		t.Errorf("degraded events = %d, want 1", n)
	}
	if rw.Audit.Len() != 0 {
		t.Errorf("no call completed, but audit has %d records", rw.Audit.Len())
	}
}

// TestFaultMixedPreInvokeUsesLiveService: the control for the previous test —
// with a healthy endpoint the speculative pass materializes the call.
func TestFaultMixedPreInvokeUsesLiveService(t *testing.T) {
	sender, target := newsPair(t, "Get_Temp|temp")
	rw := core.NewRewriterWithConfig(sender, target, core.RewriterConfig{
		Depth:   1,
		Invoker: NewFaultInjector(tempService),
	})
	out, err := rw.RewriteDocument(context.Background(), pageDoc(), core.Mixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Children) != 1 || out.Children[0].Label != "temp" {
		t.Fatalf("live service should materialize, got %v", out.ChildLabels())
	}
}

// TestFaultTimeoutCancelsHang is acceptance criterion (c) at the policy
// level: a hung service under WithTimeout fails promptly with the timeout
// PolicyError while the surrounding rewriting context stays live, and the
// hung call's goroutine unwinds.
func TestFaultTimeoutCancelsHang(t *testing.T) {
	before := runtime.NumGoroutine()
	fi := NewFaultInjector(tempService).Plan("Get_Temp", Fault{Kind: FaultHang})
	inv := Chain(fi, WithTimeout(30*time.Millisecond))

	start := time.Now()
	_, err := inv.Invoke(context.Background(), doc.Call("Get_Temp"))
	elapsed := time.Since(start)

	var pe *PolicyError
	if !errors.As(err, &pe) || pe.Policy != "timeout" {
		t.Fatalf("want timeout PolicyError, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cause should be DeadlineExceeded: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("hang took %v to cancel", elapsed)
	}
	if !core.IsTransientCall(err) {
		t.Error("per-call timeout should classify as transient")
	}
	// Second scheduled call passes through: the timeout is per call.
	if out, err := inv.Invoke(context.Background(), doc.Call("Get_Temp")); err != nil || len(out) != 1 {
		t.Errorf("post-hang call failed: %v %v", out, err)
	}
	checkGoroutines(t, before)
}

// TestFaultTimeoutRespectsParentCancel: when the *parent* context dies first,
// the parent's error surfaces as-is, not a timeout PolicyError.
func TestFaultTimeoutRespectsParentCancel(t *testing.T) {
	fi := NewFaultInjector(nil).Plan("F", Fault{Kind: FaultHang})
	inv := Chain(fi, WithTimeout(time.Minute))
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	_, err := inv.Invoke(ctx, doc.Call("F"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	var pe *PolicyError
	if errors.As(err, &pe) {
		t.Errorf("parent cancellation must not be reported as a policy timeout: %v", err)
	}
}

// TestFaultRetryBackoffDeterministic pins the backoff schedule with injected
// jitter randomness: pause_i = base*mult^i scaled by (1-j+j*u).
func TestFaultRetryBackoffDeterministic(t *testing.T) {
	var waits []time.Duration
	capture := func(ctx context.Context, d time.Duration) error {
		waits = append(waits, d)
		return nil
	}
	inv := Chain(NewFaultInjector(nil), WithRetry(Retry{
		Attempts:   3,
		BaseDelay:  10 * time.Millisecond,
		Multiplier: 2,
		Jitter:     0.5,
		Rand:       func() float64 { return 0.5 },
		Sleep:      capture,
	}))
	if _, err := inv.Invoke(context.Background(), doc.Call("F")); err == nil {
		t.Fatal("dead service should fail")
	}
	want := []time.Duration{7500 * time.Microsecond, 15 * time.Millisecond}
	if len(waits) != len(want) {
		t.Fatalf("waits = %v, want %v", waits, want)
	}
	for i := range want {
		if waits[i] != want[i] {
			t.Errorf("wait[%d] = %v, want %v", i, waits[i], want[i])
		}
	}
}

// TestFaultRetryNonRetryable: a Retryable predicate stops the budget early
// and surfaces the original error.
func TestFaultRetryNonRetryable(t *testing.T) {
	fatal := errors.New("schema violation")
	fi := NewFaultInjector(nil).Plan("F", Fault{Kind: FaultError, Err: fatal})
	inv := Chain(fi, WithRetry(Retry{
		Attempts:  5,
		Sleep:     instant,
		Retryable: func(err error) bool { return !errors.Is(err, fatal) },
	}))
	_, err := inv.Invoke(context.Background(), doc.Call("F"))
	if !errors.Is(err, fatal) {
		t.Fatalf("want the non-retryable error, got %v", err)
	}
	if fi.Calls("F") != 1 {
		t.Errorf("non-retryable error was retried: %d calls", fi.Calls("F"))
	}
}

// TestFaultBreakerLifecycle drives the closed → open → half-open → closed
// cycle with a fake clock and checks every transition is reported as events.
func TestFaultBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	fi := NewFaultInjector(tempService).
		Plan("F", Fault{Kind: FaultError}, Fault{Kind: FaultError}, Fault{Kind: FaultError})
	inv := Chain(fi, WithBreaker(Breaker{Failures: 2, Cooldown: time.Minute, Now: clock}))
	audit := &core.Audit{}
	ctx := core.WithEventSink(context.Background(), audit)
	call := func() error { _, err := inv.Invoke(ctx, doc.Call("F")); return err }

	// Two failures trip the breaker.
	if err := call(); !errors.Is(err, ErrInjected) {
		t.Fatalf("1st call: %v", err)
	}
	if err := call(); !errors.Is(err, ErrInjected) {
		t.Fatalf("2nd call: %v", err)
	}
	if n := audit.EventCount(core.EventBreakerOpen); n != 1 {
		t.Fatalf("breaker-open events = %d, want 1", n)
	}
	// Open: calls fail fast without reaching the service.
	served := fi.TotalCalls()
	err := call()
	var pe *PolicyError
	if !errors.As(err, &pe) || pe.Policy != "breaker" || !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker should reject: %v", err)
	}
	if !core.IsTransientCall(err) {
		t.Error("breaker rejection should classify as transient")
	}
	if fi.TotalCalls() != served {
		t.Error("rejected call still reached the service")
	}
	if n := audit.EventCount(core.EventBreakerReject); n != 1 {
		t.Errorf("breaker-reject events = %d, want 1", n)
	}
	// After the cooldown, one probe is admitted; the third scheduled fault
	// fails it, re-opening the circuit.
	now = now.Add(61 * time.Second)
	if err := call(); !errors.Is(err, ErrInjected) {
		t.Fatalf("probe should reach the service: %v", err)
	}
	if n := audit.EventCount(core.EventBreakerHalfOpen); n != 1 {
		t.Errorf("half-open events = %d, want 1", n)
	}
	if n := audit.EventCount(core.EventBreakerOpen); n != 2 {
		t.Errorf("breaker-open events = %d, want 2 (probe failure re-opens)", n)
	}
	// Second cooldown: the schedule is exhausted, the probe succeeds, the
	// circuit closes and stays closed.
	now = now.Add(61 * time.Second)
	if err := call(); err != nil {
		t.Fatalf("successful probe: %v", err)
	}
	if n := audit.EventCount(core.EventBreakerClose); n != 1 {
		t.Errorf("breaker-close events = %d, want 1", n)
	}
	if err := call(); err != nil {
		t.Fatalf("closed circuit: %v", err)
	}
}

// TestFaultBreakerPerEndpoint: one dead endpoint must not open the circuit
// for a healthy one.
func TestFaultBreakerPerEndpoint(t *testing.T) {
	fi := NewFaultInjector(tempService).
		Plan("Dead", Fault{Kind: FaultError}, Fault{Kind: FaultError}, Fault{Kind: FaultError})
	inv := Chain(fi, WithBreaker(Breaker{Failures: 2, Cooldown: time.Hour}))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := inv.Invoke(ctx, doc.Call("Dead")); err == nil {
			t.Fatal("dead endpoint should fail")
		}
	}
	if _, err := inv.Invoke(ctx, doc.Call("Alive")); err != nil {
		t.Fatalf("healthy endpoint tripped by a dead one: %v", err)
	}
}

// TestFaultConcurrencyLimit: with one slot taken by a hung call, a waiter
// whose context dies fails with the limit PolicyError; releasing the slot
// restores service.
func TestFaultConcurrencyLimit(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	slow := core.ContextInvokerFunc(func(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
		once.Do(func() { close(entered) })
		select {
		case <-release:
			return []*doc.Node{doc.TextNode("ok")}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	inv := Chain(slow, WithConcurrencyLimit(1))

	done := make(chan error, 1)
	go func() {
		_, err := inv.Invoke(context.Background(), doc.Call("F"))
		done <- err
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := inv.Invoke(ctx, doc.Call("F"))
	var pe *PolicyError
	if !errors.As(err, &pe) || pe.Policy != "limit" {
		t.Fatalf("want limit PolicyError, got %v", err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("holder failed: %v", err)
	}
	if _, err := inv.Invoke(context.Background(), doc.Call("F")); err != nil {
		t.Fatalf("slot not released: %v", err)
	}
}

// TestFaultInjectorSchedule covers the schedule bookkeeping: per-label plans,
// the "*" catch-all, latency and garbage kinds, pass-through past the end.
func TestFaultInjectorSchedule(t *testing.T) {
	garbage := []*doc.Node{doc.Elem("nonsense")}
	fi := NewFaultInjector(tempService).
		Plan("F", Fault{Kind: FaultLatency, Latency: time.Millisecond}, Fault{Kind: FaultGarbage, Result: garbage}).
		Plan("*", Fault{Kind: FaultError})
	ctx := context.Background()

	// F #1: latency then delegate.
	if out, err := fi.Invoke(ctx, doc.Call("F")); err != nil || out[0].Label != "temp" {
		t.Fatalf("latency fault: %v %v", out, err)
	}
	// F #2: garbage result.
	if out, err := fi.Invoke(ctx, doc.Call("F")); err != nil || out[0].Label != "nonsense" {
		t.Fatalf("garbage fault: %v %v", out, err)
	}
	// F #3: schedule exhausted, pass-through.
	if out, err := fi.Invoke(ctx, doc.Call("F")); err != nil || out[0].Label != "temp" {
		t.Fatalf("pass-through: %v %v", out, err)
	}
	// G #1: the catch-all plan applies to labels without their own schedule.
	if _, err := fi.Invoke(ctx, doc.Call("G")); !errors.Is(err, ErrInjected) {
		t.Fatalf("catch-all: %v", err)
	}
	if fi.Calls("F") != 3 || fi.Calls("G") != 1 || fi.TotalCalls() != 4 {
		t.Errorf("counters: F=%d G=%d total=%d", fi.Calls("F"), fi.Calls("G"), fi.TotalCalls())
	}
}

// TestFaultChainOrder: policies[0] is the outermost layer — a retry outside a
// timeout re-attempts timed-out calls; swapped, the timeout caps all attempts
// together.
func TestFaultChainOrder(t *testing.T) {
	fi := NewFaultInjector(tempService).Plan("F", Fault{Kind: FaultHang})
	inv := Chain(fi,
		WithRetry(Retry{Attempts: 2, Sleep: instant}),
		WithTimeout(20*time.Millisecond),
	)
	out, err := inv.Invoke(context.Background(), doc.Call("F"))
	if err != nil || len(out) != 1 {
		t.Fatalf("retry-over-timeout should recover a single hang: %v %v", out, err)
	}
	if fi.Calls("F") != 2 {
		t.Errorf("calls = %d, want 2 (hang, then success)", fi.Calls("F"))
	}

	// Swapped: the single timeout budget covers both attempts, so a hang
	// exhausts the retry budget inside one expiring context.
	fi2 := NewFaultInjector(tempService).Plan("F", Fault{Kind: FaultHang})
	inv2 := Chain(fi2,
		WithTimeout(20*time.Millisecond),
		WithRetry(Retry{Attempts: 2, Sleep: instant}),
	)
	if _, err := inv2.Invoke(context.Background(), doc.Call("F")); err == nil {
		t.Fatal("timeout-over-retry cannot outlive its one deadline")
	}
}

// TestFaultRewriteCancellationNoLeak is acceptance criterion (c) end to end:
// a full policy chain over a hung service, cancelled mid-rewrite — prompt
// context error, no goroutine growth.
func TestFaultRewriteCancellationNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	sender, target := newsPair(t, "temp")
	fi := NewFaultInjector(nil).Plan("*", Fault{Kind: FaultHang}, Fault{Kind: FaultHang}, Fault{Kind: FaultHang})
	rw := core.NewRewriterWithConfig(sender, target, core.RewriterConfig{
		Depth:   1,
		Invoker: fi,
		Policies: []core.InvokePolicy{
			WithConcurrencyLimit(4),
			WithBreaker(Breaker{}),
			WithRetry(Retry{Attempts: 3, Sleep: instant}),
			// No per-call timeout: only the rewrite-level context can save us.
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := rw.RewriteDocument(ctx, pageDoc(), core.Safe)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	checkGoroutines(t, before)
}

// checkGoroutines waits for the goroutine count to return to the baseline.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d", before, runtime.NumGoroutine())
}
