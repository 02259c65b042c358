package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"axml/internal/doc"
)

// Invoker performs the actual Web-service calls during rewriting. The call
// node's children are its (already materialized) parameters; the returned
// forest replaces the node. Implementations live in internal/service (local
// registries, simulated services), internal/soap (remote endpoints) and
// internal/invoke (policy middleware, fault injection).
//
// The context carries the deadline/cancellation of the whole rewriting (or
// HTTP request) the call executes under; implementations must return promptly
// with ctx.Err() once it is done. Legacy context-free implementations can be
// adapted with Legacy.
type Invoker interface {
	Invoke(ctx context.Context, call *doc.Node) ([]*doc.Node, error)
}

// LegacyInvoker is the pre-context interface, kept so implementations written
// against the original API can still be plugged in through Legacy.
type LegacyInvoker interface {
	Invoke(call *doc.Node) ([]*doc.Node, error)
}

// Legacy adapts a context-free invoker to the context-aware interface. The
// adapted invoker checks the context before delegating, but a call already in
// flight cannot be interrupted — prefer native context support for anything
// that can block.
func Legacy(li LegacyInvoker) Invoker {
	return ContextInvokerFunc(func(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return li.Invoke(call)
	})
}

// InvokerFunc adapts a context-free function to the Invoker interface — the
// documented compatibility wrapper for code written against the original
// one-argument API. The context is consulted before the function runs.
type InvokerFunc func(*doc.Node) ([]*doc.Node, error)

// Invoke implements Invoker.
func (f InvokerFunc) Invoke(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return f(call)
}

// ContextInvokerFunc adapts a context-aware function to the Invoker interface.
type ContextInvokerFunc func(context.Context, *doc.Node) ([]*doc.Node, error)

// Invoke implements Invoker.
func (f ContextInvokerFunc) Invoke(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
	return f(ctx, call)
}

// InvokePolicy is invocation middleware: it wraps an Invoker with an
// execution discipline (per-call timeout, bounded retry, circuit breaking,
// concurrency limiting, fault injection, ...). Concrete policies live in
// internal/invoke and are re-exported from the axml package.
type InvokePolicy func(Invoker) Invoker

// ApplyPolicies wraps inv so that policies[0] is the outermost layer.
func ApplyPolicies(inv Invoker, policies []InvokePolicy) Invoker {
	for i := len(policies) - 1; i >= 0; i-- {
		if policies[i] != nil {
			inv = policies[i](inv)
		}
	}
	return inv
}

// TransientCallError marks invocation errors that stem from service behavior
// a different attempt (or a different rewriting choice) might avoid: retry
// budgets exhausted on flaky endpoints, per-call timeouts, open circuit
// breakers. In Possible and Mixed modes the executor degrades such failures
// to backtracking instead of aborting the whole rewrite.
type TransientCallError interface {
	TransientCall() bool
}

// IsTransientCall reports whether err (or anything it wraps) is a transient
// invocation failure in the sense of TransientCallError.
func IsTransientCall(err error) bool {
	var te TransientCallError
	return errors.As(err, &te) && te.TransientCall()
}

// ---------------------------------------------------------------------------
// Invocation events: the fine-grained audit trail of the invocation layer.

// Invocation event kinds recorded by the policy chain and the executor.
const (
	// EventAttempt is one delivery attempt reaching the wrapped invoker.
	EventAttempt = "attempt"
	// EventRetryWait is a backoff pause between attempts.
	EventRetryWait = "retry-wait"
	// EventExhausted marks a retry budget running out.
	EventExhausted = "exhausted"
	// EventTimeout marks a per-call timeout firing.
	EventTimeout = "timeout"
	// EventBreakerOpen / Close / HalfOpen are circuit-breaker transitions;
	// EventBreakerReject is a call short-circuited by an open breaker.
	EventBreakerOpen     = "breaker-open"
	EventBreakerClose    = "breaker-close"
	EventBreakerHalfOpen = "breaker-half-open"
	EventBreakerReject   = "breaker-reject"
	// EventFault is an injected fault (internal/invoke.FaultInjector).
	EventFault = "fault"
	// EventDegraded marks a transient failure the executor converted into a
	// frozen occurrence and backtracking instead of an abort.
	EventDegraded = "degraded"
)

// InvokeEvent is one step of the invocation layer's execution: an attempt, a
// retry pause, a breaker transition. Events complement CallRecords (which
// only document *completed* calls): after a partial failure, the events say
// exactly what was attempted, how often, and why it stopped.
type InvokeEvent struct {
	// Func is the function label of the call.
	Func string
	// Endpoint identifies the target endpoint (the function label when the
	// call carries no explicit service reference).
	Endpoint string
	// Kind is one of the Event* constants.
	Kind string
	// Attempt numbers the delivery attempt this event belongs to (1-based;
	// 0 when not attempt-scoped).
	Attempt int
	// Wait is the backoff pause before the next attempt (retry-wait events).
	Wait time.Duration
	// Err carries the triggering error, if any.
	Err string
	// Rewrite is the ID of the top-level rewriting this event belongs to,
	// stamped by the executor so a trace can be matched to its audit trail.
	// Empty for events recorded outside an identified rewriting.
	Rewrite string
}

// EventSink receives invocation events. *Audit implements it; policies reach
// the sink through the call context (WithEventSink / Emit), so arbitrarily
// nested middleware reports into the rewriting's audit without plumbing.
type EventSink interface {
	RecordEvent(e InvokeEvent)
}

type eventSinkKey struct{}

// WithEventSink returns a context delivering invocation events to sink.
func WithEventSink(ctx context.Context, sink EventSink) context.Context {
	if sink == nil {
		return ctx
	}
	return context.WithValue(ctx, eventSinkKey{}, sink)
}

// Emit records an event into the context's sink, if any.
func Emit(ctx context.Context, e InvokeEvent) {
	if sink, ok := ctx.Value(eventSinkKey{}).(EventSink); ok {
		sink.RecordEvent(e)
	}
}

// EndpointOf identifies the endpoint a call is routed to, for per-endpoint
// policies (circuit breakers) and event records: the explicit ServiceRef
// endpoint when present, the function label otherwise.
func EndpointOf(call *doc.Node) string {
	if call.Service != nil && call.Service.Endpoint != "" {
		return call.Service.Endpoint
	}
	return call.Label
}

// ---------------------------------------------------------------------------

// CallRecord documents one completed service invocation performed by a
// rewriting — the audit trail matters because possible-mode rewritings may
// fail *after* performing side-effecting calls, and the caller must know what
// happened.
type CallRecord struct {
	Func string
	// Depth is the invocation depth (1 = original occurrence).
	Depth int
	Cost  float64
	// ResultNodes counts the root nodes of the returned forest.
	ResultNodes int
	// Rewrite is the ID of the top-level rewriting that performed the call
	// (see InvokeEvent.Rewrite); empty outside an identified rewriting.
	Rewrite string
}

// auditWindow is how many of the most recent calls, and separately of the
// most recent events, an Audit retains. A peer shares one Audit across
// every request it serves, so an unbounded trail would grow by several
// records per exchange for the life of the process.
const auditWindow = 4096

// Audit accumulates the invocation trail of a rewriting: completed calls
// (CallRecord) plus the invocation layer's fine-grained events (attempts,
// retries, breaker transitions). It retains the most recent auditWindow
// calls and auditWindow events; Len, TotalCost and EventCount stay exact
// totals over everything ever recorded. Safe for concurrent use: peers
// share one audit across requests.
type Audit struct {
	mu     sync.Mutex
	calls  window[CallRecord]
	events window[InvokeEvent]

	// Exact totals since the last Reset, including evicted records.
	ncalls int
	cost   float64
	kinds  map[string]int
}

// window is a ring of the most recent auditWindow values.
type window[T any] struct {
	buf  []T
	next int // oldest value (the next to overwrite) once buf is full
}

func (w *window[T]) push(v T) {
	if len(w.buf) < auditWindow {
		w.buf = append(w.buf, v)
		return
	}
	w.buf[w.next] = v
	w.next = (w.next + 1) % auditWindow
}

// appendTo appends the retained values oldest-first to out, keeping those
// keep accepts.
func (w *window[T]) appendTo(out []T, keep func(*T) bool) []T {
	for _, part := range [2][]T{w.buf[w.next:], w.buf[:w.next]} {
		for i := range part {
			if keep(&part[i]) {
				out = append(out, part[i])
			}
		}
	}
	return out
}

func (w *window[T]) all() []T {
	return w.appendTo(make([]T, 0, len(w.buf)), func(*T) bool { return true })
}

// Record appends a call record.
func (a *Audit) Record(r CallRecord) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.calls.push(r)
	a.ncalls++
	a.cost += r.Cost
}

// Calls returns a copy of the retained trail, oldest first: the most
// recent auditWindow calls.
func (a *Audit) Calls() []CallRecord {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.calls.all()
}

// Len returns the number of calls ever recorded (since the last Reset),
// including those no longer retained.
func (a *Audit) Len() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ncalls
}

// RecordEvent implements EventSink.
func (a *Audit) RecordEvent(e InvokeEvent) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events.push(e)
	if a.kinds == nil {
		a.kinds = make(map[string]int)
	}
	a.kinds[e.Kind]++
}

// Events returns a copy of the retained invocation-event trail, oldest
// first: the most recent auditWindow events.
func (a *Audit) Events() []InvokeEvent {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.events.all()
}

// CallsFor returns the retained calls stamped with one rewrite ID —
// the flight recorder's per-request view, copied without cloning the
// whole trail.
func (a *Audit) CallsFor(rewriteID string) []CallRecord {
	if a == nil || rewriteID == "" {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.calls.appendTo(nil, func(c *CallRecord) bool { return c.Rewrite == rewriteID })
}

// EventsFor returns the retained events stamped with one rewrite ID.
func (a *Audit) EventsFor(rewriteID string) []InvokeEvent {
	if a == nil || rewriteID == "" {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.events.appendTo(nil, func(e *InvokeEvent) bool { return e.Rewrite == rewriteID })
}

// EventCount counts the events of one kind ever recorded (since the last
// Reset), including those no longer retained.
func (a *Audit) EventCount(kind string) int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.kinds[kind]
}

// TotalCost sums the costs of every call ever recorded (since the last
// Reset).
func (a *Audit) TotalCost() float64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cost
}

// Reset clears the trail and its totals.
func (a *Audit) Reset() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.calls, a.events = window[CallRecord]{}, window[InvokeEvent]{}
	a.ncalls, a.cost, a.kinds = 0, 0, nil
}

func (a *Audit) String() string {
	return fmt.Sprintf("Audit{%d calls, cost %.2f}", a.Len(), a.TotalCost())
}
