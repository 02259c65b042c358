package telemetry

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

func TestSpanParentLinkage(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	ctx, root := StartSpan(ctx, "rewrite.safe")
	_, child := StartSpan(ctx, "invoke.Get_Temp")
	child.SetAttr("endpoint", "http://example/soap")
	child.End(errors.New("boom"))
	root.End(nil)

	spans := r.Tracer().Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	// child ended first, so it is oldest
	c, rt := spans[0], spans[1]
	if c.Name != "invoke.Get_Temp" || rt.Name != "rewrite.safe" {
		t.Fatalf("unexpected order: %q, %q", c.Name, rt.Name)
	}
	if c.ParentID != rt.SpanID {
		t.Errorf("child parent = %q, want %q", c.ParentID, rt.SpanID)
	}
	if c.TraceID != rt.TraceID {
		t.Errorf("trace ids differ: %q vs %q", c.TraceID, rt.TraceID)
	}
	if c.Err != "boom" {
		t.Errorf("child err = %q, want boom", c.Err)
	}
	if len(c.Attrs) != 1 || c.Attrs[0].Key != "endpoint" {
		t.Errorf("child attrs = %v", c.Attrs)
	}
	if rt.Duration <= 0 {
		t.Errorf("root duration = %v, want > 0", rt.Duration)
	}
}

func TestTraceIDInheritedFromContext(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	ctx = WithTraceID(ctx, "rewrite-42")
	if got := TraceIDFrom(ctx); got != "rewrite-42" {
		t.Fatalf("TraceIDFrom = %q", got)
	}
	sctx, sp := StartSpan(ctx, "rewrite.mixed")
	if sp.TraceID() != "rewrite-42" {
		t.Errorf("root span trace id = %q, want rewrite-42", sp.TraceID())
	}
	if got := TraceIDFrom(sctx); got != "rewrite-42" {
		t.Errorf("TraceIDFrom inside span = %q", got)
	}
	sp.End(nil)
}

func TestStartSpanWithoutRegistryIsNoop(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "anything")
	if sp != nil {
		t.Fatal("expected nil span without a registry")
	}
	// all nil-span methods must be safe
	sp.SetAttr("k", "v")
	sp.End(nil)
	if sp.TraceID() != "" {
		t.Fatal("nil span has a trace id")
	}
	if SpanFrom(ctx) != nil {
		t.Fatal("no-op StartSpan stored a span in the context")
	}
}

func TestRingOverflow(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.record(SpanRecord{Name: fmt.Sprintf("s%d", i), Start: time.Now()})
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := fmt.Sprintf("s%d", i+6); s.Name != want {
			t.Errorf("spans[%d] = %q, want %q (oldest-first)", i, s.Name, want)
		}
	}
	if got := tr.Recorded(); got != 10 {
		t.Errorf("Recorded = %d, want 10", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
}

// SpansForTrace returns what filtering Spans() by trace ID returns — same
// spans, order and attrs, across a wrapped ring — in a slice sized to the
// match rather than to the whole ring, with attrs the ring cannot
// overwrite.
func TestSpansForTraceCopiesOnlyMatches(t *testing.T) {
	tr := NewTracer(64)
	for i := 0; i < 150; i++ { // wraps the ring twice
		rec := SpanRecord{TraceID: fmt.Sprintf("t%d", i%7), Name: fmt.Sprintf("s%d", i)}
		if i%3 == 0 {
			rec.Attrs = []Attr{{Key: "i", Value: fmt.Sprint(i)}}
		}
		tr.record(rec)
	}
	for _, id := range []string{"t0", "t3", "t6", "absent"} {
		var want []SpanRecord
		for _, s := range tr.Spans() {
			if s.TraceID == id {
				want = append(want, s)
			}
		}
		got := tr.SpansForTrace(id)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("SpansForTrace(%s) = %v, want %v", id, got, want)
		}
		if cap(got) > 2*len(got) {
			t.Errorf("SpansForTrace(%s): cap %d for %d spans", id, cap(got), len(got))
		}
		for _, s := range got {
			if len(s.Attrs) > 0 {
				s.Attrs[0].Value = "mutated"
			}
		}
	}
	for _, s := range tr.Spans() {
		if len(s.Attrs) > 0 && s.Attrs[0].Value == "mutated" {
			t.Fatalf("SpansForTrace result aliases the ring's attrs: %+v", s)
		}
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	_, sp := StartSpan(ctx, "once")
	sp.End(nil)
	sp.End(errors.New("late"))
	sp.SetAttr("late", "attr")
	spans := r.Tracer().Spans()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	if spans[0].Err != "" || len(spans[0].Attrs) != 0 {
		t.Fatalf("post-End mutation leaked: %+v", spans[0])
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewID()
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}
