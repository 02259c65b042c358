package telemetry

import (
	"context"
	"net/http"
	"testing"
)

func TestFormatParseTraceparentRoundTrip(t *testing.T) {
	traceID := NewID()
	parentID := NewID()
	h := FormatTraceparent(traceID, parentID)
	if h == "" {
		t.Fatalf("FormatTraceparent(%q, %q) = empty", traceID, parentID)
	}
	if len(h) != 55 {
		t.Fatalf("traceparent %q has length %d, want 55", h, len(h))
	}
	gotTrace, gotParent, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) failed", h)
	}
	if gotTrace != traceID {
		t.Errorf("trace ID round trip: got %q, want %q", gotTrace, traceID)
	}
	if gotParent != parentID {
		t.Errorf("parent ID round trip: got %q, want %q", gotParent, parentID)
	}
}

func TestParseTraceparentForeignID(t *testing.T) {
	// A trace ID minted by a non-axml peer must pass through opaque, not be
	// coerced into the internal dashed form.
	h := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	traceID, parentID, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) failed", h)
	}
	if traceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("foreign trace ID mangled: %q", traceID)
	}
	if parentID != "00f067aa-0ba902b7" {
		t.Errorf("foreign parent ID = %q, want internal dashed form", parentID)
	}
}

func TestParseTraceparentRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"short", "00-abc"},
		{"bad version", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"zero trace", "00-00000000000000000000000000000000-00f067aa0ba902b7-01"},
		{"zero parent", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01"},
		{"uppercase", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01"},
		{"missing dash", "00x4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"trailing junk v00", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"},
		{"nonhex flags", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, ok := ParseTraceparent(tc.in); ok {
				t.Errorf("ParseTraceparent(%q) accepted invalid input", tc.in)
			}
		})
	}
	// Future versions may carry extra segments after the flags.
	if _, _, ok := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future"); !ok {
		t.Error("future-version traceparent with extra segment rejected")
	}
}

func TestInjectExtractTraceContext(t *testing.T) {
	reg := NewRegistry()
	ctx, span := StartSpan(WithRegistry(context.Background(), reg), "client.request")
	h := make(http.Header)
	InjectTraceContext(ctx, h)
	span.End(nil)

	v := h.Get(TraceparentHeader)
	if v == "" {
		t.Fatal("traceparent header not injected")
	}
	traceID, parentID, ok := ExtractTraceContext(h)
	if !ok {
		t.Fatalf("ExtractTraceContext failed on %q", v)
	}
	if traceID != span.TraceID() {
		t.Errorf("extracted trace ID %q, want the client span's %q", traceID, span.TraceID())
	}
	if parentID != span.SpanID() {
		t.Errorf("extracted parent ID %q, want the client span ID %q", parentID, span.SpanID())
	}

	// The server side resumes the trace: a root span started under the
	// extracted identifiers must share the trace ID and point its parent at
	// the remote span.
	srvCtx := WithRemoteTrace(WithRegistry(context.Background(), reg), traceID, parentID)
	_, srvSpan := StartSpan(srvCtx, "server.request")
	srvSpan.End(nil)
	if srvSpan.TraceID() != span.TraceID() {
		t.Errorf("server span trace ID %q, want %q", srvSpan.TraceID(), span.TraceID())
	}
	spans := reg.Tracer().SpansForTrace(span.TraceID())
	var srvRec *SpanRecord
	for i := range spans {
		if spans[i].Name == "server.request" {
			srvRec = &spans[i]
		}
	}
	if srvRec == nil {
		t.Fatalf("server span not recorded under trace %q", span.TraceID())
	}
	if srvRec.ParentID != parentID {
		t.Errorf("server root span parent %q, want remote parent %q", srvRec.ParentID, parentID)
	}
}

func TestInjectTraceContextNoTrace(t *testing.T) {
	h := make(http.Header)
	InjectTraceContext(context.Background(), h)
	if v := h.Get(TraceparentHeader); v != "" {
		t.Errorf("injection without a trace wrote %q", v)
	}
	InjectTraceContext(nil, h) //nolint:staticcheck // nil ctx must be tolerated
	if v := h.Get(TraceparentHeader); v != "" {
		t.Errorf("injection with nil ctx wrote %q", v)
	}
}

// FuzzParseTraceparent: the header arrives on every request, so parsing
// never panics, and an accepted value round-trips: FormatTraceparent of
// the parsed IDs reproduces the value's trace-id and parent-id fields, and
// parses back to the same IDs. Seeds live in testdata/fuzz/.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		traceID, parentID, ok := ParseTraceparent(v)
		if !ok {
			return
		}
		h := FormatTraceparent(traceID, parentID)
		if h == "" {
			t.Fatalf("ParseTraceparent(%q) = %q, %q, which FormatTraceparent refuses", v, traceID, parentID)
		}
		if h[3:35] != v[3:35] || h[36:52] != v[36:52] {
			t.Fatalf("%q re-formats as %q: trace-id or parent-id changed", v, h)
		}
		t2, p2, ok := ParseTraceparent(h)
		if !ok || t2 != traceID || p2 != parentID {
			t.Fatalf("re-formatted %q parses to %q, %q, %t; want %q, %q", h, t2, p2, ok, traceID, parentID)
		}
	})
}
