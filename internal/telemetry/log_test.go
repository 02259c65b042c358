package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestHandler(t *testing.T, format string, level slog.Level) (slog.Handler, *strings.Builder) {
	t.Helper()
	var sb strings.Builder
	h, err := NewLogHandler(&sb, format, level)
	if err != nil {
		t.Fatal(err)
	}
	return h, &sb
}

func decodeLine(t *testing.T, line string) map[string]any {
	t.Helper()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("want one newline-terminated line, got %q", line)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, line)
	}
	return got
}

// TestLogJSONLine pins the line shape operators and the CI smoke read:
// ts in UTC, a lower-case level, msg, the context's trace_id, typed
// fields and durations as Go duration strings.
func TestLogJSONLine(t *testing.T) {
	h, sb := newTestHandler(t, "json", slog.LevelInfo)
	ctx := WithTraceID(context.Background(), "deadbeef-00000001")
	at := time.Date(2026, 8, 9, 14, 0, 0, 500_000_000, time.FixedZone("CEST", 2*3600))
	r := slog.NewRecord(at, slog.LevelInfo, "request served", 0)
	r.AddAttrs(
		slog.Int("status", 200),
		slog.Bool("ok", true),
		slog.Duration("duration", 1500*time.Microsecond),
		slog.String("path", `/a "b"`),
		slog.Any("error", errors.New("boom")),
	)
	if err := h.Handle(ctx, r); err != nil {
		t.Fatal(err)
	}
	got := decodeLine(t, sb.String())
	want := map[string]any{
		"ts":       "2026-08-09T12:00:00.5Z",
		"level":    "info",
		"msg":      "request served",
		"trace_id": "deadbeef-00000001",
		"status":   float64(200),
		"ok":       true,
		"duration": "1.5ms",
		"path":     `/a "b"`,
		"error":    "boom",
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %#v, want %#v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("line has keys %v, want exactly %d", got, len(want))
	}
}

// TestLogJSONEscaping: quotes, backslashes, control characters and
// non-ASCII text in the message and in a field value round-trip through
// one JSON line.
func TestLogJSONEscaping(t *testing.T) {
	h, sb := newTestHandler(t, "json", slog.LevelInfo)
	weird := "a\"b\\c\nd\te\x01f ü"
	slog.New(h).Info(weird, "k", weird)
	got := decodeLine(t, sb.String())
	if got["msg"] != weird || got["k"] != weird {
		t.Errorf("escaping did not round-trip: %v", got)
	}
}

// TestLogNoTraceID: a context without a trace ID adds no trace_id key,
// and an attribute stamped by the caller is not duplicated.
func TestLogNoTraceID(t *testing.T) {
	h, sb := newTestHandler(t, "json", slog.LevelInfo)
	l := slog.New(h)
	l.InfoContext(context.Background(), "plain")
	if strings.Contains(sb.String(), "trace_id") {
		t.Errorf("untraced context stamped a trace ID: %q", sb.String())
	}
	sb.Reset()
	l.LogAttrs(context.Background(), slog.LevelWarn, "invoke event", slog.String("trace_id", "abc"))
	if n := strings.Count(sb.String(), `"trace_id"`); n != 1 {
		t.Errorf("trace_id appears %d times: %q", n, sb.String())
	}
}

// TestLogWithFields: loggers derived with With still stamp the context's
// trace ID beside their fixed fields, and the parent sees neither.
func TestLogWithFields(t *testing.T) {
	h, sb := newTestHandler(t, "json", slog.LevelInfo)
	l := slog.New(h).With("store", "mem")
	l.InfoContext(WithTraceID(context.Background(), "cafe-01"), "hello", "n", 1)
	got := decodeLine(t, sb.String())
	if got["store"] != "mem" || got["trace_id"] != "cafe-01" {
		t.Errorf("derived logger line = %v", got)
	}
	sb.Reset()
	slog.New(h).Info("parent")
	if strings.Contains(sb.String(), "store") {
		t.Errorf("parent logger polluted: %q", sb.String())
	}
}

// TestLogConcurrentWriters: lines logged from many goroutines stay whole,
// each carrying its own context's trace ID.
func TestLogConcurrentWriters(t *testing.T) {
	h, sb := newTestHandler(t, "json", slog.LevelInfo)
	l := slog.New(h)
	const writers, lines = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := WithTraceID(context.Background(), fmt.Sprintf("trace-%d", w))
			for i := 0; i < lines; i++ {
				l.InfoContext(ctx, "line", "writer", w, "i", i)
			}
		}(w)
	}
	wg.Wait()
	out := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(out) != writers*lines {
		t.Fatalf("got %d lines, want %d", len(out), writers*lines)
	}
	for _, line := range out {
		got := decodeLine(t, line+"\n")
		if want := fmt.Sprintf("trace-%v", got["writer"]); got["trace_id"] != want {
			t.Fatalf("line %q: trace_id %v, want %s", line, got["trace_id"], want)
		}
	}
}

func TestLogLevelFiltering(t *testing.T) {
	h, sb := newTestHandler(t, "text", slog.LevelWarn)
	l := slog.New(h)
	l.Debug("nope")
	l.Info("nope")
	if sb.Len() != 0 {
		t.Fatalf("below-level lines written: %q", sb.String())
	}
	l.Error("yes")
	if !strings.Contains(sb.String(), "yes") {
		t.Error("at-level line not written")
	}
	if l.Enabled(context.Background(), slog.LevelInfo) || !l.Enabled(context.Background(), slog.LevelError) {
		t.Error("Enabled disagrees with filtering")
	}
}

func TestLogTextLine(t *testing.T) {
	h, sb := newTestHandler(t, "text", slog.LevelDebug)
	slog.New(h).WarnContext(WithTraceID(context.Background(), "beef-02"), "breaker open",
		"endpoint", "Get_Temp", "wait", 1500*time.Millisecond, "note", "1s 500ms")
	line := sb.String()
	for _, want := range []string{"ts=", "level=warn", `msg="breaker open"`, "trace_id=beef-02",
		"endpoint=Get_Temp", "wait=1.5s", `note="1s 500ms"`} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
}

func TestLogParseHelpers(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo, "warn": slog.LevelWarn,
		"warning": slog.LevelWarn, "Error": slog.LevelError,
	} {
		if got, err := ParseLogLevel(in); err != nil || got != want {
			t.Errorf("ParseLogLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"loud", "verbose", "info+2", ""} {
		if _, err := ParseLogLevel(bad); err == nil {
			t.Errorf("ParseLogLevel(%q) accepted", bad)
		}
	}
	for _, format := range []string{"text", "JSON"} {
		if _, err := NewLogHandler(&strings.Builder{}, format, slog.LevelInfo); err != nil {
			t.Errorf("NewLogHandler format %q: %v", format, err)
		}
	}
	if _, err := NewLogHandler(&strings.Builder{}, "xml", slog.LevelInfo); err == nil {
		t.Error("format xml accepted")
	}
}
