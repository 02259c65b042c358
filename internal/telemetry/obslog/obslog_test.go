package obslog

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"axml/internal/telemetry"
)

func fixedNow() time.Time {
	return time.Date(2026, 8, 9, 12, 0, 0, 500_000_000, time.UTC)
}

func newTestLogger(lv Level, f Format) (*Logger, *strings.Builder) {
	var sb strings.Builder
	l := New(&sb, lv, f)
	l.now = fixedNow
	return l, &sb
}

func TestJSONLine(t *testing.T) {
	l, sb := newTestLogger(Info, JSON)
	ctx := telemetry.WithTraceID(context.Background(), "deadbeef-00000001")
	l.Info(ctx, "request served",
		F("status", 200),
		F("duration", 1500*time.Microsecond),
		F("path", `/a "b"`),
		Err(errors.New("boom")),
		Err(nil),
	)
	line := sb.String()
	if !strings.HasSuffix(line, "\n") {
		t.Fatalf("line not newline-terminated: %q", line)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, line)
	}
	if got["ts"] != "2026-08-09T12:00:00.5Z" {
		t.Errorf("ts = %v", got["ts"])
	}
	if got["level"] != "info" || got["msg"] != "request served" {
		t.Errorf("level/msg = %v/%v", got["level"], got["msg"])
	}
	if got["trace_id"] != "deadbeef-00000001" {
		t.Errorf("trace_id = %v", got["trace_id"])
	}
	if got["status"] != float64(200) {
		t.Errorf("status = %v", got["status"])
	}
	if got["duration"] != "1.5ms" {
		t.Errorf("duration = %v", got["duration"])
	}
	if got["path"] != `/a "b"` {
		t.Errorf("path did not round-trip: %v", got["path"])
	}
	if got["error"] != "boom" {
		t.Errorf("error = %v", got["error"])
	}
}

func TestTextLine(t *testing.T) {
	l, sb := newTestLogger(Debug, Text)
	l.Warn(nil, "breaker open", F("endpoint", "Get_Temp"), F("wait", "1s 500ms"))
	line := sb.String()
	for _, want := range []string{"WARN", "breaker open", "endpoint=Get_Temp", `wait="1s 500ms"`} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
	if strings.Contains(line, "trace_id") {
		t.Errorf("nil ctx must not stamp a trace ID: %q", line)
	}
}

func TestLevelFiltering(t *testing.T) {
	l, sb := newTestLogger(Warn, Text)
	l.Debug(nil, "nope")
	l.Info(nil, "nope")
	if sb.Len() != 0 {
		t.Fatalf("below-level lines written: %q", sb.String())
	}
	l.Error(nil, "yes")
	if !strings.Contains(sb.String(), "yes") {
		t.Error("at-level line not written")
	}
	if l.Enabled(Info) || !l.Enabled(Error) {
		t.Error("Enabled disagrees with filtering")
	}
}

func TestWithFields(t *testing.T) {
	l, sb := newTestLogger(Info, JSON)
	dl := l.With(F("peer", "news"), F("store", "mem"))
	dl.Info(nil, "hello", F("extra", true))
	var got map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatal(err)
	}
	if got["peer"] != "news" || got["store"] != "mem" || got["extra"] != true {
		t.Errorf("fields = %v", got)
	}
	// The parent logger must not see the derived fields.
	sb.Reset()
	l.Info(nil, "parent")
	if strings.Contains(sb.String(), "peer") {
		t.Errorf("parent logger polluted: %q", sb.String())
	}
}

func TestNilLogger(t *testing.T) {
	var l *Logger
	l.Info(nil, "no-op") // must not panic
	l.With(F("k", "v")).Error(nil, "x")
	if l.Enabled(Error) {
		t.Error("nil logger reports enabled")
	}
}

func TestParseHelpers(t *testing.T) {
	if lv, err := ParseLevel("WARNING"); err != nil || lv != Warn {
		t.Errorf("ParseLevel(WARNING) = %v, %v", lv, err)
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted junk")
	}
	if f, err := ParseFormat("JSON"); err != nil || f != JSON {
		t.Errorf("ParseFormat(JSON) = %v, %v", f, err)
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Error("ParseFormat accepted junk")
	}
}

func TestJSONEscaping(t *testing.T) {
	l, sb := newTestLogger(Info, JSON)
	weird := "a\"b\\c\nd\te\x01f"
	l.Info(nil, weird, F("k", weird))
	var got map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("escaping broke JSON: %v\n%s", err, sb.String())
	}
	if got["msg"] != weird || got["k"] != weird {
		t.Errorf("escaping did not round-trip: %v", got)
	}
}

// TestConcurrentWriters proves lines interleave whole (one Write per
// line under the shared mutex), including across With-derived loggers.
func TestConcurrentWriters(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		lines = append(lines, string(p))
		mu.Unlock()
		return len(p), nil
	})
	l := New(w, Info, JSON)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dl := l.With(F("g", g))
			for i := 0; i < 50; i++ {
				dl.Info(nil, "line", F("i", i))
			}
		}(g)
	}
	wg.Wait()
	if len(lines) != 200 {
		t.Fatalf("got %d writes, want 200", len(lines))
	}
	for _, line := range lines {
		var got map[string]any
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("torn line %q: %v", line, err)
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
