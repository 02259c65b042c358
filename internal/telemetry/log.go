package telemetry

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// TraceHandler is an slog.Handler that adds the trace ID in effect on each
// record's context (an enclosing span, or an extracted traceparent) as
// trace_id, so a log line, its span tree in /debug/traces and its audit
// events correlate on one ID. A context without a trace ID adds nothing.
type TraceHandler struct {
	slog.Handler
}

// Handle implements slog.Handler.
func (h TraceHandler) Handle(ctx context.Context, r slog.Record) error {
	if id := TraceIDFrom(ctx); id != "" {
		r.AddAttrs(slog.String("trace_id", id))
	}
	return h.Handler.Handle(ctx, r)
}

// WithAttrs implements slog.Handler.
func (h TraceHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return TraceHandler{h.Handler.WithAttrs(attrs)}
}

// WithGroup implements slog.Handler.
func (h TraceHandler) WithGroup(name string) slog.Handler {
	return TraceHandler{h.Handler.WithGroup(name)}
}

// NewLogHandler returns the handler behind the daemon's structured logs:
// one line per record to w, a JSON object for format "json" or key=value
// pairs for "text", at or above level. Each line carries ts (UTC), a
// lower-case level, msg and the context's trace_id, and renders durations
// as Go duration strings ("1.5ms").
func NewLogHandler(w io.Writer, format string, level slog.Leveler) (slog.Handler, error) {
	opts := &slog.HandlerOptions{Level: level, ReplaceAttr: replaceLogAttr}
	switch strings.ToLower(format) {
	case "text":
		return TraceHandler{slog.NewTextHandler(w, opts)}, nil
	case "json":
		return TraceHandler{slog.NewJSONHandler(w, opts)}, nil
	}
	return nil, fmt.Errorf("unknown log format %q (text|json)", format)
}

// ParseLogLevel parses a level name, case-insensitively; "warning" is
// accepted for "warn".
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelInfo, fmt.Errorf("unknown log level %q (debug|info|warn|error)", s)
}

func replaceLogAttr(groups []string, a slog.Attr) slog.Attr {
	if len(groups) == 0 {
		switch a.Key {
		case slog.TimeKey:
			if a.Value.Kind() == slog.KindTime {
				return slog.Time("ts", a.Value.Time().UTC())
			}
		case slog.LevelKey:
			if lv, ok := a.Value.Any().(slog.Level); ok {
				return slog.String(slog.LevelKey, strings.ToLower(lv.String()))
			}
		}
	}
	if a.Value.Kind() == slog.KindDuration {
		return slog.String(a.Key, a.Value.Duration().String())
	}
	return a
}
