package telemetry

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTraceCapacity is the span-ring size used by NewRegistry.
const DefaultTraceCapacity = 512

// Attr is one key/value attribute attached to a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is a finished span as stored in the ring and serialized by
// the /debug/traces handler.
type SpanRecord struct {
	TraceID  string        `json:"trace_id"`
	SpanID   string        `json:"span_id"`
	ParentID string        `json:"parent_id,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Err      string        `json:"error,omitempty"`
}

// Tracer keeps the most recent finished spans in a bounded ring. Older
// spans are overwritten once the ring is full; Dropped reports how many.
type Tracer struct {
	mu    sync.Mutex
	cap   int
	buf   []SpanRecord
	attrs [][3]Attr // per-slot attr storage; see record
	next  int       // overwrite cursor, meaningful once len(buf) == cap
	total uint64
}

// NewTracer returns a ring holding up to capacity finished spans
// (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{cap: capacity}
}

// Capacity returns the ring size.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return t.cap
}

// record stores one finished span. Attrs that fit are copied into the
// ring's own per-slot arrays rather than kept as a view into the span:
// a retained view would pin the dead *Span and, through it, the whole
// request context chain it was started from — hundreds of KB of
// pointer-rich heap for a full ring, rescanned on every GC cycle.
func (t *Tracer) record(rec SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	slot := t.next
	if len(t.buf) < t.cap {
		slot = len(t.buf)
		t.buf = append(t.buf, rec)
		if t.attrs == nil {
			t.attrs = make([][3]Attr, t.cap)
		}
	} else {
		t.buf[slot] = rec
		t.next = (t.next + 1) % t.cap
	}
	if n := len(rec.Attrs); n > 0 && n <= len(t.attrs[slot]) {
		copy(t.attrs[slot][:], rec.Attrs)
		t.buf[slot].Attrs = t.attrs[slot][:n]
	}
}

// runs returns the retained spans oldest-first, as two runs of the ring:
// once it is full, the oldest span sits at next. Caller holds t.mu.
func (t *Tracer) runs() [2][]SpanRecord {
	if len(t.buf) == t.cap {
		return [2][]SpanRecord{t.buf[t.next:], t.buf[:t.next]}
	}
	return [2][]SpanRecord{t.buf, nil}
}

// Spans returns the retained spans oldest-first. Attrs are copied out so
// the snapshot stays valid while the ring keeps overwriting slots.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.buf))
	for _, run := range t.runs() {
		out = append(out, run...)
	}
	for i := range out {
		if len(out[i].Attrs) > 0 {
			out[i].Attrs = append([]Attr(nil), out[i].Attrs...)
		}
	}
	return out
}

// SpansForTrace returns the retained spans belonging to one trace,
// oldest-first. The flight recorder uses it to snapshot a request's
// span tree at admission time, so the ring is scanned under the lock and
// only the matching spans (and their attrs) are copied: a flight record
// holds its own spans, not a copy of the whole ring.
func (t *Tracer) SpansForTrace(traceID string) []SpanRecord {
	if t == nil || traceID == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanRecord
	for _, run := range t.runs() {
		for _, s := range run {
			if s.TraceID != traceID {
				continue
			}
			if len(s.Attrs) > 0 {
				s.Attrs = append([]Attr(nil), s.Attrs...)
			}
			out = append(out, s)
		}
	}
	return out
}

// Recorded returns the total number of spans ever finished into the ring.
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many spans have been evicted by ring overflow.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(len(t.buf))
}

// Span is an in-flight operation. Nil spans no-op, so callers never
// branch on whether tracing is configured. End must be called once;
// later calls are ignored.
type Span struct {
	reg    *Registry       // registry the span was started under
	parent context.Context // context the span was started from
	start  time.Time

	mu      sync.Mutex
	rec     SpanRecord
	attrBuf [3]Attr // inline storage for the common ≤3-attribute case
	done    bool
}

// A *Span is itself a context.Context: it answers the span lookup key
// directly and delegates everything else to the context it was started
// from. StartSpan returns the span as the derived context, so opening a
// span costs one allocation instead of a span plus a context entry.
func (s *Span) Deadline() (time.Time, bool) { return s.parent.Deadline() }
func (s *Span) Done() <-chan struct{}       { return s.parent.Done() }
func (s *Span) Err() error                  { return s.parent.Err() }

func (s *Span) Value(key any) any {
	if key == ctxSpanKey {
		return s
	}
	return s.parent.Value(key)
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return
	}
	if s.rec.Attrs == nil {
		s.rec.Attrs = s.attrBuf[:0]
	}
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Value: value})
}

// TraceID returns the span's trace ID ("" for a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.rec.TraceID
}

// SpanID returns the span's own ID ("" for a nil span). Trace-context
// injection uses it as the parent ID on outbound calls.
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.rec.SpanID
}

// End finishes the span, recording its duration and error status into
// the tracer's ring.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return
	}
	s.done = true
	s.rec.Duration = time.Since(s.start)
	if err != nil {
		s.rec.Err = err.Error()
	}
	s.reg.tracer.record(s.rec)
}

type ctxKey int

const (
	ctxRegistryKey ctxKey = iota
	ctxSpanKey
	ctxTraceIDKey
	ctxRemoteParentKey
	ctxStagesKey
)

// WithRegistry returns a context carrying reg, making reg's tracer the
// target of StartSpan further down the call chain. If ctx already
// carries reg the context is returned unchanged, so layered components
// can each plant their registry without stacking context values.
func WithRegistry(ctx context.Context, reg *Registry) context.Context {
	if reg == nil || RegistryFrom(ctx) == reg {
		return ctx
	}
	return context.WithValue(ctx, ctxRegistryKey, reg)
}

// RegistryFrom returns the registry carried by ctx, or nil. An enclosing
// span implies its registry, so spawning a span is enough to propagate
// the registry down the call chain without a second context entry.
func RegistryFrom(ctx context.Context) *Registry {
	if ctx == nil {
		return nil
	}
	if sp, _ := ctx.Value(ctxSpanKey).(*Span); sp != nil {
		return sp.reg
	}
	reg, _ := ctx.Value(ctxRegistryKey).(*Registry)
	return reg
}

// WithTraceID returns a context carrying an externally chosen trace ID
// (e.g. a rewrite ID); root spans started below inherit it.
func WithTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxTraceIDKey, id)
}

// TraceIDFrom returns the trace ID in effect: the enclosing span's, or
// one set by WithTraceID, or "".
func TraceIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	if sp, _ := ctx.Value(ctxSpanKey).(*Span); sp != nil {
		return sp.rec.TraceID
	}
	id, _ := ctx.Value(ctxTraceIDKey).(string)
	return id
}

// SpanFrom returns the enclosing span, or nil.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxSpanKey).(*Span)
	return sp
}

// StartSpan starts a span named name under the registry carried by ctx.
// The returned context carries the new span for parent linkage; if no
// registry is configured both results are usable no-ops (nil span).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(ctxSpanKey).(*Span)
	reg := (*Registry)(nil)
	if parent != nil {
		// A child span always joins its parent's registry, keeping one
		// trace inside one tracer even if ctx carries another registry.
		reg = parent.reg
	} else {
		reg, _ = ctx.Value(ctxRegistryKey).(*Registry)
	}
	return startSpan(ctx, reg, parent, name)
}

// startSpanWith is StartSpan with the registry supplied directly — the
// HTTP wrapper uses it so the request context needs no registry entry;
// the span it plants carries reg for everything below (see RegistryFrom).
func startSpanWith(ctx context.Context, reg *Registry, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(ctxSpanKey).(*Span)
	return startSpan(ctx, reg, parent, name)
}

func startSpan(ctx context.Context, reg *Registry, parent *Span, name string) (context.Context, *Span) {
	if reg == nil || reg.tracer == nil {
		return ctx, nil
	}
	now := time.Now()
	sp := &Span{
		reg:    reg,
		parent: ctx,
		start:  now,
		rec: SpanRecord{
			Name:  name,
			Start: now,
		},
	}
	switch {
	case parent != nil:
		sp.rec.TraceID = parent.rec.TraceID
		sp.rec.ParentID = parent.rec.SpanID
		sp.rec.SpanID = NewID()
	default:
		if id, _ := ctx.Value(ctxTraceIDKey).(string); id != "" {
			sp.rec.TraceID = id
			sp.rec.SpanID = NewID()
			// A root span below an extracted traceparent links to the
			// remote caller's span so cross-process trees stay connected.
			if rp, _ := ctx.Value(ctxRemoteParentKey).(string); rp != "" {
				sp.rec.ParentID = rp
			}
		} else {
			sp.rec.TraceID, sp.rec.SpanID = newIDPair()
		}
	}
	return sp, sp
}

var (
	// idHi is a per-process random prefix so IDs from different runs
	// don't collide; the counter makes them unique within a process.
	idHi      = rand.Uint32()
	idCounter atomic.Uint64
)

// putID writes one 17-byte ID ("xxxxxxxx-xxxxxxxx") into b.
func putID(b []byte) {
	const hexdigits = "0123456789abcdef"
	hi, lo := uint64(idHi), idCounter.Add(1)
	for i := 7; i >= 0; i-- {
		b[i] = hexdigits[hi&0xf]
		hi >>= 4
	}
	b[8] = '-'
	for i := 16; i >= 9; i-- {
		b[i] = hexdigits[lo&0xf]
		lo >>= 4
	}
}

// NewID returns a short process-unique hex ID usable as a trace, span,
// or rewrite identifier. Hand-rolled formatting keeps it to a single
// allocation — IDs are minted on every span start.
func NewID() string {
	var b [17]byte
	putID(b[:])
	return string(b[:])
}

// newIDPair mints two IDs backed by one string allocation — the root-span
// case needs a fresh trace ID and span ID together.
func newIDPair() (string, string) {
	var b [34]byte
	putID(b[:17])
	putID(b[17:])
	s := string(b[:])
	return s[:17], s[17:]
}
