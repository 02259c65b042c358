// Package telemetry is a dependency-free observability layer: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms) with Prometheus text exposition, plus a lightweight
// span/tracing API with context-based parent linkage and a bounded
// in-memory ring of recent spans.
//
// Every handle type is nil-safe: a nil *Registry hands out nil
// *Counter/*Gauge/*Histogram values whose methods are no-ops, so
// instrumented code never needs a "telemetry enabled?" branch.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency buckets in seconds, spanning
// sub-automaton-lookup times (~100µs rewrites) up to slow remote calls.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are byte-size buckets for request/response payloads.
var SizeBuckets = []float64{256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304}

// CountBuckets are power-of-two buckets for small cardinalities:
// automaton states, batch sizes, forest widths.
var CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}

// metric is anything the registry can hold and expose.
type metric interface {
	// writeTo appends exposition lines for one series. labels is the
	// canonical `k="v",...` block without braces ("" when unlabeled).
	// openMetrics selects the OpenMetrics dialect, which may attach
	// exemplars; the default 0.0.4 text output must stay byte-stable.
	writeTo(w io.Writer, family, labels string, openMetrics bool) error
}

// Registry is a set of named metric families. All methods are safe for
// concurrent use; registration of an already-registered (name, labels)
// pair returns the existing handle, so call sites may re-register
// freely instead of caching handles.
type Registry struct {
	mu      sync.RWMutex
	types   map[string]string            // family name -> counter|gauge|histogram
	metrics map[string]map[string]metric // family name -> label block -> metric
	tracer  *Tracer
}

// NewRegistry returns an empty registry with an attached span tracer of
// DefaultTraceCapacity.
func NewRegistry() *Registry {
	return &Registry{
		types:   make(map[string]string),
		metrics: make(map[string]map[string]metric),
		tracer:  NewTracer(DefaultTraceCapacity),
	}
}

// Tracer returns the registry's span ring; nil for a nil registry.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; a nil *Counter no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) writeTo(w io.Writer, family, labels string, _ bool) error {
	_, err := fmt.Fprintf(w, "%s %d\n", seriesName(family, labels), c.Value())
	return err
}

// Gauge is a float64 that can go up and down, stored as IEEE bits for
// lock-free access. The zero value reads 0; a nil *Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments by d (d may be negative).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) writeTo(w io.Writer, family, labels string, _ bool) error {
	_, err := fmt.Fprintf(w, "%s %s\n", seriesName(family, labels), formatFloat(g.Value()))
	return err
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: counts per upper bound plus an implicit +Inf bucket, a running
// sum, and a total count. A nil *Histogram no-ops.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // len(upper)+1; last is the +Inf overflow
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	// ex holds the most recent exemplar per bucket (len(upper)+1),
	// lazily allocated on the first ObserveExemplar so plain histograms
	// pay nothing. Slots are swapped whole so readers never see a torn
	// exemplar.
	ex []atomic.Pointer[Exemplar]
}

// Exemplar links one observed value to the trace that produced it, so a
// p99 outlier bucket in /metrics points straight at its recorded trace.
type Exemplar struct {
	TraceID string
	Value   float64
	Time    time.Time
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	return &Histogram{
		upper:  upper,
		counts: make([]atomic.Uint64, len(upper)+1),
		ex:     make([]atomic.Pointer[Exemplar], len(upper)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.observe(v)
}

// observe returns the bucket index the value landed in.
func (h *Histogram) observe(v float64) int {
	// Prometheus buckets are `le` (inclusive): first upper bound >= v.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return i
		}
	}
}

// ObserveExemplar records one value and, when traceID is non-empty,
// stamps it as the bucket's exemplar. The default text exposition is
// unchanged; exemplars surface only in the OpenMetrics dialect.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	i := h.observe(v)
	if traceID != "" {
		h.ex[i].Store(&Exemplar{TraceID: traceID, Value: v, Time: time.Now()})
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

func (h *Histogram) writeTo(w io.Writer, family, labels string, openMetrics bool) error {
	var cum uint64
	for i := 0; i <= len(h.upper); i++ {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.upper) {
			le = formatFloat(h.upper[i])
		}
		line := seriesName(family+"_bucket", joinLabels(labels, `le="`+le+`"`)) +
			" " + strconv.FormatUint(cum, 10)
		if openMetrics {
			if ex := h.ex[i].Load(); ex != nil {
				line += " # {trace_id=\"" + escapeLabelValue(ex.TraceID) + "\"} " +
					formatFloat(ex.Value) + " " +
					strconv.FormatFloat(float64(ex.Time.UnixNano())/1e9, 'f', 3, 64)
			}
		}
		if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
			return err
		}
	}
	if err := writeLine(w, family+"_sum", labels, formatFloat(h.Sum())); err != nil {
		return err
	}
	return writeLine(w, family+"_count", labels, strconv.FormatUint(cum, 10))
}

// funcMetric exposes a value computed at scrape time — used to surface
// counters that already live elsewhere (e.g. the compiled-schema cache)
// without double-accounting.
type funcMetric struct {
	fn func() float64
}

func (f *funcMetric) writeTo(w io.Writer, family, labels string, _ bool) error {
	_, err := fmt.Fprintf(w, "%s %s\n", seriesName(family, labels), formatFloat(f.fn()))
	return err
}

// Counter registers (or fetches) a counter. labels are alternating
// key/value pairs; the same name must always be used with the same
// metric type or Counter panics. Nil registries return nil handles.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(name, "counter", labels, func() metric { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic("telemetry: " + name + " already registered with a different kind")
	}
	return c
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.register(name, "gauge", labels, func() metric { return &Gauge{} })
	g, ok := m.(*Gauge)
	if !ok {
		panic("telemetry: " + name + " already registered with a different kind")
	}
	return g
}

// Histogram registers (or fetches) a histogram with the given upper
// bounds (DefBuckets when nil). Bucket layout is fixed at first
// registration; later calls with different buckets get the original.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	m := r.register(name, "histogram", labels, func() metric { return newHistogram(buckets) })
	h, ok := m.(*Histogram)
	if !ok {
		panic("telemetry: " + name + " already registered with a different kind")
	}
	return h
}

// CounterFunc registers a scrape-time counter callback. Re-registering
// the same series replaces the callback (so idempotent wiring is safe).
// fn must not call back into the registry.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.registerFunc(name, "counter", fn, labels)
}

// GaugeFunc registers a scrape-time gauge callback; see CounterFunc.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.registerFunc(name, "gauge", fn, labels)
}

func (r *Registry) register(name, typ string, labels []string, mk func() metric) metric {
	block := canonLabels(labels)
	mustValidName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.types[name]; ok && have != typ {
		panic("telemetry: " + name + " registered as " + have + ", requested as " + typ)
	}
	r.types[name] = typ
	fam := r.metrics[name]
	if fam == nil {
		fam = make(map[string]metric)
		r.metrics[name] = fam
	}
	if m, ok := fam[block]; ok {
		return m
	}
	m := mk()
	fam[block] = m
	return m
}

func (r *Registry) registerFunc(name, typ string, fn func() float64, labels []string) {
	block := canonLabels(labels)
	mustValidName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.types[name]; ok && have != typ {
		panic("telemetry: " + name + " registered as " + have + ", requested as " + typ)
	}
	r.types[name] = typ
	fam := r.metrics[name]
	if fam == nil {
		fam = make(map[string]metric)
		r.metrics[name] = fam
	}
	fam[block] = &funcMetric{fn: fn}
}

// Value reads one series by name and labels: counters return their
// count, gauges and func metrics their value, histograms their
// observation count. The second result is false when the series does
// not exist.
func (r *Registry) Value(name string, labels ...string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	block := canonLabels(labels)
	r.mu.RLock()
	fam := r.metrics[name]
	m, ok := fam[block]
	r.mu.RUnlock()
	if !ok {
		return 0, false
	}
	switch v := m.(type) {
	case *Counter:
		return float64(v.Value()), true
	case *Gauge:
		return v.Value(), true
	case *Histogram:
		return float64(v.Count()), true
	case *funcMetric:
		return v.fn(), true
	}
	return 0, false
}

// WritePrometheus writes every family in text exposition format 0.0.4,
// families sorted by name and series sorted by label block. Callback
// metrics are evaluated outside the registry lock.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeExposition(w, false)
}

// WriteOpenMetrics writes the OpenMetrics dialect: the same families and
// ordering as WritePrometheus, plus per-bucket exemplars on histograms
// and the terminating `# EOF` marker. Scrapers opt in via the Accept
// header; the default exposition stays byte-identical to 0.0.4.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if err := r.writeExposition(w, true); err != nil {
		return err
	}
	if r == nil {
		return nil
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func (r *Registry) writeExposition(w io.Writer, openMetrics bool) error {
	if r == nil {
		return nil
	}
	type series struct {
		labels string
		m      metric
	}
	type family struct {
		name, typ string
		series    []series
	}
	r.mu.RLock()
	fams := make([]family, 0, len(r.metrics))
	for name, byLabel := range r.metrics {
		f := family{name: name, typ: r.types[name]}
		for block, m := range byLabel {
			f.series = append(f.series, series{labels: block, m: m})
		}
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := s.m.writeTo(w, f.name, s.labels, openMetrics); err != nil {
				return err
			}
		}
	}
	return nil
}

// seriesName renders `family{labels}` (braces dropped when unlabeled).
func seriesName(family, labels string) string {
	if labels == "" {
		return family
	}
	return family + "{" + labels + "}"
}

func writeLine(w io.Writer, name, labels, value string) error {
	_, err := fmt.Fprintf(w, "%s %s\n", seriesName(name, labels), value)
	return err
}

func joinLabels(block, extra string) string {
	if block == "" {
		return extra
	}
	return block + "," + extra
}

// canonLabels turns alternating key/value pairs into the canonical
// sorted `k="v",...` block used as the series key.
func canonLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("telemetry: odd number of label arguments")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		mustValidLabelKey(labels[i])
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func mustValidName(name string) {
	if !validMetricName(name) {
		panic("telemetry: invalid metric name " + strconv.Quote(name))
	}
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func mustValidLabelKey(k string) {
	if k == "" {
		panic("telemetry: empty label key")
	}
	for i, c := range k {
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			panic("telemetry: invalid label key " + strconv.Quote(k))
		}
	}
}
