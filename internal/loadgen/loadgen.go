// Package loadgen is an HTTP load-generation harness for a live axmld peer.
// It discovers the peer's schema over GET /wsdl, derives an identity exchange
// schema and a conforming document population from it, then drives the
// serving endpoints with one of four workload mixes in open- or closed-loop
// mode, recording client-side latency histograms whose buckets are a strict
// superset of the server's telemetry.DefBuckets — so the client numbers can
// be cross-checked against the peer's /metrics exposition exactly.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"axml/internal/doc"
	"axml/internal/telemetry"
	"axml/internal/workload"
	"axml/internal/wsdl"
	"axml/internal/xmlio"
	"axml/internal/xsdint"
)

// Handler label values, matching the server's telemetry instrumentation.
const (
	handlerExchange       = "exchange"
	handlerDoc            = "doc"
	handlerWSDL           = "wsdl"
	handlerStats          = "stats"
	handlerDocs           = "docs"
	handlerDocsByFunction = "docs_by_function"
)

var handlerNames = []string{handlerExchange, handlerDoc, handlerWSDL, handlerStats, handlerDocs, handlerDocsByFunction}

// handlerExchangeTTFB is the client-only time-to-first-body-byte series the
// stream mix records alongside the full exchange round trip. It has no
// server-side histogram, so it is reported but never cross-checked.
const handlerExchangeTTFB = "exchange_ttfb"

// Mixes are the supported workload mix names.
var Mixes = []string{"exchange", "mutation", "mixed", "skewed", "store", "stream", "replica"}

// Config parameterizes one load-generation run.
type Config struct {
	// BaseURL is the peer's address, e.g. http://127.0.0.1:8080. Reads always
	// go here; point it at a follower to measure hot-standby serving.
	BaseURL string
	// WriteURL, when set, receives every mutation (setup population PUTs and
	// the mixes' PUT/DELETE ops) instead of BaseURL. Against a replicated
	// pair, set WriteURL to the leader and BaseURL to a follower: the replica
	// mix then measures the read-your-writes gap as stale reads.
	WriteURL string
	// Mix selects the workload: exchange (rewrite-heavy), mutation
	// (PUT/DELETE-heavy), mixed (intensional + extensional + introspection),
	// skewed (exchange traffic with Zipf-distributed hot keys), store
	// (storage-engine churn: mutations plus /docs pagination and
	// /docs/by-function index lookups), stream (exchange traffic that
	// also records time-to-first-body-byte — against a peer running with
	// -stream, first-byte latency decouples from document size), or replica
	// (writes to WriteURL, stale-tolerant reads from BaseURL — point them at
	// a leader/follower pair).
	Mix string
	// Duration bounds the measured run (setup excluded). Default 5s.
	Duration time.Duration
	// Concurrency is the worker count. Default 8.
	Concurrency int
	// Rate is the target request rate in req/s across all workers; 0 runs
	// closed-loop (each worker issues its next request as soon as the
	// previous completes).
	Rate float64
	// Seed makes document generation and op sequencing reproducible.
	Seed int64
	// Docs is the generated document population size. Default 32.
	Docs int
	// DocBytes, when positive, pads each generated document's text content
	// until its rendered form reaches roughly this many bytes (1 KiB,
	// 64 KiB, and 1 MiB are the benchmark tiers). 0 keeps the generator's
	// natural size.
	DocBytes int
	// Zipf is the skew exponent for the skewed mix (must be > 1). Default 1.2.
	Zipf float64
	// Client is the HTTP client; a default with a 30s timeout if nil.
	Client *http.Client
	// CheckMetrics scrapes /metrics before and after the run and cross-checks
	// client histograms against the server's. Requires the peer to run with
	// telemetry, and the loadgen to be the server's only client meanwhile.
	CheckMetrics bool
}

func (c Config) withDefaults() Config {
	if c.Mix == "" {
		c.Mix = "mixed"
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Docs <= 0 {
		c.Docs = 32
	}
	if c.Zipf <= 1 {
		c.Zipf = 1.2
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// writeBase is where mutations go: WriteURL when set, else BaseURL.
func (c Config) writeBase() string {
	if c.WriteURL != "" {
		return c.WriteURL
	}
	return c.BaseURL
}

// HandlerStats summarizes client-observed latency for one server handler.
type HandlerStats struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_s"`
	P99   float64 `json:"p99_s"`
	P999  float64 `json:"p999_s"`
}

// Report is the result of one run, serialized into BENCH_load.json.
type Report struct {
	Mix         string  `json:"mix"`
	Duration    float64 `json:"duration_s"`
	Concurrency int     `json:"concurrency"`
	DocBytes    int     `json:"doc_bytes,omitempty"`
	Rate        float64 `json:"rate_rps,omitempty"` // 0 = closed loop
	Requests    uint64  `json:"requests"`
	Non2xx      uint64  `json:"non_2xx"`
	// StaleReads counts replica-mix reads a lagging follower answered with a
	// 404 or an out-of-date payload — tolerated by design, reported so lag
	// is visible.
	StaleReads uint64                  `json:"stale_reads,omitempty"`
	Errors     uint64                  `json:"transport_errors"`
	Dropped    uint64                  `json:"dropped"` // open loop only: shed by the rate dispatcher
	Throughput float64                 `json:"throughput_rps"`
	Status     map[string]uint64       `json:"status"`
	Handlers   map[string]HandlerStats `json:"handlers"`
	Checks     []MetricsCheck          `json:"metrics_checks,omitempty"`
	ChecksOK   bool                    `json:"metrics_checks_ok"`
}

// Runner drives one configured run against a live peer.
type Runner struct {
	cfg      Config
	identity []byte   // identity exchange schema, rendered from the peer's own
	bodies   [][]byte // rendered conforming documents, reused as PUT payloads
	popNames []string // names of the PUT population (ldg-0000 ...)
	funcName string   // a function declared by the peer's schema, for /docs/by-function
	hists    map[string]*hist

	// Trace-propagation sampling (CheckMetrics only): every exchange request
	// carries a client-minted traceparent; the ring keeps the last few trace
	// IDs so the post-run check can find them in the server's bounded
	// /debug/traces span ring — early IDs would have been evicted.
	traceMu     sync.Mutex
	traceSample []string
	traceNext   int
}

// traceSampleCap bounds the trace IDs verified against /debug/traces.
const traceSampleCap = 8

// New builds a runner; Run performs setup and the measured phase.
func New(cfg Config) *Runner {
	return &Runner{cfg: cfg.withDefaults()}
}

// setup fetches the peer's WSDL_int, renders the identity exchange schema,
// and installs a generated conforming document population under /doc.
func (r *Runner) setup(ctx context.Context) error {
	cfg := r.cfg
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cfg.BaseURL+"/wsdl", nil)
	if err != nil {
		return err
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("loadgen: fetch /wsdl: %w", err)
	}
	desc, err := wsdl.Parse(resp.Body, xsdint.Options{})
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("loadgen: parse WSDL: %w", err)
	}
	identity, err := xsdint.String(desc.Schema, nil)
	if err != nil {
		return fmt.Errorf("loadgen: render identity schema: %w", err)
	}
	r.identity = []byte(identity)
	if funcs := desc.Schema.SortedFuncs(); len(funcs) > 0 {
		r.funcName = funcs[0]
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := workload.NewGenerator(desc.Schema, rng)
	r.bodies = r.bodies[:0]
	r.popNames = r.popNames[:0]
	for i := 0; i < cfg.Docs; i++ {
		root, err := gen.Root()
		if err != nil {
			return fmt.Errorf("loadgen: generate document: %w", err)
		}
		var buf bytes.Buffer
		if err := xmlio.Write(&buf, root); err != nil {
			return fmt.Errorf("loadgen: render document: %w", err)
		}
		if cfg.DocBytes > buf.Len() && inflate(root, cfg.DocBytes-buf.Len()) {
			buf.Reset()
			if err := xmlio.Write(&buf, root); err != nil {
				return fmt.Errorf("loadgen: render document: %w", err)
			}
		}
		body := buf.Bytes()
		name := fmt.Sprintf("ldg-%04d", i)
		if err := r.put(ctx, name, body); err != nil {
			return err
		}
		r.bodies = append(r.bodies, body)
		r.popNames = append(r.popNames, name)
	}
	return nil
}

// inflate pads the document's text leaves by need rendered bytes, spread
// evenly (the filler needs no XML escaping, so one character is one byte).
// Only existing text nodes grow — a data element admits text of any length,
// so the document stays schema-conformant. Reports false when the document
// has no text content to pad.
func inflate(root *doc.Node, need int) bool {
	var texts []*doc.Node
	var walk func(n *doc.Node)
	walk = func(n *doc.Node) {
		if n.Kind == doc.Text {
			texts = append(texts, n)
			return
		}
		if n.Kind == doc.Func {
			return // padding a parameter would change what services receive
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	if len(texts) == 0 || need <= 0 {
		return false
	}
	per := need / len(texts)
	for i, tn := range texts {
		pad := per
		if i == len(texts)-1 {
			pad = need - per*(len(texts)-1)
		}
		tn.Value += strings.Repeat("x", pad)
	}
	return true
}

func (r *Runner) put(ctx context.Context, name string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, r.cfg.writeBase()+"/doc/"+name, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("loadgen: PUT /doc/%s: %w", name, err)
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("loadgen: PUT /doc/%s: status %d: %s", name, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

func (r *Runner) scrapeMetrics(ctx context.Context) (*scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.cfg.BaseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("loadgen: scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: scrape /metrics: status %d (is the peer running with telemetry?)", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// workerStats are per-worker counters, merged after the run — workers never
// share mutable state on the hot path except the lock-free histograms.
type workerStats struct {
	requests   uint64
	non2xx     uint64
	errors     uint64
	staleReads uint64
	status     map[int]uint64
}

type worker struct {
	id    int
	r     *Runner
	rng   *rand.Rand
	zipf  *rand.Zipf
	stats workerStats
	key   string // worker-private document name for mutation ops
	body  []byte // PUT payload for the private document
	// writeSeq is the highest acknowledged probe sequence this worker has
	// written (replica mix): a follower read answering below it is stale.
	writeSeq uint64
}

// weightedOp pairs a relative weight with a request closure.
type weightedOp struct {
	weight int
	run    func(w *worker)
}

// do issues one request against BaseURL, records latency into the handler's
// histogram and the outcome into the worker's counters. Latency covers the
// full round trip including response body drain, matching what a real client
// sees.
func (w *worker) do(method, path string, body []byte, handler string) {
	w.doAt(w.r.cfg.BaseURL, method, path, body, handler)
}

// doAt is do against an explicit base URL (mutations may target WriteURL).
// It reports the HTTP status, 0 on a transport error.
func (w *worker) doAt(base, method, path string, body []byte, handler string) int {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		w.stats.errors++
		return 0
	}
	if w.r.cfg.CheckMetrics && handler == handlerExchange {
		req.Header.Set(telemetry.TraceparentHeader, w.r.mintTraceparent())
	}
	start := time.Now()
	resp, err := w.r.cfg.Client.Do(req)
	if err != nil {
		w.stats.errors++
		return 0
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	w.r.hists[handler].observe(time.Since(start).Seconds())
	w.stats.requests++
	w.stats.status[resp.StatusCode]++
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		w.stats.non2xx++
	}
	return resp.StatusCode
}

// replicaWrite PUTs the next probe document to the write side (the leader)
// under the worker-private key; only an acknowledged write raises the bar a
// follower read is held to.
func (w *worker) replicaWrite() {
	next := w.writeSeq + 1
	body := []byte(fmt.Sprintf("<probe>%d</probe>", next))
	if st := w.doAt(w.r.cfg.writeBase(), http.MethodPut, "/doc/"+w.key, body, handlerDoc); st >= 200 && st <= 299 {
		w.writeSeq = next
	}
}

// replicaGet reads a document from BaseURL (the follower) tolerating
// replication lag: a 404, or — when wantSeq > 0 — a probe payload older than
// the last acknowledged write, counts as a stale read instead of a failure.
func (w *worker) replicaGet(name string, wantSeq uint64) {
	req, err := http.NewRequest(http.MethodGet, w.r.cfg.BaseURL+"/doc/"+name, nil)
	if err != nil {
		w.stats.errors++
		return
	}
	start := time.Now()
	resp, err := w.r.cfg.Client.Do(req)
	if err != nil {
		w.stats.errors++
		return
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	w.r.hists[handlerDoc].observe(time.Since(start).Seconds())
	w.stats.requests++
	w.stats.status[resp.StatusCode]++
	switch {
	case resp.StatusCode == http.StatusNotFound:
		w.stats.staleReads++ // not replicated yet: lag, not an error
	case resp.StatusCode >= 200 && resp.StatusCode <= 299:
		if seq, ok := parseProbeSeq(data); wantSeq > 0 && ok && seq < wantSeq {
			w.stats.staleReads++
		}
	default:
		w.stats.non2xx++
	}
}

// parseProbeSeq extracts the sequence number from a rendered probe document
// (the first digit run in the body), tolerant of serialization differences.
func parseProbeSeq(body []byte) (uint64, bool) {
	var n uint64
	seen := false
	for _, b := range body {
		if b >= '0' && b <= '9' {
			n = n*10 + uint64(b-'0')
			seen = true
			continue
		}
		if seen {
			break
		}
	}
	return n, seen
}

// doStream issues one POST /exchange and records two latencies: time to the
// first body byte into the client-only TTFB histogram, and the full drain
// into the exchange histogram (so cross-checks against the server still
// hold). Against a streaming peer the first byte arrives while the server is
// still enforcing the document tail; against a buffering peer the two
// coincide.
func (w *worker) doStream(path string, body []byte) {
	req, err := http.NewRequest(http.MethodPost, w.r.cfg.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		w.stats.errors++
		return
	}
	if w.r.cfg.CheckMetrics {
		req.Header.Set(telemetry.TraceparentHeader, w.r.mintTraceparent())
	}
	start := time.Now()
	resp, err := w.r.cfg.Client.Do(req)
	if err != nil {
		w.stats.errors++
		return
	}
	var first [1]byte
	if n, _ := io.ReadFull(resp.Body, first[:]); n > 0 {
		w.r.hists[handlerExchangeTTFB].observe(time.Since(start).Seconds())
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	w.r.hists[handlerExchange].observe(time.Since(start).Seconds())
	w.stats.requests++
	w.stats.status[resp.StatusCode]++
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		w.stats.non2xx++
	}
}

// mintTraceparent mints a fresh trace for one exchange request and keeps
// its ID in the rolling sample ring.
func (r *Runner) mintTraceparent() string {
	id := telemetry.NewID()
	r.traceMu.Lock()
	if len(r.traceSample) < traceSampleCap {
		r.traceSample = append(r.traceSample, id)
	} else {
		r.traceSample[r.traceNext] = id
	}
	r.traceNext = (r.traceNext + 1) % traceSampleCap
	r.traceMu.Unlock()
	return telemetry.FormatTraceparent(id, telemetry.NewID())
}

// checkTraces verifies that the most recently minted client trace IDs are
// present in the server's /debug/traces span ring — end-to-end proof that
// the traceparent header joins the client's trace to the server's spans.
func (r *Runner) checkTraces(ctx context.Context) MetricsCheck {
	chk := MetricsCheck{Handler: "trace_propagation"}
	r.traceMu.Lock()
	sample := append([]string(nil), r.traceSample...)
	r.traceMu.Unlock()
	chk.ClientCount = uint64(len(sample))
	if len(sample) == 0 {
		chk.OK = true // mix issued no exchange requests
		return chk
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.cfg.BaseURL+"/debug/traces", nil)
	if err != nil {
		chk.Reason = err.Error()
		return chk
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		chk.Reason = fmt.Sprintf("fetch /debug/traces: %v", err)
		return chk
	}
	var traces struct {
		Spans []telemetry.SpanRecord `json:"spans"`
	}
	err = json.NewDecoder(resp.Body).Decode(&traces)
	resp.Body.Close()
	if err != nil {
		chk.Reason = fmt.Sprintf("decode /debug/traces: %v", err)
		return chk
	}
	seen := make(map[string]bool, len(traces.Spans))
	for _, s := range traces.Spans {
		seen[s.TraceID] = true
	}
	var missing []string
	for _, id := range sample {
		if seen[id] {
			chk.ServerCount++
		} else {
			missing = append(missing, id)
		}
	}
	if len(missing) > 0 {
		chk.Reason = fmt.Sprintf("client trace IDs absent from /debug/traces: %v", missing)
		return chk
	}
	chk.OK = true
	return chk
}

// pickUniform and pickSkewed choose a population document.
func (w *worker) pickUniform() string { return w.r.popNames[w.rng.Intn(len(w.r.popNames))] }
func (w *worker) pickSkewed() string  { return w.r.popNames[int(w.zipf.Uint64())] }

// mixOps builds the weighted op table for the configured mix. Mutation ops
// target a worker-private key so DELETE/PUT races between workers cannot
// manufacture expected-vs-observed status mismatches; reads still hit the
// shared population.
func (r *Runner) mixOps() ([]weightedOp, error) {
	exchange := func(pick func(w *worker) string) func(w *worker) {
		return func(w *worker) {
			w.do(http.MethodPost, "/exchange/"+pick(w)+"?mode=safe", r.identity, handlerExchange)
		}
	}
	get := func(pick func(w *worker) string) func(w *worker) {
		return func(w *worker) { w.do(http.MethodGet, "/doc/"+pick(w), nil, handlerDoc) }
	}
	putPrivate := func(w *worker) { w.doAt(r.cfg.writeBase(), http.MethodPut, "/doc/"+w.key, w.body, handlerDoc) }
	deletePrivate := func(w *worker) { w.doAt(r.cfg.writeBase(), http.MethodDelete, "/doc/"+w.key, nil, handlerDoc) }
	getWSDL := func(w *worker) { w.do(http.MethodGet, "/wsdl", nil, handlerWSDL) }
	getStats := func(w *worker) { w.do(http.MethodGet, "/stats", nil, handlerStats) }
	listDocs := func(w *worker) { w.do(http.MethodGet, "/docs?limit=50", nil, handlerDocs) }
	byFunction := func(w *worker) {
		w.do(http.MethodGet, "/docs/by-function/"+r.funcName, nil, handlerDocsByFunction)
	}
	uniform := func(w *worker) string { return w.pickUniform() }
	skewed := func(w *worker) string { return w.pickSkewed() }
	exchangeStream := func(w *worker) {
		w.doStream("/exchange/"+w.pickUniform()+"?mode=safe", r.identity)
	}

	switch r.cfg.Mix {
	case "exchange":
		return []weightedOp{{90, exchange(uniform)}, {10, get(uniform)}}, nil
	case "mutation":
		return []weightedOp{{40, putPrivate}, {30, deletePrivate}, {30, get(uniform)}}, nil
	case "mixed":
		return []weightedOp{{45, exchange(uniform)}, {20, get(uniform)}, {15, putPrivate}, {10, getWSDL}, {10, getStats}}, nil
	case "skewed":
		return []weightedOp{{70, exchange(skewed)}, {30, get(skewed)}}, nil
	case "store":
		if r.funcName == "" {
			return nil, fmt.Errorf("loadgen: the store mix needs a schema-declared function for /docs/by-function")
		}
		return []weightedOp{{25, putPrivate}, {15, deletePrivate}, {30, get(uniform)}, {15, listDocs}, {15, byFunction}}, nil
	case "stream":
		return []weightedOp{{90, exchangeStream}, {10, get(uniform)}}, nil
	case "replica":
		// Writes land on the leader (writeBase), reads on BaseURL — pointed
		// at a follower, read-your-writes checks turn replication lag into
		// the stale_reads counter instead of failures. Population reads
		// tolerate 404 too: setup wrote those documents to the leader and a
		// cold follower may still be bootstrapping.
		writeProbe := func(w *worker) { w.replicaWrite() }
		readOwn := func(w *worker) {
			if w.writeSeq == 0 {
				w.replicaWrite()
				return
			}
			w.replicaGet(w.key, w.writeSeq)
		}
		readPopulation := func(w *worker) { w.replicaGet(w.pickUniform(), 0) }
		return []weightedOp{{30, writeProbe}, {45, readOwn}, {25, readPopulation}}, nil
	default:
		return nil, fmt.Errorf("loadgen: unknown mix %q (want one of %v)", r.cfg.Mix, Mixes)
	}
}

// loop runs ops until the context expires. Closed loop: back-to-back. Open
// loop: one op per token from the rate dispatcher.
func (w *worker) loop(ctx context.Context, ops []weightedOp, total int, tokens <-chan struct{}) {
	for {
		if tokens != nil {
			select {
			case <-ctx.Done():
				return
			case _, ok := <-tokens:
				if !ok {
					return
				}
			}
		} else if ctx.Err() != nil {
			return
		}
		n := w.rng.Intn(total)
		for _, op := range ops {
			if n < op.weight {
				op.run(w)
				break
			}
			n -= op.weight
		}
	}
}

// Run performs setup, the measured phase, and (optionally) the /metrics
// cross-check, returning the report. The context bounds the whole run;
// cfg.Duration bounds the measured phase.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	cfg := r.cfg
	if err := r.setup(ctx); err != nil {
		return nil, err
	}
	r.hists = make(map[string]*hist, len(handlerNames)+1)
	bounds := clientBuckets()
	for _, h := range handlerNames {
		r.hists[h] = newHist(bounds)
	}
	r.hists[handlerExchangeTTFB] = newHist(bounds)
	ops, err := r.mixOps()
	if err != nil {
		return nil, err
	}
	total := 0
	for _, op := range ops {
		total += op.weight
	}

	var before *scrape
	if cfg.CheckMetrics {
		if before, err = r.scrapeMetrics(ctx); err != nil {
			return nil, err
		}
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	var dropped atomic.Uint64
	var tokens chan struct{}
	if cfg.Rate > 0 {
		tokens = make(chan struct{}, cfg.Concurrency*4)
		interval := time.Duration(float64(time.Second) / cfg.Rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-runCtx.Done():
					close(tokens)
					return
				case <-tick.C:
					select {
					case tokens <- struct{}{}:
					default:
						dropped.Add(1) // workers saturated: shed, don't queue
					}
				}
			}
		}()
	}

	workers := make([]*worker, cfg.Concurrency)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range workers {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i) + 1))
		w := &worker{
			id:    i,
			r:     r,
			rng:   rng,
			zipf:  rand.NewZipf(rng, cfg.Zipf, 1, uint64(len(r.popNames)-1)),
			stats: workerStats{status: map[int]uint64{}},
			key:   fmt.Sprintf("ldg-w%d", i),
			body:  r.bodies[i%len(r.bodies)],
		}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(runCtx, ops, total, tokens)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{
		Mix:         cfg.Mix,
		Duration:    elapsed.Seconds(),
		Concurrency: cfg.Concurrency,
		DocBytes:    cfg.DocBytes,
		Rate:        cfg.Rate,
		Dropped:     dropped.Load(),
		Status:      map[string]uint64{},
		Handlers:    map[string]HandlerStats{},
		ChecksOK:    true,
	}
	for _, w := range workers {
		rep.Requests += w.stats.requests
		rep.Non2xx += w.stats.non2xx
		rep.Errors += w.stats.errors
		rep.StaleReads += w.stats.staleReads
		for code, n := range w.stats.status {
			rep.Status[fmt.Sprintf("%d", code)] += n
		}
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.Requests) / elapsed.Seconds()
	}
	for name, h := range r.hists {
		if c := h.count(); c > 0 {
			rep.Handlers[name] = HandlerStats{
				Count: c,
				P50:   h.quantile(0.50),
				P99:   h.quantile(0.99),
				P999:  h.quantile(0.999),
			}
		}
	}

	if cfg.CheckMetrics {
		after, err := r.scrapeMetrics(ctx)
		if err != nil {
			return nil, err
		}
		for _, name := range handlerNames {
			if r.hists[name].count() == 0 {
				continue
			}
			chk := crossCheck(name, r.hists[name], before, after)
			rep.Checks = append(rep.Checks, chk)
			if !chk.OK {
				rep.ChecksOK = false
			}
		}
		if chk := r.checkTraces(ctx); chk.ClientCount > 0 || !chk.OK {
			rep.Checks = append(rep.Checks, chk)
			if !chk.OK {
				rep.ChecksOK = false
			}
		}
	}
	return rep, nil
}
