package peer

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"axml/internal/core"
	"axml/internal/soap"
	"axml/internal/store"
	"axml/internal/telemetry"
	"axml/internal/wal"
	"axml/internal/wsdl"
	"axml/internal/xmlio"
	"axml/internal/xsdint"
)

// Handler exposes the peer over HTTP:
//
//	POST /soap             — SOAP endpoint for the peer's operations, with
//	                         schema enforcement on parameters and results
//	GET  /wsdl             — the peer's WSDL_int description
//	GET  /doc/{name}       — a repository document, as stored (intensional)
//	PUT  /doc/{name}       — store the request body as the named document
//	DELETE /doc/{name}     — remove the named document (idempotent)
//	GET  /docs             — paginated document-name listing
//	                         (?limit=, ?after= cursor), as JSON
//	GET  /docs/by-function/{fn}
//	                       — names of documents embedding a pending call to
//	                         fn, answered from the store's function index
//	                         when the backend maintains one
//	POST /exchange/{name}  — the Figure 1 scenario: the request body is an
//	                         XML Schema_int exchange schema; the response is
//	                         the document rewritten to conform to it.
//	                         ?mode=safe|possible|mixed (default: the peer's)
//	GET  /stats            — enforcement-cache and audit counters, as JSON
//	GET  /healthz          — liveness probe (200 while serving)
//	GET  /readyz           — readiness probe (503 before ready / while
//	                         draining; see Peer.Health)
//
// When Telemetry is set, every route is wrapped with per-handler request
// metrics and spans — an incoming `traceparent` header joins the
// caller's trace — and two further routes appear:
//
//	GET  /metrics          — Prometheus text exposition of the registry
//	                         (OpenMetrics with exemplars when Accept
//	                         asks for application/openmetrics-text)
//	GET  /debug/traces     — the recent-span ring, as JSON
//
// When Flight is set, /debug/slow serves the flight recorder: the
// slowest and all failed requests with span trees, audit events and
// per-stage latency. When Logger is set, every request logs one
// structured line carrying the same trace ID.
func (p *Peer) Handler() http.Handler {
	p.instruments() // wire cache scrape-time series before traffic
	mux := http.NewServeMux()
	hook := p.handlerHook()
	handle := func(pattern, name string, h http.Handler) {
		mux.Handle(pattern, telemetry.InstrumentHandlerWith(p.Telemetry, name, h, hook))
	}
	handle("/soap", "soap", &soap.Server{
		Registry:        p.Services,
		Namespace:       "urn:axml:" + p.Name,
		OnRequest:       p.EnforceIn,
		OnResponse:      p.EnforceOut,
		MaxRequestBytes: p.MaxRequestBytes,
	})
	handle("/wsdl", "wsdl", http.HandlerFunc(p.handleWSDL))
	handle("/doc/", "doc", http.HandlerFunc(p.handleDoc))
	handle("/docs", "docs", http.HandlerFunc(p.handleDocs))
	handle("/docs/by-function/", "docs_by_function", http.HandlerFunc(p.handleDocsByFunction))
	handle("/exchange/", "exchange", http.HandlerFunc(p.handleExchange))
	handle("/stats", "stats", http.HandlerFunc(p.handleStats))
	if p.Replica != nil {
		handle("/replica/", "replica", http.StripPrefix("/replica", p.Replica))
	}
	mux.Handle("/healthz", http.HandlerFunc(p.handleHealthz))
	mux.Handle("/readyz", http.HandlerFunc(p.handleReadyz))
	if p.Telemetry != nil {
		mux.Handle("/metrics", p.Telemetry.MetricsHandler())
		mux.Handle("/debug/traces", p.Telemetry.Tracer().TracesHandler())
	}
	if p.Flight != nil {
		mux.Handle("/debug/slow", p.Flight.Handler())
	}
	return mux
}

// handlerHook builds the per-request completion hook shared by every
// instrumented route: the structured request log line and flight-
// recorder admission. Nil when neither Logger nor Flight is configured,
// keeping the plain path identical to before.
func (p *Peer) handlerHook() *telemetry.HandlerHook {
	if p.Logger == nil && p.Flight == nil {
		return nil
	}
	return &telemetry.HandlerHook{
		Stages: p.Flight != nil,
		OnDone: p.requestDone,
	}
}

// requestDone runs after each instrumented request: one structured log
// line, then flight-recorder admission. Snapshotting the span tree and
// audit trail happens only for admitted requests (slow or failed), so
// the fast path pays one atomic threshold check.
func (p *Peer) requestDone(ctx context.Context, info telemetry.RequestInfo) {
	if l := p.Logger; l != nil {
		lv := slog.LevelInfo
		switch {
		case info.Status >= 500:
			lv = slog.LevelError
		case info.Status >= 400:
			lv = slog.LevelWarn
		}
		l.LogAttrs(ctx, lv, "request",
			slog.String("handler", info.Handler),
			slog.String("method", info.Method),
			slog.String("path", info.Path),
			slog.Int("status", info.Status),
			slog.Int64("bytes_in", info.RequestBytes),
			slog.Int64("bytes_out", info.ResponseBytes),
			slog.Duration("duration", info.Duration),
		)
	}
	f := p.Flight
	if f == nil {
		return
	}
	failed := info.Status >= 400
	if !f.Admits(info.Duration, failed) {
		return
	}
	rec := telemetry.FlightRecord{
		TraceID:       info.TraceID,
		Handler:       info.Handler,
		Method:        info.Method,
		Path:          info.Path,
		Status:        info.Status,
		Failed:        failed,
		Start:         info.Start,
		Duration:      info.Duration,
		RequestBytes:  info.RequestBytes,
		ResponseBytes: info.ResponseBytes,
		Stages:        telemetry.StagesFrom(ctx).Seconds(),
	}
	if tr := p.Telemetry.Tracer(); tr != nil && info.TraceID != "" {
		rec.Spans = tr.SpansForTrace(info.TraceID)
		// Invoke wait is the sum of the request's invoke.* spans — the
		// stage breakdown's remote-call share.
		var wait time.Duration
		for _, s := range rec.Spans {
			if strings.HasPrefix(s.Name, "invoke.") {
				wait += s.Duration
			}
		}
		if wait > 0 {
			if rec.Stages == nil {
				rec.Stages = make(map[string]float64, 1)
			}
			rec.Stages["invoke"] = wait.Seconds()
		}
	}
	for _, e := range p.Audit.EventsFor(info.TraceID) {
		rec.Events = append(rec.Events, telemetry.FlightEvent{
			Kind:     e.Kind,
			Func:     e.Func,
			Endpoint: e.Endpoint,
			Attempt:  e.Attempt,
			Err:      e.Err,
		})
	}
	for _, c := range p.Audit.CallsFor(info.TraceID) {
		rec.Calls = append(rec.Calls, telemetry.FlightCall{
			Func:  c.Func,
			Depth: c.Depth,
			Nodes: c.ResultNodes,
		})
	}
	f.Observe(rec)
}

func (p *Peer) handleWSDL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	if err := wsdl.Write(w, p.Description(), nil); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeError emits the document API's uniform JSON error shape:
// {"error": message, "code": status}.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{"error": msg, "code": status})
}

// handleDoc serves GET (the stored intensional document), and — so that a
// durable daemon can be driven entirely over HTTP — PUT (store the request
// body as the named document) and DELETE. With a durability layer installed
// a 2xx answer means the mutation is journaled: a WAL append failure surfaces
// as 500 and the repository is unchanged. Errors are JSON {error, code}.
func (p *Peer) handleDoc(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/doc/")
	if r.Method == http.MethodPut || r.Method == http.MethodDelete {
		if msg, refused := p.refuseWrites(); refused {
			// 503 + Retry-After is the one guard shared by the two
			// cases that must reject writes: a draining peer (the store
			// is about to close under graceful shutdown) and a
			// replication follower (the apply loop owns the store).
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, msg)
			return
		}
	}
	switch r.Method {
	case http.MethodGet:
		d, ok := p.Repo.Get(name)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("no document %q", name))
			return
		}
		w.Header().Set("Content-Type", "text/xml; charset=utf-8")
		// WriteTo prints the shared stored tree straight into the response
		// through a pooled buffer: no clone, no retained rendering.
		_ = xmlio.WriteTo(w, d)
	case http.MethodPut:
		if err := store.ValidateDocName(name); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		body := p.limitBody(w, r)
		d, err := xmlio.Parse(body)
		if err != nil {
			writeError(w, body.errorStatus(err), err.Error())
			return
		}
		if err := p.Repo.Put(name, d); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodDelete:
		if err := p.Repo.Delete(name); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET, PUT or DELETE only")
	}
}

// docsPageLimit bounds one /docs page; requests above it are clamped.
const docsPageLimit = 1000

// handleDocs lists stored document names as one JSON page:
//
//	GET /docs?limit=100&after=<cursor>
//
// The response carries the page ("documents"), the total store size
// ("total") and, when further names exist, a "next" cursor — the last name
// of the page, to be passed back as ?after=.
func (p *Peer) handleDocs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	limit := store.DefaultScanLimit
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("limit must be a positive integer, got %q", s))
			return
		}
		limit = min(n, docsPageLimit)
	}
	after := r.URL.Query().Get("after")
	names, more, err := p.Repo.Scan(after, limit)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := map[string]any{
		"documents": names,
		"count":     len(names),
		"total":     p.Repo.Len(),
	}
	if more && len(names) > 0 {
		resp["next"] = names[len(names)-1]
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// handleDocsByFunction answers "which documents hold a pending call to this
// function" — from the store's function index when the backend maintains
// one (no document is parsed), by walking documents otherwise. The
// "indexed" field reports which path served the answer.
func (p *Peer) handleDocsByFunction(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	fname := strings.TrimPrefix(r.URL.Path, "/docs/by-function/")
	if fname == "" || strings.Contains(fname, "/") {
		writeError(w, http.StatusBadRequest, "want /docs/by-function/{function}")
		return
	}
	fi, indexed := p.Repo.(store.FunctionIndex)
	var names []string
	if indexed {
		var err error
		if names, err = fi.DocsWithFunction(fname); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	} else {
		for _, name := range p.Repo.Names() {
			d, ok := p.Repo.Get(name)
			if !ok {
				continue // deleted between Names and Get
			}
			for _, fn := range store.FuncNames(d) {
				if fn == fname {
					names = append(names, name)
					break
				}
			}
		}
	}
	if names == nil {
		names = []string{}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"function":  fname,
		"documents": names,
		"count":     len(names),
		"indexed":   indexed,
	})
}

func (p *Peer) handleExchange(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/exchange/")
	mode := p.Mode
	switch r.URL.Query().Get("mode") {
	case "safe":
		mode = core.Safe
	case "possible":
		mode = core.Possible
	case "mixed":
		mode = core.Mixed
	case "":
	default:
		http.Error(w, "mode must be safe, possible or mixed", http.StatusBadRequest)
		return
	}
	st := telemetry.StagesFrom(r.Context())
	buf := bodyPool.Get().(*bytes.Buffer)
	defer putBody(buf)
	c, status, err := p.receiver(st, p.limitBody(w, r), buf)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	// The response shares the stored version's untouched subtrees. From the
	// version's second exchange on, their stored bytes are spliced in from
	// its rendering, and only the rewritten spine and the returned forests
	// are printed; the first exchange, with no rendering, prints it all.
	// The rendering also records the spine, so the copy need not walk the
	// stored tree to find it, and it lets the check skip the shared
	// subtrees once a check of the version has passed under this pair.
	d, stored, ok := p.Repo.GetRendered(name)
	if !ok {
		err := p.noDocument(name)
		http.Error(w, err.Error(), exchangeErrorStatus(err))
		return
	}
	if stored != nil {
		d = d.SpineCopyAlong(stored.Spine())
	} else {
		d = d.SpineCopy()
	}
	out, err := p.send(r.Context(), name, d, c, stored, mode)
	if err != nil {
		http.Error(w, err.Error(), exchangeErrorStatus(err))
		return
	}
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	var t0 time.Time
	if st != nil {
		t0 = time.Now()
	}
	_ = xmlio.WriteSplicedTo(w, out, stored)
	if st != nil {
		st.Set(telemetry.StageSerialize, time.Since(t0))
	}
}

// bodyPool recycles the buffers POST /exchange reads receiver bodies into;
// putBody drops a buffer grown past maxPooledBody rather than keep it.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

func putBody(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBody {
		b.Reset()
		bodyPool.Put(b)
	}
}

// receiver reads a POST /exchange body into buf and returns the compiled
// pair of the peer's schema and the receiver schema the body declares.
// The enforcement cache answers a body it has filed for the peer's schema
// at its current version (CompiledCache.LookupReceiver) without a parse.
// Any other body is parsed into a request-scoped *overlay* of the peer's
// table: shared symbols resolve identically (so the rewriter can relate the
// two schemas and the cache still hits on equal schemas), while labels this
// peer has never seen intern into the throwaway overlay — N distinct
// hostile schemas leave the shared table, and therefore peer memory,
// untouched. Only a body that parses is filed. On error, status is 413 when
// the body cap tripped and 400 otherwise.
//
// The parse stage times the body read, the lookup and the parse; the
// compile stage, the compile-cache lookup by schema or the compile.
func (p *Peer) receiver(st *telemetry.Stages, body *cappedBody, buf *bytes.Buffer) (c *core.Compiled, status int, err error) {
	var t0 time.Time
	if st != nil {
		t0 = time.Now()
	}
	if _, err := buf.ReadFrom(body); err != nil {
		return nil, body.errorStatus(err), err
	}
	if c := p.Enforcement.LookupReceiver(p.Schema, buf.Bytes()); c != nil {
		if st != nil {
			st.Set(telemetry.StageParse, time.Since(t0))
		}
		return c, 0, nil
	}
	exchange, err := xsdint.Parse(bytes.NewReader(buf.Bytes()), xsdint.Options{Table: p.Schema.Table.Overlay()})
	if st != nil {
		st.Set(telemetry.StageParse, time.Since(t0))
		t0 = time.Now()
	}
	if err != nil {
		return nil, body.errorStatus(err), err
	}
	c = p.Enforcement.GetReceiver(p.Schema, exchange, buf.Bytes())
	if st != nil {
		st.Add(telemetry.StageCompile, time.Since(t0))
	}
	return c, 0, nil
}

func exchangeErrorStatus(err error) int {
	if errors.Is(err, store.ErrNotFound) {
		return http.StatusNotFound
	}
	return http.StatusUnprocessableEntity
}

// cappedBody is a request body behind http.MaxBytesReader that remembers
// whether the cap tripped. The XML parsers wrap the reader's
// *http.MaxBytesError with %w, but a body can also fail on malformed bytes
// the tokenizer read before the cap tripped, and is too large all the same,
// so the 413-vs-400 decision cannot rely on errors.As alone.
type cappedBody struct {
	r       io.Reader
	tripped bool
}

func (c *cappedBody) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			c.tripped = true
		}
	}
	return n, err
}

// errorStatus maps a body-read/parse error to a status: 413 when the body
// cap tripped, 400 for everything else.
func (c *cappedBody) errorStatus(err error) int {
	var tooBig *http.MaxBytesError
	if c.tripped || errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// limitBody wraps a request body with the peer's MaxRequestBytes cap — the
// same discipline the SOAP endpoint applies: 0 selects the SOAP default,
// negative disables the limit.
func (p *Peer) limitBody(w http.ResponseWriter, r *http.Request) *cappedBody {
	limit := p.MaxRequestBytes
	if limit == 0 {
		limit = soap.DefaultMaxRequestBytes
	}
	if limit <= 0 {
		return &cappedBody{r: r.Body}
	}
	return &cappedBody{r: http.MaxBytesReader(w, r.Body, limit)}
}

// handleStats reports the enforcement cache's effectiveness: compile-cache
// hits and misses (misses == core.Compile runs since start), the aggregated
// word-verdict memo counters, and the invocation audit size. With Telemetry
// configured the cache numbers are read back from the registry's
// axml_compile_cache_* / axml_word_cache_* series — the registry is the
// single source of truth and /stats is a JSON view of it (see DESIGN.md §8
// for the field-to-series mapping); the JSON shape is unchanged either way,
// except for a "telemetry" flag reporting which source served the numbers.
func (p *Peer) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	compiled := p.Enforcement.Stats()
	words := p.Enforcement.WordStats()
	if reg := p.Telemetry; reg != nil && p.instruments() != nil {
		compiled = registryCacheStats(reg, "axml_compile_cache", compiled)
		words = registryCacheStats(reg, "axml_word_cache", words)
	}
	storeStats := p.Repo.Stats()
	if p.Durable != nil {
		// Legacy wiring points Repo at the embedded in-memory layer
		// (p.Repo = d.Repository); the durability wrapper knows the
		// whole truth either way.
		storeStats = p.Durable.Stats()
	}
	stats := map[string]any{
		"peer":          p.Name,
		"documents":     storeStats.Documents,
		"store":         storeStats,
		"compile_cache": compiled,
		"word_cache":    words,
		"invocations":   p.Audit.Len(),
		"parallelism":   max(p.Parallelism, 1),
		"telemetry":     p.Telemetry != nil,
		"read_only":     p.ReadOnly,
	}
	if len(p.Peers) > 0 {
		stats["peers"] = p.Peers.Names()
	}
	if p.ReplicaStats != nil {
		stats["replica"] = p.ReplicaStats()
	}
	if p.Durable != nil {
		// The historical flat "wal" object is preserved for existing
		// consumers; "store" is the uniform view.
		ds := p.Durable.Stats()
		stats["wal"] = struct {
			*wal.Stats
			RecoveredDocuments int `json:"recovered_documents"`
			SnapshotEvery      int `json:"snapshot_every"`
		}{ds.WAL, ds.RecoveredDocuments, ds.SnapshotEvery}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(stats)
}

// registryCacheStats reassembles a CacheStats from the four scrape-time
// series the enforcement cache registers under the given prefix.
func registryCacheStats(reg *telemetry.Registry, prefix string, fallback core.CacheStats) core.CacheStats {
	hits, ok1 := reg.Value(prefix + "_hits_total")
	misses, ok2 := reg.Value(prefix + "_misses_total")
	evictions, ok3 := reg.Value(prefix + "_evictions_total")
	size, ok4 := reg.Value(prefix + "_entries")
	if !(ok1 && ok2 && ok3 && ok4) {
		return fallback
	}
	return core.CacheStats{
		Hits:      uint64(hits),
		Misses:    uint64(misses),
		Evictions: uint64(evictions),
		Size:      int(size),
	}
}
