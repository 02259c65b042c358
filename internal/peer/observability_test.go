package peer

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/invoke"
	"axml/internal/schema"
	"axml/internal/soap"
	"axml/internal/telemetry"
	"axml/internal/wsdl"
)

// syncBuf is a goroutine-safe log sink: requestDone fires inside the
// server goroutine, possibly after the client already saw the response.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// jsonLogger builds the daemon's JSON logger at info level over w.
func jsonLogger(t *testing.T, w io.Writer) *slog.Logger {
	t.Helper()
	h, err := telemetry.NewLogHandler(w, "json", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	return slog.New(h)
}

// TestObservabilityOneTraceID is the end-to-end correlation check: a
// client-minted trace ID travels in via traceparent and must surface,
// unchanged, on every observability surface — the structured request
// log line, the /debug/traces span tree, the audit trail, the
// /debug/slow flight record, and the OpenMetrics latency exemplar.
func TestObservabilityOneTraceID(t *testing.T) {
	p := newsPeer(t)
	p.Telemetry = telemetry.NewRegistry()
	logs := &syncBuf{}
	p.Logger = jsonLogger(t, logs)
	p.Flight = telemetry.NewFlight(4, 4)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	clientTrace := telemetry.NewID()
	req, err := http.NewRequest("POST", ts.URL+"/exchange/today?mode=safe", strings.NewReader(exchangeTarget))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/xml")
	req.Header.Set(telemetry.TraceparentHeader, telemetry.FormatTraceparent(clientTrace, telemetry.NewID()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exchange failed: %d %s", resp.StatusCode, body)
	}

	// Surface 1: the JSON request log line carries the client's trace ID.
	var logLine map[string]any
	waitFor(t, "request log line", func() bool {
		for _, line := range strings.Split(logs.String(), "\n") {
			var m map[string]any
			if json.Unmarshal([]byte(line), &m) == nil && m["msg"] == "request" {
				logLine = m
				return true
			}
		}
		return false
	})
	if logLine["trace_id"] != clientTrace {
		t.Errorf("log line trace_id = %v, want %s", logLine["trace_id"], clientTrace)
	}
	if logLine["handler"] != "exchange" || logLine["status"] != float64(200) {
		t.Errorf("log line = %v", logLine)
	}
	for _, k := range []string{"method", "path", "bytes_in", "bytes_out", "duration"} {
		if _, ok := logLine[k]; !ok {
			t.Errorf("log line missing %q: %v", k, logLine)
		}
	}

	// Surface 2: the span tree in /debug/traces joined the client's trace.
	spans := p.Telemetry.Tracer().SpansForTrace(clientTrace)
	byName := map[string]telemetry.SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	for _, name := range []string{"http.exchange", "rewrite.safe", "invoke.Get_Temp"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("span %q not under trace %s (got %v)", name, clientTrace, spans)
		}
	}

	// Surface 3: the audit trail stamped the same ID on the call record.
	calls := p.Audit.CallsFor(clientTrace)
	if len(calls) != 1 || calls[0].Func != "Get_Temp" {
		t.Errorf("audit calls for %s = %+v", clientTrace, calls)
	}

	// Surface 4: the flight record (first request always beats the empty
	// threshold) snapshots trace ID, stages, spans, and calls.
	resp, err = http.Get(ts.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	var slow struct {
		Observed uint64                   `json:"observed"`
		Slowest  []telemetry.FlightRecord `json:"slowest"`
	}
	err = json.NewDecoder(resp.Body).Decode(&slow)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(slow.Slowest) != 1 {
		t.Fatalf("slowest = %+v", slow.Slowest)
	}
	rec := slow.Slowest[0]
	if rec.TraceID != clientTrace || rec.Handler != "exchange" {
		t.Errorf("flight record = %+v, want trace %s", rec, clientTrace)
	}
	if len(rec.Stages) == 0 {
		t.Error("flight record has no stage breakdown")
	}
	if len(rec.Spans) == 0 {
		t.Error("flight record has no span snapshot")
	}
	if len(rec.Calls) != 1 || rec.Calls[0].Func != "Get_Temp" {
		t.Errorf("flight record calls = %+v", rec.Calls)
	}

	// Surface 5: the OpenMetrics exposition exemplars the latency bucket
	// with the same trace ID; the default exposition stays exemplar-free.
	req, _ = http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	om, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("OpenMetrics content type = %q", ct)
	}
	if !strings.HasSuffix(string(om), "# EOF\n") {
		t.Error("OpenMetrics exposition not EOF-terminated")
	}
	if !strings.Contains(string(om), `# {trace_id="`+clientTrace+`"}`) {
		t.Errorf("no exemplar with trace %s in OpenMetrics exposition", clientTrace)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(plain), "# {") || strings.Contains(string(plain), "# EOF") {
		t.Error("default exposition must stay exemplar-free 0.0.4 text")
	}
}

// TestTracePropagationAcrossPeers: an outbound peer.Call carries the
// caller's trace ID in a traceparent header, and the serving peer's
// span tree joins that trace — one ID across the invoke boundary.
func TestTracePropagationAcrossPeers(t *testing.T) {
	table := schema.New().Table
	weatherSchema, err := schema.ParseTextShared(schema.NewShared(table), `
elem city = data
elem temp = data
func Get_Temp = city -> temp
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	weather := New("weather", weatherSchema)
	weather.Telemetry = telemetry.NewRegistry()
	must(t, weather.Services.Register(opOf(t, weather, "Get_Temp", func([]*doc.Node) ([]*doc.Node, error) {
		return []*doc.Node{doc.Elem("temp", doc.TextNode("15"))}, nil
	})))
	ts := httptest.NewServer(weather.Handler())
	defer ts.Close()
	weather.Endpoint = ts.URL + "/soap"

	reader := New("reader", weatherSchema)
	desc := &wsdl.Description{
		Name: "weather", TargetNamespace: "urn:axml:weather",
		Endpoint: ts.URL + "/soap", Schema: weatherSchema,
	}
	traceID := telemetry.NewID()
	ctx := telemetry.WithTraceID(context.Background(), traceID)
	out, err := reader.Call(ctx, desc, "Get_Temp",
		[]*doc.Node{doc.Elem("city", doc.TextNode("Paris"))}, core.Safe)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Label != "temp" {
		t.Fatalf("result = %v", out)
	}
	spans := weather.Telemetry.Tracer().SpansForTrace(traceID)
	var soapSpan *telemetry.SpanRecord
	for i := range spans {
		if spans[i].Name == "http.soap" {
			soapSpan = &spans[i]
		}
	}
	if soapSpan == nil {
		t.Fatalf("serving peer did not join trace %s: %v", traceID, spans)
	}
	if soapSpan.ParentID == "" {
		t.Error("serving peer's root span lost the remote parent link")
	}
}

// TestRetryReinjectsFreshTraceparent extends the cross-peer propagation
// check with a flaky-once remote: the retry policy's second delivery
// attempt must carry a *fresh* traceparent — same trace ID (the hops stay
// one trace), but a re-injected header per attempt, never a stale reuse of
// the first attempt's request. soap.Client builds a new request per call,
// so each attempt passes through InjectTraceContext again; this pins that
// contract against a future "reuse the prepared request" optimization.
func TestRetryReinjectsFreshTraceparent(t *testing.T) {
	table := schema.New().Table
	weatherSchema, err := schema.ParseTextShared(schema.NewShared(table), `
elem city = data
elem temp = data
func Get_Temp = city -> temp
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	weather := New("weather", weatherSchema)
	must(t, weather.Services.Register(opOf(t, weather, "Get_Temp", func([]*doc.Node) ([]*doc.Node, error) {
		return []*doc.Node{doc.Elem("temp", doc.TextNode("15"))}, nil
	})))

	// Flaky-once front: fail the first SOAP delivery after recording its
	// traceparent; serve every later attempt normally.
	var (
		mu           sync.Mutex
		traceparents []string
		failed       bool
	)
	inner := weather.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		traceparents = append(traceparents, r.Header.Get(telemetry.TraceparentHeader))
		failFirst := !failed
		failed = true
		mu.Unlock()
		if failFirst {
			http.Error(w, "flaky once", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	inv := core.ApplyPolicies(
		&soap.Invoker{Default: ts.URL + "/soap", Namespace: "urn:axml:weather"},
		[]core.InvokePolicy{invoke.WithRetry(invoke.Retry{Attempts: 3, BaseDelay: time.Millisecond})},
	)
	traceID := telemetry.NewID()
	ctx := telemetry.WithTraceID(context.Background(), traceID)
	out, err := inv.Invoke(ctx, doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Label != "temp" {
		t.Fatalf("result = %v", out)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(traceparents) != 2 {
		t.Fatalf("remote saw %d attempts, want 2 (flaky once + success)", len(traceparents))
	}
	var parents []string
	for i, tp := range traceparents {
		gotTrace, parent, ok := telemetry.ParseTraceparent(tp)
		if !ok {
			t.Fatalf("attempt %d: unparseable traceparent %q", i+1, tp)
		}
		if gotTrace != traceID {
			t.Errorf("attempt %d joined trace %s, want %s", i+1, gotTrace, traceID)
		}
		if parent == "" {
			t.Errorf("attempt %d has no parent span", i+1)
		}
		parents = append(parents, parent)
	}
	if parents[0] == parents[1] {
		t.Errorf("second attempt reused the first attempt's parent span %s — traceparent must be re-injected per attempt", parents[0])
	}
}

// TestObservabilityFailedRequest: failed requests always enter the
// flight recorder's failure ring and log at Warn.
func TestObservabilityFailedRequest(t *testing.T) {
	p := newsPeer(t)
	p.Telemetry = telemetry.NewRegistry()
	logs := &syncBuf{}
	p.Logger = jsonLogger(t, logs)
	p.Flight = telemetry.NewFlight(4, 4)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/exchange/no-such-doc?mode=safe", "text/xml", strings.NewReader(exchangeTarget))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	waitFor(t, "failed flight record", func() bool { return len(p.Flight.Failed()) == 1 })
	rec := p.Flight.Failed()[0]
	if !rec.Failed || rec.Status != http.StatusNotFound {
		t.Errorf("failed record = %+v", rec)
	}
	waitFor(t, "warn log line", func() bool {
		return strings.Contains(logs.String(), `"level":"warn"`)
	})
}

// TestHealthEndpoints: /healthz is pure liveness; /readyz tracks the
// ready/draining lifecycle with 503 on both ends.
func TestHealthEndpoints(t *testing.T) {
	p := newsPeer(t)
	p.Health = NewHealth()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&m)
		return resp.StatusCode, m
	}

	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("/healthz before ready = %d, want 200 (liveness is not readiness)", code)
	}
	if code, m := get("/readyz"); code != 503 || m["reason"] != "starting" {
		t.Errorf("/readyz before ready = %d %v, want 503 starting", code, m)
	}
	p.Health.SetReady(true)
	if code, m := get("/readyz"); code != 200 || m["ready"] != true {
		t.Errorf("/readyz when ready = %d %v", code, m)
	}
	p.Health.StartDrain()
	if code, m := get("/readyz"); code != 503 || m["reason"] != "draining" {
		t.Errorf("/readyz while draining = %d %v, want 503 draining", code, m)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("/healthz while draining = %d, want 200", code)
	}
}

// TestHealthEndpointsDefault: a peer with no Health configured (embedded
// use) answers ready, and the probe routes are never instrumented.
func TestHealthEndpointsDefault(t *testing.T) {
	p := newsPeer(t)
	p.Telemetry = telemetry.NewRegistry()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
	// Probe traffic must not pollute request metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), `handler="healthz"`) {
		t.Error("health probes leaked into request metrics")
	}
}
