package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/service"
	"axml/internal/store"
	"axml/internal/telemetry"
)

// The traced run drives one connection, so at most one client request is in
// flight and every span recorded on the peers' side belongs to it: the
// tracer holds that request as "current" instead of threading an ID through
// code the benchmark does not own. Spans come from the benchmark's own
// wrappers around the modules' public entry points:
//
//	peer.handler    a wrapper around Peer.Handler on peer A
//	store.*         a forwarding DocStore installed as Peer.Repo
//	invoke.call     a timing policy prepended to Peer.Policies
//	soap.server     a wrapper around peer B's Peer.Handler
//	service.handler the simulated operations themselves
//
// The exchange route's parse, compile, rewrite and serialize stages run
// inside Peer.Handler where no wrapper reaches; their durations come from
// the peer's own per-request stage timer (telemetry.Stages), picked up from
// the request context by the timing policy, and their spans are marked
// derived. On GET and PUT, xmlio's share is the gap between the handler's
// start or end and the store call.

// spanRec is one dumped span; times are nanoseconds since the run started.
type spanRec struct {
	Trace   uint64 `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// reqTrace is the in-flight request's span tree.
type reqTrace struct {
	id    uint64
	op    op
	mu    sync.Mutex
	spans []spanRec
	stack []int // indexes of open spans; calls nest strictly in time

	stages      *telemetry.Stages
	handlerDone chan struct{}
	calls       int
	failedCalls int
	soapBytes   int64
}

// tracer records spans and folds each finished request into per-route
// layer totals.
type tracer struct {
	t0     time.Time
	remote bool
	cur    atomic.Pointer[reqTrace]
	nextID uint64

	layers    [numRoutes]map[string]float64 // route -> layer -> summed ms
	requests  [numRoutes]int
	client    [numRoutes]float64 // summed client latency, ms
	handler   [numRoutes]float64 // summed handler time, ms
	spanSum   map[string]float64 // span name -> summed ms
	spanCount map[string]int
	soapBytes int64
	calls     int
	failed    int
	badCalls  int // requests whose invocation count differs from the forbidden calls
	dump      []spanRec
}

// maxDumpSpans bounds the span dump written at the end of the run.
const maxDumpSpans = 20000

func newTracer(remote bool) *tracer {
	t := &tracer{t0: time.Now(), remote: remote, spanSum: map[string]float64{}, spanCount: map[string]int{}}
	for i := range t.layers {
		t.layers[i] = map[string]float64{}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open span of the current request
// and returns the function that closes it (a no-op outside a request).
func (t *tracer) begin(name string) func() {
	rt := t.cur.Load()
	if rt == nil {
		return func() {}
	}
	rt.mu.Lock()
	parent := 0
	if n := len(rt.stack); n > 0 {
		parent = rt.spans[rt.stack[n-1]].ID
	}
	idx := len(rt.spans)
	rt.spans = append(rt.spans, spanRec{Trace: rt.id, ID: idx + 1, Parent: parent, Name: name, Start: t.now()})
	rt.stack = append(rt.stack, idx)
	rt.mu.Unlock()
	return func() {
		rt.mu.Lock()
		rt.spans[idx].End = t.now()
		for i := len(rt.stack) - 1; i >= 0; i-- {
			if rt.stack[i] == idx {
				rt.stack = append(rt.stack[:i], rt.stack[i+1:]...)
				break
			}
		}
		rt.mu.Unlock()
	}
}

func (t *tracer) peerHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt := t.cur.Load()
		if rt == nil {
			h.ServeHTTP(w, r)
			return
		}
		end := t.begin("peer.handler")
		h.ServeHTTP(w, r)
		end()
		close(rt.handlerDone)
	})
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (t *tracer) soapServer(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		end := t.begin("soap.server")
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		end()
		if rt := t.cur.Load(); rt != nil {
			rt.mu.Lock()
			rt.soapBytes += max(r.ContentLength, 0) + cw.n
			rt.mu.Unlock()
		}
	})
}

func (t *tracer) service(h service.Handler) service.Handler {
	return func(params []*doc.Node) ([]*doc.Node, error) {
		end := t.begin("service.handler")
		defer end()
		return h(params)
	}
}

// invokePolicy is the timing policy prepended to Peer.Policies: it wraps
// every invocation an enforcement rewriting performs.
func (t *tracer) invokePolicy(next core.Invoker) core.Invoker {
	return core.ContextInvokerFunc(func(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
		rt := t.cur.Load()
		if rt == nil {
			return next.Invoke(ctx, call)
		}
		end := t.begin("invoke.call")
		out, err := next.Invoke(ctx, call)
		end()
		rt.mu.Lock()
		if rt.stages == nil {
			rt.stages = telemetry.StagesFrom(ctx)
		}
		rt.calls++
		if err != nil {
			rt.failedCalls++
		}
		rt.mu.Unlock()
		return out, err
	})
}

// tracedStore is a forwarding DocStore that records store spans and keeps
// the FunctionIndex capability of the store it wraps.
type tracedStore struct {
	store.DocStore
	t *tracer
}

func (t *tracer) store(s store.DocStore) store.DocStore {
	if _, ok := s.(store.FunctionIndex); !ok {
		panic("traced store: wrapped store has no function index")
	}
	return &tracedStore{DocStore: s, t: t}
}

func (s *tracedStore) Get(name string) (*doc.Node, bool) {
	end := s.t.begin("store.get")
	defer end()
	return s.DocStore.Get(name)
}

func (s *tracedStore) Put(name string, d *doc.Node) error {
	end := s.t.begin("store.put")
	defer end()
	return s.DocStore.Put(name, d)
}

func (s *tracedStore) Delete(name string) error {
	end := s.t.begin("store.delete")
	defer end()
	return s.DocStore.Delete(name)
}

func (s *tracedStore) DocsWithFunction(fn string) ([]string, error) {
	return s.DocStore.(store.FunctionIndex).DocsWithFunction(fn)
}

// tracedRunner alternates untraced and traced requests on the same peers.
// A traced request runs as the tracer's current request, and its spans are
// folded into the layer totals once the peer's handler has finished. An
// untraced request passes the wrappers without recording, so comparing the
// two halves' client latency gives the tracing overhead, free of the drift
// between two separate runs.
type tracedRunner struct {
	inner   workloadRunner
	t       *tracer
	exch    *exchangeWL
	n       int
	elapsed [2]time.Duration // client time of untraced, traced requests
	count   [2]int
}

func (r *tracedRunner) next(rng *rand.Rand, c *conn) op { return r.inner.next(rng, c) }

// overheadPct is the traced requests' mean client latency over the untraced
// requests', as a percentage increase.
func (r *tracedRunner) overheadPct() float64 {
	mean := func(i int) float64 { return ratio(float64(r.elapsed[i]), float64(r.count[i])) }
	return (ratio(mean(1), mean(0)) - 1) * 100
}

func (r *tracedRunner) do(c *conn, base string, o op) (time.Time, int, error) {
	r.n++
	traced := r.n%2 == 1
	if !traced {
		start := time.Now()
		hdr, n, err := r.inner.do(c, base, o)
		r.elapsed[0] += time.Since(start)
		r.count[0]++
		return hdr, n, err
	}
	t := r.t
	t.nextID++
	rt := &reqTrace{id: t.nextID, op: o, handlerDone: make(chan struct{})}
	t.cur.Store(rt)
	start := time.Now()
	end := t.begin("client." + routeNames[o.kind.route()])
	hdr, n, err := r.inner.do(c, base, o)
	end()
	r.elapsed[1] += time.Since(start)
	r.count[1]++
	wait := time.NewTimer(5 * time.Second)
	select {
	case <-rt.handlerDone:
	case <-wait.C:
		if err == nil {
			err = fmt.Errorf("traced request: the peer handler did not finish")
		}
	}
	wait.Stop()
	t.cur.Store(nil)
	if err == nil {
		err = t.fold(rt, r.exch)
	}
	return hdr, n, err
}

// fold computes the request's layer self times — they sum to the client
// latency, with peer.net (client minus handler) and peer.unattributed
// (handler minus its layers) as the residual — and records its spans.
func (t *tracer) fold(rt *reqTrace, exch *exchangeWL) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	byName := map[string]float64{}
	first := map[string]*spanRec{}
	for i := range rt.spans {
		s := &rt.spans[i]
		d := float64(s.End-s.Start) / 1e6
		byName[s.Name] += d
		if first[s.Name] == nil {
			first[s.Name] = s
		}
		t.spanSum[s.Name] += d
		t.spanCount[s.Name]++
	}
	rte := rt.op.kind.route()
	client := byName["client."+routeNames[rte]]
	h := first["peer.handler"]
	if h == nil {
		return fmt.Errorf("traced request: no peer.handler span")
	}
	handler := byName["peer.handler"]
	layers := map[string]float64{}
	switch rt.op.kind {
	case opExchange:
		if rt.stages == nil {
			return fmt.Errorf("traced exchange made no invocation, so its stage timer was not seen")
		}
		st := rt.stages.Seconds()
		ms := func(stage string) float64 { return st[stage] * 1e3 }
		parse, compile, rewrite, ser := ms("parse"), ms("compile"), ms("rewrite"), ms("serialize")
		invoke, soapSrv, svc := byName["invoke.call"], byName["soap.server"], byName["service.handler"]
		layers["xsdint.parse"] = parse
		layers["store.get"] = byName["store.get"]
		layers["core.compile_get"] = compile
		layers["core.rewrite_self"] = rewrite - invoke
		if t.remote {
			layers["soap.client"] = invoke - soapSrv
			layers["soap.server"] = soapSrv - svc
		} else {
			layers["invoke.self"] = invoke - svc
		}
		layers["service.handler"] = svc
		layers["xmlio.write"] = ser
		layers["peer.unattributed"] = handler - (parse + byName["store.get"] + compile + rewrite + ser)
		t.derive(rt, h, first["store.get"], parse, compile, rewrite, ser)
		if want := exch.docs[rt.op.doc].forbiddenCalls(exch.recvs[rt.op.recv].forbidden); rt.calls != want {
			t.badCalls++
		}
		t.calls += rt.calls
		t.failed += rt.failedCalls
		t.soapBytes += rt.soapBytes
	case opGet:
		g := first["store.get"]
		if g == nil {
			return fmt.Errorf("traced GET: no store.get span")
		}
		layers["store.get"] = byName["store.get"]
		layers["xmlio.write"] = float64(h.End-g.End) / 1e6
		layers["peer.unattributed"] = handler - layers["store.get"] - layers["xmlio.write"]
	case opPut:
		p := first["store.put"]
		if p == nil {
			return fmt.Errorf("traced PUT: no store.put span")
		}
		layers["xmlio.parse"] = float64(p.Start-h.Start) / 1e6
		layers["store.put"] = byName["store.put"]
		layers["peer.unattributed"] = handler - layers["xmlio.parse"] - layers["store.put"]
	case opDelete:
		layers["store.delete"] = byName["store.delete"]
		layers["peer.unattributed"] = handler - layers["store.delete"]
	}
	layers["peer.net"] = client - handler
	for k, v := range layers {
		t.layers[rte][k] += v
	}
	t.requests[rte]++
	t.client[rte] += client
	t.handler[rte] += handler
	if len(t.dump)+len(rt.spans) <= maxDumpSpans {
		t.dump = append(t.dump, rt.spans...)
	}
	return nil
}

// derive adds spans for the stage-timer durations, laid end to end where
// the handler runs them: parse from the handler's start, compile after the
// store read, rewrite after compile, serialize ending with the handler.
func (t *tracer) derive(rt *reqTrace, h, get *spanRec, parse, compile, rewrite, ser float64) {
	ns := func(ms float64) int64 { return int64(ms * 1e6) }
	add := func(name string, start int64, ms float64) {
		rt.spans = append(rt.spans, spanRec{Trace: rt.id, ID: len(rt.spans) + 1, Parent: h.ID, Name: name, Start: start, End: start + ns(ms), Derived: true})
	}
	add("xsdint.parse", h.Start, parse)
	after := h.Start + ns(parse)
	if get != nil {
		after = get.End
	}
	add("core.compile_get", after, compile)
	add("core.rewrite", after+ns(compile), rewrite)
	rewriteID := len(rt.spans)
	add("xmlio.write", h.End-ns(ser), ser)
	for i := range rt.spans {
		if rt.spans[i].Name == "invoke.call" {
			rt.spans[i].Parent = rewriteID
		}
	}
}

// layerOrder lists the split table's rows in pipeline order.
var layerOrder = []string{
	"xsdint.parse", "xmlio.parse", "store.get", "store.put", "store.delete",
	"core.compile_get", "core.rewrite_self", "invoke.self", "soap.client", "soap.server",
	"service.handler", "xmlio.write",
}

// writeSplit prints, per route, the mean per-request self time of every
// layer, their sum, the residual and the client latency.
func (t *tracer) writeSplit(w io.Writer) {
	for r := route(0); r < numRoutes; r++ {
		n := float64(t.requests[r])
		if n == 0 {
			continue
		}
		fmt.Fprintf(w, "trace split, route %s (%d requests, mean ms per request):\n", routeNames[r], t.requests[r])
		sum := 0.0
		for _, name := range layerOrder {
			if v, ok := t.layers[r][name]; ok {
				fmt.Fprintf(w, "  %-22s %9.4f\n", name, v/n)
				sum += v / n
			}
		}
		net, un := t.layers[r]["peer.net"]/n, t.layers[r]["peer.unattributed"]/n
		client := t.client[r] / n
		fmt.Fprintf(w, "  %-22s %9.4f\n", "sum of layers", sum)
		fmt.Fprintf(w, "  %-22s %9.4f   (peer.net %.4f + peer.unattributed %.4f)\n", "residual", net+un, net, un)
		fmt.Fprintf(w, "  %-22s %9.4f   (layers + residual = %.4f)\n", "client latency", client, sum+net+un)
	}
}

// check verifies the split adds up: the layer self times plus the residual
// equal the client latency on every route.
func (t *tracer) check() error {
	for r := route(0); r < numRoutes; r++ {
		if t.requests[r] == 0 {
			continue
		}
		total := 0.0
		for _, v := range t.layers[r] {
			total += v
		}
		if d := total - t.client[r]; d > 1e-6*t.client[r] || d < -1e-6*t.client[r] {
			return fmt.Errorf("route %s: layers plus residual %.6f ms differ from client latency %.6f ms", routeNames[r], total, t.client[r])
		}
	}
	if t.badCalls > 0 {
		return fmt.Errorf("%d traced exchanges invoked a different number of calls than their forbidden calls", t.badCalls)
	}
	return nil
}

// writeDump writes the recorded spans, one JSON object per line.
func (t *tracer) writeDump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	sort.SliceStable(t.dump, func(i, j int) bool { return t.dump[i].Trace < t.dump[j].Trace })
	for i := range t.dump {
		if err := enc.Encode(&t.dump[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// meanSpan is the mean duration of the named span, in ms.
func (t *tracer) meanSpan(name string) float64 {
	if t.spanCount[name] == 0 {
		return 0
	}
	return t.spanSum[name] / float64(t.spanCount[name])
}

// routeMean is the mean of a layer over one route's requests, in ms.
func (t *tracer) routeMean(r route, layer string) float64 {
	if t.requests[r] == 0 {
		return 0
	}
	return t.layers[r][layer] / float64(t.requests[r])
}
