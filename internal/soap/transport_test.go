package soap

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/schema"
	"axml/internal/service"
)

// TestClientHTTPErrors is the fault/HTTP-error round-trip table: the client
// must distinguish SOAP faults (any status) from non-SOAP error bodies — a
// proxy error page, a plain-text http.Error — and report the latter with the
// HTTP status and a body excerpt instead of a confusing XML parse error.
func TestClientHTTPErrors(t *testing.T) {
	cases := []struct {
		name      string
		handler   http.HandlerFunc
		wantFault string // non-empty: expect *Fault containing this
		wantErr   []string
	}{
		{
			name: "plain-text 500 from http.Error",
			handler: func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "backend exploded", http.StatusInternalServerError)
			},
			wantErr: []string{"500", "backend exploded"},
		},
		{
			name: "HTML error page from a proxy",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/html")
				w.WriteHeader(http.StatusBadGateway)
				_, _ = w.Write([]byte("<html><body>Bad Gateway</body></html>"))
			},
			wantErr: []string{"502", "Bad Gateway", "text/html"},
		},
		{
			name: "soap fault with 400 status",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/xml; charset=utf-8")
				w.WriteHeader(http.StatusBadRequest)
				_ = WriteFault(w, "soap:Client", "no such method")
			},
			wantFault: "no such method",
		},
		{
			name: "soap fault with 500 status",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/xml")
				w.WriteHeader(http.StatusInternalServerError)
				_ = WriteFault(w, "soap:Server", "handler failed")
			},
			wantFault: "handler failed",
		},
		{
			name: "200 with non-XML body",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				_, _ = w.Write([]byte(`{"ok":true}`))
			},
			wantErr: []string{"200", "application/json"},
		},
		{
			name: "200 with unparsable XML",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/xml")
				_, _ = w.Write([]byte("<notsoap/>"))
			},
			wantErr: []string{"Envelope"},
		},
		{
			name: "empty 503 body",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/plain")
				w.WriteHeader(http.StatusServiceUnavailable)
			},
			wantErr: []string{"503", "empty body"},
		},
		{
			name: "valid envelope on a 500 status",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/xml")
				w.WriteHeader(http.StatusInternalServerError)
				_ = WriteResponse(w, "Op", "", []*doc.Node{doc.TextNode("x")})
			},
			wantErr: []string{"500"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.handler)
			defer ts.Close()
			c := &Client{Endpoint: ts.URL}
			_, err := c.Call(context.Background(), "Op", []*doc.Node{doc.TextNode("x")})
			if err == nil {
				t.Fatal("expected an error")
			}
			var fault *Fault
			if tc.wantFault != "" {
				if !errors.As(err, &fault) {
					t.Fatalf("want *Fault, got %T: %v", err, err)
				}
				if !strings.Contains(fault.String, tc.wantFault) {
					t.Errorf("fault %q does not mention %q", fault.String, tc.wantFault)
				}
				return
			}
			if errors.As(err, &fault) {
				t.Fatalf("non-SOAP body surfaced as *Fault: %v", err)
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// TestServerRequestBodyLimit: an oversized request is rejected with a 413
// soap:Client fault the client surfaces as *Fault, and the limit does not
// clip legitimate requests.
func TestServerRequestBodyLimit(t *testing.T) {
	reg := service.NewRegistry()
	err := reg.Register(&service.Operation{
		Name: "Echo",
		Handler: func(params []*doc.Node) ([]*doc.Node, error) {
			return params, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Registry: reg, MaxRequestBytes: 2048}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &Client{Endpoint: ts.URL}

	if _, err := c.Call(context.Background(), "Echo", []*doc.Node{doc.TextNode("small")}); err != nil {
		t.Fatalf("small request rejected: %v", err)
	}

	big := strings.Repeat("y", 4096)
	_, err = c.Call(context.Background(), "Echo", []*doc.Node{doc.TextNode(big)})
	var fault *Fault
	if !errors.As(err, &fault) {
		t.Fatalf("oversized request: want *Fault, got %T: %v", err, err)
	}
	if !strings.Contains(fault.String, "exceeds") {
		t.Errorf("fault %q does not mention the limit", fault.String)
	}
}

// TestClientResponseBodyLimit: the client refuses to slurp an unbounded
// response.
func TestClientResponseBodyLimit(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/xml")
		_, _ = w.Write([]byte(strings.Repeat("z", 8192)))
	}))
	defer ts.Close()
	c := &Client{Endpoint: ts.URL, MaxResponseBytes: 1024}
	_, err := c.Call(context.Background(), "Op", nil)
	if err == nil || !strings.Contains(err.Error(), "exceeds 1024 bytes") {
		t.Fatalf("oversized response: got %v", err)
	}
}

// TestDefaultClientHasTimeout guards the hung-remote fix: the package-level
// client (used whenever Client.HTTP / Invoker.HTTP is nil) must not wait
// forever.
func TestDefaultClientHasTimeout(t *testing.T) {
	if DefaultClient.Timeout <= 0 {
		t.Error("DefaultClient has no timeout")
	}
}

// countingListener counts accepted connections — every new TCP connection
// the client dials is one Accept.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// TestDefaultClientReusesConnections guards the pooling fix: under
// cross-peer fan-out the shared DefaultClient must keep a burst's worth of
// connections to one peer warm instead of churning through them. The stock
// transport's MaxIdleConnsPerHost of 2 fails the second half of this test:
// after a concurrent burst of 8 it retains two connections and redials the
// rest on the next burst.
func TestDefaultClientReusesConnections(t *testing.T) {
	reg := service.NewRegistry()
	if err := reg.Register(&service.Operation{
		Name:    "Echo",
		Handler: func(params []*doc.Node) ([]*doc.Node, error) { return params, nil },
	}); err != nil {
		t.Fatal(err)
	}

	// A per-burst barrier holds every response until the whole burst has
	// arrived, forcing the client to open one true connection per in-flight
	// call instead of serializing over a lucky early reuse.
	var barrier atomic.Pointer[burstBarrier]
	soapSrv := &Server{Registry: reg}
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if b := barrier.Load(); b != nil {
			b.arrive()
		}
		soapSrv.ServeHTTP(w, r)
	}))
	cl := &countingListener{Listener: ts.Listener}
	ts.Listener = cl
	ts.Start()
	defer ts.Close()

	c := &Client{Endpoint: ts.URL} // nil HTTP selects DefaultClient
	call := func() {
		if _, err := c.Call(context.Background(), "Echo", []*doc.Node{doc.TextNode("x")}); err != nil {
			t.Errorf("call: %v", err)
		}
	}

	// Sequential calls ride one connection.
	for i := 0; i < 10; i++ {
		call()
	}
	if got := cl.accepts.Load(); got != 1 {
		t.Fatalf("10 sequential calls opened %d connections, want 1", got)
	}

	const burst = 8
	if DefaultTransport.MaxIdleConnsPerHost < burst {
		t.Fatalf("MaxIdleConnsPerHost = %d, want >= %d for federation fan-out",
			DefaultTransport.MaxIdleConnsPerHost, burst)
	}
	runBurst := func() {
		barrier.Store(newBurstBarrier(burst))
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); call() }()
		}
		wg.Wait()
		barrier.Store(nil)
	}
	runBurst()
	afterFirst := cl.accepts.Load()
	if afterFirst < burst {
		t.Fatalf("first burst of %d opened only %d connections (barrier broken)", burst, afterFirst)
	}
	// The second burst must be served entirely from the idle pool.
	runBurst()
	if got := cl.accepts.Load(); got != afterFirst {
		t.Fatalf("second burst redialed %d connections (pool churn): %d accepts before, %d after",
			got-afterFirst, afterFirst, got)
	}
}

// burstBarrier releases every arriving request once n have arrived.
type burstBarrier struct {
	n       int64
	arrived atomic.Int64
	release chan struct{}
}

func newBurstBarrier(n int) *burstBarrier {
	return &burstBarrier{n: int64(n), release: make(chan struct{})}
}

func (b *burstBarrier) arrive() {
	if b.arrived.Add(1) == b.n {
		close(b.release)
	}
	<-b.release
}

// TestCallResultsOutliveTheirBuffers: both envelopes of a call pass
// through pooled buffers that the next call reuses, so a result must not
// refer to them. Concurrent calls keep every result they receive; each
// must still read as the payload it echoed once all calls are done.
func TestCallResultsOutliveTheirBuffers(t *testing.T) {
	reg := service.NewRegistry()
	if err := reg.Register(&service.Operation{
		Name:    "Echo",
		Handler: func(params []*doc.Node) ([]*doc.Node, error) { return params, nil },
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(&Server{Registry: reg, Namespace: "urn:echo"})
	defer ts.Close()
	inv := &Invoker{Default: ts.URL, Namespace: "urn:echo"}
	const workers, calls = 8, 50
	payload := func(w, i int) *doc.Node {
		return doc.Elem("v", doc.Elem("w"+strconv.Itoa(w), doc.TextNode(strings.Repeat("x", i)+strconv.Itoa(w*calls+i))))
	}
	results := make([][]*doc.Node, workers*calls)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				out, err := inv.Invoke(context.Background(), doc.Call("Echo", payload(w, i)))
				if err != nil {
					t.Errorf("worker %d call %d: %v", w, i, err)
					return
				}
				results[w*calls+i] = out
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for i := 0; i < calls; i++ {
			if out := results[w*calls+i]; len(out) != 1 || !out[0].Equal(payload(w, i)) {
				t.Fatalf("worker %d call %d: result %v no longer reads as its payload", w, i, out)
			}
		}
	}
}

// countingRegistry serves Get, which returns a val naming its first text
// parameter and counts its runs, and Fail, which fails.
func countingRegistry(t *testing.T, runs *atomic.Int64) *service.Registry {
	t.Helper()
	reg := service.NewRegistry()
	for _, op := range []*service.Operation{
		{Name: "Get", Handler: func(params []*doc.Node) ([]*doc.Node, error) {
			runs.Add(1)
			v := ""
			if len(params) > 0 {
				v = params[0].Value
			}
			return []*doc.Node{doc.Elem("val", doc.TextNode(v))}, nil
		}},
		{Name: "Fail", Handler: func([]*doc.Node) ([]*doc.Node, error) {
			return nil, errors.New("failed on purpose")
		}},
	} {
		if err := reg.Register(op); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// requestOf renders the envelope of a request carrying every call.
func requestOf(calls []Request) func([]byte) ([]byte, error) {
	return func(b []byte) ([]byte, error) {
		b, _, err := appendRequest(b, calls, 0)
		return b, err
	}
}

func getCalls(n int) []Request {
	calls := make([]Request, n)
	for i := range calls {
		calls[i] = Request{Method: "Get", Params: []*doc.Node{doc.TextNode(strconv.Itoa(i))}}
	}
	return calls
}

// TestServerEntryCap: a request of more than MaxEntries calls is refused
// as a client error before any of them runs; one of MaxEntries runs them
// all, in order.
func TestServerEntryCap(t *testing.T) {
	var runs atomic.Int64
	ts := httptest.NewServer(&Server{Registry: countingRegistry(t, &runs)})
	defer ts.Close()
	c := &Client{Endpoint: ts.URL}
	_, fault, err := c.call(context.Background(), getCalls(MaxEntries+1))
	if err != nil || fault == nil || fault.Code != "soap:Client" || !strings.Contains(fault.String, strconv.Itoa(MaxEntries)) {
		t.Fatalf("over the cap: fault %v, error %v", fault, err)
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("%d entries ran before the refusal", n)
	}
	results, fault, err := c.call(context.Background(), getCalls(MaxEntries))
	if err != nil || fault != nil || len(results) != MaxEntries {
		t.Fatalf("at the cap: %d results, fault %v, error %v", len(results), fault, err)
	}
	for i, res := range results {
		if len(res) != 1 || res[0].Children[0].Value != strconv.Itoa(i) {
			t.Fatalf("result %d = %v", i, res)
		}
	}
}

// TestServerMultiEntryBodyLimit: a request of several calls is capped by
// MaxRequestBytes like one of a single call: 413, and nothing runs.
func TestServerMultiEntryBodyLimit(t *testing.T) {
	var runs atomic.Int64
	ts := httptest.NewServer(&Server{Registry: countingRegistry(t, &runs), MaxRequestBytes: 2048})
	defer ts.Close()
	calls := getCalls(40)
	for i := range calls {
		calls[i].Params = []*doc.Node{doc.TextNode(strings.Repeat("y", 100))}
	}
	var b strings.Builder
	if err := writeEnvelope(&b, requestOf(calls)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL, "text/xml", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || runs.Load() != 0 {
		t.Fatalf("status %d after %d runs, want 413 and none", resp.StatusCode, runs.Load())
	}
}

// TestServerStopsAtFirstFault: the reply holds the results before the
// first failing call, then its fault, under the fault's status, and no
// call after it runs.
func TestServerStopsAtFirstFault(t *testing.T) {
	var runs atomic.Int64
	ts := httptest.NewServer(&Server{Registry: countingRegistry(t, &runs)})
	defer ts.Close()
	calls := getCalls(4)
	calls[2].Method = "Fail"
	results, fault, err := (&Client{Endpoint: ts.URL}).call(context.Background(), calls)
	if err != nil || len(results) != 2 || fault == nil || fault.Code != "soap:Server" {
		t.Fatalf("%d results, fault %v, error %v; want 2 and a soap:Server fault", len(results), fault, err)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("%d calls ran, want the 2 before the fault", n)
	}
}

// TestRoundAgainstSingleEntryServer: a rewriting's first round shares one
// request with a server that runs every entry, and still completes every
// call against an older server that answers only a request's first entry:
// each reply returns the unanswered calls to the round, so that server
// sees one request per call.
func TestRoundAgainstSingleEntryServer(t *testing.T) {
	sender := schema.MustParseText("root page\nelem page = (Get|val).(Get|val).(Get|val)\nelem val = data\nfunc Get = data -> val", nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), "root page\nelem page = val.val.val\nelem val = data", nil)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	reg := countingRegistry(t, &runs)
	oldStyle := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := ReadRequest(r.Body) // the first entry only
		if err != nil {
			t.Error(err)
			return
		}
		res, err := reg.Call(r.Context(), req.Method, req.Params)
		if err != nil {
			t.Error(err)
			return
		}
		w.Header().Set("Content-Type", "text/xml")
		_ = WriteResponse(w, req.Method, "", res)
	})
	for _, tc := range []struct {
		name     string
		handler  http.Handler
		requests int64
	}{
		{"every entry", &Server{Registry: reg}, 1},
		{"first entry only", oldStyle, 3},
	} {
		var requests atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests.Add(1)
			tc.handler.ServeHTTP(w, r)
		}))
		rw := core.NewRewriterWithConfig(sender, target, core.RewriterConfig{Invoker: &Invoker{Default: ts.URL}})
		out, err := rw.RewriteDocument(context.Background(), doc.Elem("page",
			doc.Call("Get", doc.TextNode("a")), doc.Call("Get", doc.TextNode("b")), doc.Call("Get", doc.TextNode("c"))), core.Safe)
		ts.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []string
		for _, n := range out.Children {
			got = append(got, n.Children[0].Value)
		}
		if strings.Join(got, "") != "abc" {
			t.Errorf("%s: values %v, want a b c", tc.name, got)
		}
		if n := requests.Load(); n != tc.requests {
			t.Errorf("%s: %d requests, want %d", tc.name, n, tc.requests)
		}
	}
}

// TestRoundThroughChain: a service.Chain hands a later member the round
// only behind empty registries. So the three planned calls share one
// request behind an empty registry, none is sent when a local registry
// serves them, and each is a request of its own behind a registry that
// serves other operations or behind an opaque invoker.
func TestRoundThroughChain(t *testing.T) {
	sender := schema.MustParseText("root page\nelem page = (Get|val).(Get|val).(Get|val)\nelem val = data\nfunc Get = data -> val", nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), "root page\nelem page = val.val.val\nelem val = data", nil)
	if err != nil {
		t.Fatal(err)
	}
	var runs, localRuns atomic.Int64
	local := countingRegistry(t, &localRuns)
	other := service.NewRegistry()
	if err := other.Register(&service.Operation{Name: "Other", Handler: func([]*doc.Node) ([]*doc.Node, error) { return nil, nil }}); err != nil {
		t.Fatal(err)
	}
	opaque := core.ContextInvokerFunc(func(_ context.Context, call *doc.Node) ([]*doc.Node, error) {
		return nil, fmt.Errorf("opaque: %w", service.ErrUnknownOperation)
	})
	var requests atomic.Int64
	soapSrv := &Server{Registry: countingRegistry(t, &runs)}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		soapSrv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	remote := &Invoker{Default: ts.URL}
	for _, tc := range []struct {
		name     string
		chain    service.Chain
		requests int64
	}{
		{"behind an empty registry", service.Chain{service.NewRegistry(), remote}, 1},
		{"behind a registry serving the calls", service.Chain{local, remote}, 0},
		{"behind a registry serving other operations", service.Chain{other, remote}, 3},
		{"behind an opaque invoker", service.Chain{opaque, remote}, 3},
	} {
		requests.Store(0)
		rw := core.NewRewriterWithConfig(sender, target, core.RewriterConfig{Invoker: tc.chain})
		if _, err := rw.RewriteDocument(context.Background(), doc.Elem("page",
			doc.Call("Get", doc.TextNode("a")), doc.Call("Get", doc.TextNode("b")), doc.Call("Get", doc.TextNode("c"))), core.Safe); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := requests.Load(); n != tc.requests {
			t.Errorf("%s: %d requests, want %d", tc.name, n, tc.requests)
		}
	}
	if n := localRuns.Load(); n != 3 {
		t.Errorf("the local registry ran %d calls, want 3", n)
	}
}

// TestInvokerSplitsShareByBytes: a share whose entries would take the
// envelope past maxShareBytes goes out as the calls that fit, the first
// always, and the reply answers only those; the round sends the rest with
// the next planned call.
func TestInvokerSplitsShareByBytes(t *testing.T) {
	var runs atomic.Int64
	ts := httptest.NewServer(&Server{Registry: countingRegistry(t, &runs)})
	defer ts.Close()
	big := strings.Repeat("x", maxShareBytes/3)
	calls := make([]*doc.Node, 4)
	for i := range calls {
		calls[i] = doc.Call("Get", doc.TextNode(big))
	}
	inv := &Invoker{Default: ts.URL}
	results, fault, err := inv.SendShare(context.Background(), calls)
	if err != nil || fault != nil || len(results) != 2 || runs.Load() != 2 {
		t.Fatalf("%d results after %d runs, fault %v, error %v; want the 2 calls that fit", len(results), runs.Load(), fault, err)
	}
	if results, _, err = inv.SendShare(context.Background(), calls[3:]); err != nil || len(results) != 1 || runs.Load() != 3 {
		t.Fatalf("one call alone: %d results after %d runs in all, error %v", len(results), runs.Load(), err)
	}
}
