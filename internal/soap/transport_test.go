package soap

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"axml/internal/doc"
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
