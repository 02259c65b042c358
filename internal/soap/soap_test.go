package soap

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"axml/internal/doc"
	"axml/internal/schema"
	"axml/internal/service"
)

func TestRequestRoundTrip(t *testing.T) {
	params := []*doc.Node{
		doc.Elem("city", doc.TextNode("Paris")),
		doc.Call("Inner", doc.TextNode("x")),
		doc.TextNode("raw"),
	}
	var b strings.Builder
	if err := WriteRequest(&b, "Get_Temp", "urn:weather", params); err != nil {
		t.Fatal(err)
	}
	req, err := ReadRequest(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	if req.Method != "Get_Temp" || req.Namespace != "urn:weather" {
		t.Errorf("method/ns = %q %q", req.Method, req.Namespace)
	}
	if len(req.Params) != 3 {
		t.Fatalf("params = %d", len(req.Params))
	}
	if !req.Params[0].Equal(params[0]) || !req.Params[1].Equal(params[1]) {
		t.Error("params changed in transit")
	}
	if req.Params[2].Kind != doc.Text || req.Params[2].Value != "raw" {
		t.Errorf("text param = %v", req.Params[2])
	}
}

func TestResponseRoundTrip(t *testing.T) {
	result := []*doc.Node{doc.Elem("temp", doc.TextNode("15"))}
	var b strings.Builder
	if err := WriteResponse(&b, "Get_Temp", "urn:weather", result); err != nil {
		t.Fatal(err)
	}
	out, err := ReadResponse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !out[0].Equal(result[0]) {
		t.Errorf("result changed: %v", out)
	}
}

func TestNoNamespace(t *testing.T) {
	var b strings.Builder
	if err := WriteRequest(&b, "Op", "", nil); err != nil {
		t.Fatal(err)
	}
	req, err := ReadRequest(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "Op" || req.Namespace != "" {
		t.Errorf("method/ns = %q %q", req.Method, req.Namespace)
	}
}

func TestFaultRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := WriteFault(&b, "soap:Server", "it <broke>"); err != nil {
		t.Fatal(err)
	}
	_, err := ReadResponse(strings.NewReader(b.String()))
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("expected Fault, got %v", err)
	}
	if f.Code != "soap:Server" || f.String != "it <broke>" {
		t.Errorf("fault = %+v", f)
	}
}

func TestReadErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"<x/>",
		`<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Body></Body></Envelope>`,
		`<Envelope xmlns="wrong-ns"><Body><m/></Body></Envelope>`,
	} {
		if _, err := ReadRequest(strings.NewReader(src)); err == nil {
			t.Errorf("ReadRequest(%q) should fail", src)
		}
	}
	// A request envelope is not a response.
	var b strings.Builder
	_ = WriteRequest(&b, "Op", "", nil)
	if _, err := ReadResponse(strings.NewReader(b.String())); err == nil {
		t.Error("request envelope accepted as response")
	}
}

func newTestServer(t *testing.T) (*Server, *schema.Schema) {
	t.Helper()
	s := schema.MustParseText("elem city = data\nelem temp = data", nil)
	reg := service.NewRegistry()
	err := reg.RegisterFunc(s, "Get_Temp", "city", "temp", func(params []*doc.Node) ([]*doc.Node, error) {
		if len(params) != 1 || params[0].Label != "city" {
			return nil, errors.New("bad params")
		}
		return []*doc.Node{doc.Elem("temp", doc.TextNode("15"))}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Server{Registry: reg, Namespace: "urn:weather"}, s
}

func TestHTTPEndToEnd(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := &Client{Endpoint: ts.URL, Namespace: "urn:weather"}
	out, err := c.Call(context.Background(), "Get_Temp", []*doc.Node{doc.Elem("city", doc.TextNode("Paris"))})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Label != "temp" {
		t.Errorf("result = %v", out)
	}

	// Unknown method becomes a Fault.
	_, err = c.Call(context.Background(), "Nope", nil)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("expected Fault, got %v", err)
	}
}

func TestHTTPHooks(t *testing.T) {
	srv, _ := newTestServer(t)
	reqHook, respHook := 0, 0
	srv.OnRequest = func(_ context.Context, method string, params []*doc.Node) ([]*doc.Node, error) {
		reqHook++
		return params, nil
	}
	srv.OnResponse = func(_ context.Context, method string, result []*doc.Node) ([]*doc.Node, error) {
		respHook++
		return result, nil
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &Client{Endpoint: ts.URL}
	if _, err := c.Call(context.Background(), "Get_Temp", []*doc.Node{doc.Elem("city")}); err != nil {
		t.Fatal(err)
	}
	if reqHook != 1 || respHook != 1 {
		t.Errorf("hooks = %d %d", reqHook, respHook)
	}
	// A rejecting request hook faults the exchange.
	srv.OnRequest = func(context.Context, string, []*doc.Node) ([]*doc.Node, error) {
		return nil, errors.New("schema violation")
	}
	_, err := c.Call(context.Background(), "Get_Temp", nil)
	var f *Fault
	if !errors.As(err, &f) || !strings.Contains(f.String, "schema violation") {
		t.Errorf("expected schema-violation fault, got %v", err)
	}
}

func TestHTTPMethodNotAllowed(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET status = %d", resp.StatusCode)
	}
}

func TestInvokerRouting(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	inv := &Invoker{Default: ts.URL}
	out, err := inv.Invoke(context.Background(), doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))))
	if err != nil || len(out) != 1 {
		t.Fatalf("default routing failed: %v %v", out, err)
	}
	// Explicit ServiceRef endpoint wins.
	node := doc.CallAt(doc.ServiceRef{Endpoint: ts.URL, Method: "Get_Temp", Namespace: "urn:weather"},
		doc.Elem("city", doc.TextNode("Paris")))
	out, err = inv.Invoke(context.Background(), node)
	if err != nil || len(out) != 1 {
		t.Fatalf("ref routing failed: %v %v", out, err)
	}
	// No endpoint anywhere is an error.
	bare := &Invoker{}
	if _, err := bare.Invoke(context.Background(), doc.Call("X")); err == nil {
		t.Error("endpoint-less call should fail")
	}
}

func TestIntensionalResultOverHTTP(t *testing.T) {
	// The service returns an *intensional* result: a function node. It must
	// survive the envelope round trip — the essence of intensional data
	// exchange.
	s := schema.MustParseText("elem exhibit = data", nil)
	reg := service.NewRegistry()
	err := reg.RegisterFunc(s, "TimeOut", "data", "exhibit*", func([]*doc.Node) ([]*doc.Node, error) {
		return []*doc.Node{
			doc.Elem("exhibit", doc.TextNode("Dali")),
			doc.CallAt(doc.ServiceRef{Endpoint: "http://timeout.example/soap", Method: "Get_More"}),
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(&Server{Registry: reg})
	defer ts.Close()
	c := &Client{Endpoint: ts.URL}
	out, err := c.Call(context.Background(), "TimeOut", []*doc.Node{doc.TextNode("exhibits")})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[1].Kind != doc.Func || out[1].Label != "Get_More" {
		t.Fatalf("intensional result mangled: %v", out)
	}
	if out[1].Service == nil || out[1].Service.Endpoint != "http://timeout.example/soap" {
		t.Error("service ref lost in transit")
	}
}

// TestWriteAllocations: an envelope renders into a pooled buffer that is
// written once, so writing one into a discarding writer allocates nothing.
func TestWriteAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	params := []*doc.Node{doc.Elem("city", doc.TextNode("Paris"))}
	result := []*doc.Node{
		doc.Elem("exhibit", doc.Elem("title", doc.TextNode("Dali & Miró"))),
		doc.CallAt(doc.ServiceRef{Endpoint: "http://b.example/soap", Method: "Get_More", Namespace: "urn:more"}),
	}
	for _, tc := range []struct {
		name  string
		write func() error
	}{
		{"request", func() error { return WriteRequest(io.Discard, "Get_Temp", "urn:weather", params) }},
		{"response", func() error { return WriteResponse(io.Discard, "TimeOut", "urn:axml:b", result) }},
		{"fault", func() error { return WriteFault(io.Discard, "soap:Server", "it <broke>") }},
	} {
		if err := tc.write(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = tc.write() }); n != 0 {
			t.Errorf("%s: %v allocations", tc.name, n)
		}
	}
}

// TestDecodeAllocations: a reply decodes in place, so reading one costs
// what it returns, not the envelope's bytes: the result's node and
// child-list slabs, which hold the forest's holder too, and one string for
// its text values; the method name and labels are interned.
func TestDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	var b bytes.Buffer
	result := []*doc.Node{doc.Elem("temp", doc.TextNode("15")), doc.Elem("temp", doc.TextNode("16"))}
	if err := WriteResponse(&b, "Get_Temp", "urn:weather", result); err != nil {
		t.Fatal(err)
	}
	data := b.Bytes()
	n := testing.AllocsPerRun(100, func() {
		if _, err := decodeResponse(data); err != nil {
			t.Fatal(err)
		}
	})
	if n > 8 {
		t.Errorf("decoding a two-element reply = %v allocations, want at most 8", n)
	}

	// The entries of one envelope share its tokenizer's slabs, so a reply
	// of eight entries costs far less than eight replies of one; only the
	// text values are a string per entry. Measured 6 and 19 allocations;
	// 9 and 54 when each entry took a builder, a holder, a method name
	// and a string per text node of its own.
	one, eight := []byte(envelopeOpen), []byte(envelopeOpen)
	one, err := appendEntry(one, "Get_Temp", "Response", "urn:weather", result)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if eight, err = appendEntry(eight, "Get_Temp", "Response", "urn:weather", result); err != nil {
			t.Fatal(err)
		}
	}
	one, eight = append(one, envelopeClose...), append(eight, envelopeClose...)
	allocs := func(data []byte, entries int) float64 {
		return testing.AllocsPerRun(100, func() {
			if res, _, err := decodeResponses(data, entries); err != nil || len(res) != entries {
				t.Fatalf("%d results, error %v", len(res), err)
			}
		})
	}
	n1, n8 := allocs(one, 1), allocs(eight, 8)
	t.Logf("one entry = %v allocations, eight = %v", n1, n8)
	if n8 > 4*n1 {
		t.Errorf("decoding an eight-entry reply = %v allocations, want at most 4 × %v", n8, n1)
	}
}
