package soap

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"axml/internal/doc"
	"axml/internal/service"
)

// goldenEnvelopes lists the envelopes whose bytes are pinned under
// testdata/golden: requests and responses with a namespace and without,
// function nodes carrying endpointURL and namespaceURI, text and a
// namespace that need escaping, a request of three calls across two
// namespaces, and a server's reply of two results and then a fault. Each
// file holds what the writer produced when the pin was taken; a writer
// change must reproduce it byte for byte.
func goldenEnvelopes() []struct {
	name  string
	write func(io.Writer) error
} {
	remote := doc.ServiceRef{Endpoint: "http://timeout.example/soap?a=1&b=<2>", Method: "Get_More", Namespace: "urn:more"}
	return []struct {
		name  string
		write func(io.Writer) error
	}{
		{"request-ns", func(w io.Writer) error {
			return WriteRequest(w, "Get_Temp", "urn:weather", []*doc.Node{
				doc.Elem("city", doc.TextNode("Paris")),
				doc.Call("Inner", doc.TextNode("x")),
				doc.TextNode("raw"),
			})
		}},
		{"request-no-ns", func(w io.Writer) error {
			return WriteRequest(w, "Op", "", []*doc.Node{
				doc.Elem("a", doc.Elem("b"), doc.Elem("c", doc.TextNode("t")), doc.Elem("d", doc.Elem("e", doc.TextNode("deep")))),
				doc.Elem("empty"),
			})
		}},
		{"request-empty", func(w io.Writer) error {
			return WriteRequest(w, "Ping", "", nil)
		}},
		{"response-ns", func(w io.Writer) error {
			return WriteResponse(w, "Get_Temp", "urn:weather", []*doc.Node{doc.Elem("temp", doc.TextNode("15"))})
		}},
		{"response-functions", func(w io.Writer) error {
			return WriteResponse(w, "TimeOut", "urn:axml:b", []*doc.Node{
				doc.Elem("exhibit", doc.TextNode("Dali")),
				doc.CallAt(remote,
					doc.Elem("city", doc.TextNode("Paris")),
					doc.CallAt(doc.ServiceRef{Method: "Inner", Namespace: "urn:inner"}, doc.TextNode("v"))),
				doc.CallAt(doc.ServiceRef{Endpoint: "http://bare.example/soap", Method: "Bare"}),
				doc.Call("Local"),
			})
		}},
		{"request-escaping", func(w io.Writer) error {
			return WriteRequest(w, "Esc", `urn:a&b"<c>'d'`, []*doc.Node{
				doc.Elem("t", doc.TextNode(`a<b & "c" 'd' > e`)),
				doc.TextNode("tab\there\nnl\rcr"),
				doc.Elem("u", doc.TextNode("bad\xffutf8 \x01ctl \uFFFE nonchar é ok")),
				doc.CallAt(doc.ServiceRef{Endpoint: "http://x.example/?q=\"1\"&r='2'", Method: "Q", Namespace: "urn:<q>"}),
			})
		}},
		{"fault", func(w io.Writer) error {
			return WriteFault(w, "soap:Server", "it <broke> & \"failed\"\n'twice'")
		}},
		{"request-multi", func(w io.Writer) error {
			return writeEnvelope(w, requestOf(multiRequest()))
		}},
		{"response-multi-fault", func(w io.Writer) error {
			calls := append(multiRequest(), Request{Method: "Get_Temp", Namespace: "urn:weather",
				Params: []*doc.Node{doc.Elem("city", doc.TextNode("Nice"))}})
			calls[2] = Request{Method: "Fail", Namespace: "urn:weather", Params: []*doc.Node{doc.Elem("city", doc.TextNode("Mars"))}}
			var req bytes.Buffer
			if err := writeEnvelope(&req, requestOf(calls)); err != nil {
				return err
			}
			rec := httptest.NewRecorder()
			multiServer().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/soap", &req))
			_, err := w.Write(rec.Body.Bytes())
			return err
		}},
	}
}

// multiRequest is a request of three calls across two namespaces.
func multiRequest() []Request {
	return []Request{
		{Method: "Get_Temp", Namespace: "urn:weather", Params: []*doc.Node{doc.Elem("city", doc.TextNode("Paris"))}},
		{Method: "Get_More", Namespace: "urn:more", Params: []*doc.Node{doc.Elem("city", doc.TextNode("Lyon")), doc.Call("Inner", doc.TextNode("x"))}},
		{Method: "Get_Temp", Namespace: "urn:weather", Params: []*doc.Node{doc.Elem("city", doc.TextNode("Oslo"))}},
	}
}

// multiServer serves Get_Temp and Get_More, which return a temp naming
// their city, and Fail, which fails.
func multiServer() *Server {
	reg := service.NewRegistry()
	temp := func(params []*doc.Node) ([]*doc.Node, error) {
		return []*doc.Node{doc.Elem("temp", doc.TextNode("15 in "+params[0].Children[0].Value))}, nil
	}
	for _, op := range []*service.Operation{
		{Name: "Get_Temp", Handler: temp},
		{Name: "Get_More", Handler: temp},
		{Name: "Fail", ContextHandler: func(context.Context, []*doc.Node) ([]*doc.Node, error) {
			return nil, errors.New("no reading for <Mars>")
		}},
	} {
		if err := reg.Register(op); err != nil {
			panic(err)
		}
	}
	return &Server{Registry: reg, Namespace: "urn:weather"}
}

// TestGoldenEnvelopes: the envelope writers reproduce the pinned bytes,
// and every pinned request or response reads back.
func TestGoldenEnvelopes(t *testing.T) {
	for _, g := range goldenEnvelopes() {
		t.Run(g.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", g.name+".xml"))
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			if err := g.write(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b.Bytes(), want) {
				t.Errorf("envelope differs from the golden file\ngot:\n%s\nwant:\n%s", b.Bytes(), want)
			}
		})
	}
}
