package peer

import (
	"context"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/schema"
	"axml/internal/soap"
	"axml/internal/store"
	"axml/internal/wsdl"
	"axml/internal/xsdint"
)

// TestClientSideEnforcement: a reader peer calls a remote service whose
// WSDL_int input type demands a *materialized* city; the reader's Schema
// Enforcement module invokes its local Guess_City before the parameters
// leave the peer (the paper's sender-side materialization).
func TestClientSideEnforcement(t *testing.T) {
	table := schema.New().Table

	// The remote weather service: strict input type (city element, no
	// function nodes allowed because its schema declares no other funcs).
	weatherSchema, err := schema.ParseTextShared(schema.NewShared(table), `
elem city = data
elem temp = data
func Get_Temp = city -> temp
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	weather := New("weather", weatherSchema)
	if err := weather.Services.Register(opOf(t, weather, "Get_Temp", func(params []*doc.Node) ([]*doc.Node, error) {
		if len(params) != 1 || params[0].Label != "city" || params[0].HasFuncs() {
			t.Errorf("unmaterialized params reached the service: %v", params)
		}
		return []*doc.Node{doc.Elem("temp", doc.TextNode("15"))}, nil
	})); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(weather.Handler())
	defer ts.Close()
	weather.Endpoint = ts.URL + "/soap"

	// The reader peer knows a local Guess_City service.
	readerSchema, err := schema.ParseTextShared(schema.NewShared(table), `
elem city = data
elem temp = data
func Get_Temp = city -> temp
func Guess_City = data -> city
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	reader := New("reader", readerSchema)
	if err := reader.Services.Register(opOf(t, reader, "Guess_City", func([]*doc.Node) ([]*doc.Node, error) {
		return []*doc.Node{doc.Elem("city", doc.TextNode("Paris"))}, nil
	})); err != nil {
		t.Fatal(err)
	}

	// Fetch the remote description (shared table) and call with an
	// intensional parameter.
	desc := &wsdl.Description{
		Name: "weather", TargetNamespace: "urn:axml:weather",
		Endpoint: ts.URL + "/soap", Schema: weatherSchema,
	}
	result, err := reader.Call(context.Background(), desc, "Get_Temp",
		[]*doc.Node{doc.Call("Guess_City", doc.TextNode("fr"))}, core.Safe)
	if err != nil {
		t.Fatal(err)
	}
	if len(result) != 1 || result[0].Label != "temp" {
		t.Errorf("result = %v", result)
	}
	if reader.Audit.Len() != 1 {
		t.Errorf("reader should have invoked Guess_City once, audit = %d", reader.Audit.Len())
	}

	// Unknown operation and mismatched tables are rejected.
	if _, err := reader.Call(context.Background(), desc, "Nope", nil, core.Safe); err == nil {
		t.Error("unknown operation accepted")
	}
	foreign := &wsdl.Description{Name: "x", Schema: schema.MustParseText("elem a = data", nil)}
	if _, err := reader.Call(context.Background(), foreign, "Get_Temp", nil, core.Safe); err == nil {
		t.Error("foreign symbol table accepted")
	}
}

// TestCallValidatesResults: a remote service returning garbage is caught by
// the caller's output-instance check.
func TestCallValidatesResults(t *testing.T) {
	table := schema.New().Table
	liarSchema, err := schema.ParseTextShared(schema.NewShared(table), `
elem city = data
elem temp = data
func Get_Temp = city -> temp
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	liar := New("liar", liarSchema)
	// Bypass the liar's own enforcement by serving raw SOAP without hooks.
	reg := liar.Services
	if err := reg.Register(opOf(t, liar, "Get_Temp", func([]*doc.Node) ([]*doc.Node, error) {
		return []*doc.Node{doc.Elem("city", doc.TextNode("lies"))}, nil
	})); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(&soap.Server{Registry: reg})
	defer ts.Close()

	reader := New("reader", liarSchema)
	desc := &wsdl.Description{Name: "liar", Endpoint: ts.URL, Schema: liarSchema}
	_, err = reader.Call(context.Background(), desc, "Get_Temp", []*doc.Node{doc.Elem("city", doc.TextNode("Paris"))}, core.Safe)
	if err == nil || !strings.Contains(err.Error(), "non-conforming") {
		t.Errorf("expected non-conforming error, got %v", err)
	}
}

// TestFetchedWSDLDrivesCall: the full discovery loop — serve WSDL over HTTP,
// parse it with the caller's table, call through it.
func TestFetchedWSDLDrivesCall(t *testing.T) {
	weatherSchema := schema.MustParseText(`
elem city = data
elem temp = data
func Get_Temp = city -> temp
`, nil)
	weather := New("weather", weatherSchema)
	if err := weather.Services.Register(opOf(t, weather, "Get_Temp", func([]*doc.Node) ([]*doc.Node, error) {
		return []*doc.Node{doc.Elem("temp", doc.TextNode("15"))}, nil
	})); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(weather.Handler())
	defer ts.Close()
	weather.Endpoint = ts.URL + "/soap"

	// The caller parses the served WSDL into its own (fresh) table.
	resp, err := ts.Client().Get(ts.URL + "/wsdl")
	if err != nil {
		t.Fatal(err)
	}
	callerTable := schema.New().Table
	desc, err := wsdl.Parse(resp.Body, xsdint.Options{Table: callerTable})
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if desc.Endpoint == "" {
		desc.Endpoint = ts.URL + "/soap"
	}
	caller := New("caller", schema.NewShared(callerTable))
	out, err := caller.Call(context.Background(), desc, "Get_Temp", []*doc.Node{doc.Elem("city", doc.TextNode("Nice"))}, core.Safe)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Label != "temp" {
		t.Errorf("result = %v", out)
	}
}

// TestEnforceOutRewrites: the send side of the module materializes results.
func TestEnforceOutRewrites(t *testing.T) {
	p := newsPeer(t)
	must(t, p.Schema.SetFunc("Raw_Temp", "data", "temp"))
	// The implementation returns an intensional temp (a Get_Temp call);
	// τ_out(Raw_Temp) = temp requires materialization.
	out, err := p.EnforceOut(context.Background(), "Raw_Temp", []*doc.Node{
		doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Label != "temp" {
		t.Errorf("enforced result = %v", out)
	}
	// Conforming results pass through; unknown ops fail; hopeless fails.
	pass := []*doc.Node{doc.Elem("temp", doc.TextNode("3"))}
	got, err := p.EnforceOut(context.Background(), "Raw_Temp", pass)
	if err != nil || len(got) != 1 || got[0] != pass[0] {
		t.Errorf("pass-through broken: %v %v", got, err)
	}
	if _, err := p.EnforceOut(context.Background(), "Ghost", nil); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := p.EnforceOut(context.Background(), "Raw_Temp", []*doc.Node{doc.Elem("city")}); err == nil {
		t.Error("hopeless result accepted")
	}
}

// TestRepositoryErrors: persistence error paths.
func TestRepositoryErrors(t *testing.T) {
	r := store.NewRepository()
	if err := r.LoadDir("/nonexistent-dir-xyz"); err == nil {
		t.Error("LoadDir on missing dir should fail")
	}
	dir := t.TempDir()
	// A non-XML file is skipped; a malformed XML file errors.
	if err := writeFile(dir+"/skip.txt", "not xml"); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadDir(dir); err != nil {
		t.Errorf("non-xml files should be skipped: %v", err)
	}
	if err := writeFile(dir+"/bad.xml", "<unclosed>"); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadDir(dir); err == nil {
		t.Error("malformed xml should fail")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
