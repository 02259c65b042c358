package axml_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"axml"
)

// TestFacadePeerIntegration drives the whole public surface at once: build a
// peer, register services, serve it over HTTP, discover it via WSDL_int,
// exchange a document under a stricter schema, and invoke with the SOAP
// invoker — everything a downstream application would touch.
func TestFacadePeerIntegration(t *testing.T) {
	s := axml.MustParseSchemaText(`
root newspaper
elem newspaper = title.(Get_Temp|temp)
elem title = data
elem temp = data
elem city = data
func Get_Temp = city -> temp
`)
	p := axml.NewPeer("news", s)
	err := p.Services.Register(&axml.ServiceOperation{
		Name: "Get_Temp",
		Def:  s.Funcs["Get_Temp"],
		Handler: func(params []*axml.Node) ([]*axml.Node, error) {
			return []*axml.Node{axml.Elem("temp", axml.Text("15"))}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Repo.Put("today", axml.Elem("newspaper",
		axml.Elem("title", axml.Text("The Sun")),
		axml.Call("Get_Temp", axml.Elem("city", axml.Text("Paris")))))

	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	// WSDL discovery through the façade.
	resp, err := http.Get(ts.URL + "/wsdl")
	if err != nil {
		t.Fatal(err)
	}
	desc, err := axml.FetchWSDL(resp.Body, nil)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(desc.Operations()) != 1 || desc.Operations()[0] != "Get_Temp" {
		t.Errorf("operations = %v", desc.Operations())
	}

	// Exchange under a stricter schema (Figure 1 over HTTP).
	strictXSD := `
<schema root="newspaper">
  <element name="newspaper"><complexType><sequence>
    <element ref="title"/><element ref="temp"/>
  </sequence></complexType></element>
  <element name="title" type="xs:string"/>
  <element name="temp" type="xs:string"/>
  <element name="city" type="xs:string"/>
  <function id="Get_Temp"><params><param><element ref="city"/></param></params>
    <return><element ref="temp"/></return></function>
</schema>`
	resp, err = http.Post(ts.URL+"/exchange/today?mode=safe", "text/xml", strings.NewReader(strictXSD))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("exchange status %d", resp.StatusCode)
	}
	got, err := axml.ParseDocument(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got.HasFuncs() {
		t.Errorf("exchange left the document intensional:\n%s", axml.DocumentString(got))
	}

	// The SOAP invoker drives rewriting against the live endpoint.
	strict, err := axml.ParseXSD(strings.NewReader(strictXSD), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	rw := axml.NewRewriterWithConfig(s, strict, axml.RewriterConfig{Depth: 1, Invoker: axml.SOAPInvoker(ts.URL + "/soap")})
	rw.Audit = &axml.Audit{}
	stored, _ := p.Repo.Get("today")
	// Get shares the stored tree; rewriting works on a copy.
	out, err := rw.RewriteDocument(context.Background(), stored.Clone(), axml.Safe)
	if err != nil {
		t.Fatal(err)
	}
	if err := axml.Validate(strict, s, out); err != nil {
		t.Errorf("result invalid: %v", err)
	}
	if rw.Audit.Len() != 1 {
		t.Errorf("audit = %d", rw.Audit.Len())
	}
}

// TestFacadeConverters exercises the converter aliases through the façade.
func TestFacadeConverters(t *testing.T) {
	s := axml.MustParseSchemaText(`
root page
elem page = temp
elem temp = data
elem city = data
func Get_Temp = city -> temp
`)
	inv := axml.ContextInvokerFunc(func(context.Context, *axml.Node) ([]*axml.Node, error) {
		return []*axml.Node{axml.Elem("result", axml.Elem("temperature", axml.Text("15")))}, nil
	})
	rw := axml.NewRewriterWithConfig(s, s, axml.RewriterConfig{Depth: 1, Invoker: inv})
	rw.Converters = axml.Converters{
		axml.UnwrapElement("result"),
		axml.RenameLabels(map[string]string{"temperature": "temp"}),
	}
	// The chain applies one converter at a time; unwrap alone leaves
	// temperature, rename alone leaves the wrapper — so this needs a
	// composite converter.
	composite := axml.Converters{composeConverters(
		axml.UnwrapElement("result"),
		axml.RenameLabels(map[string]string{"temperature": "temp"}),
	)}
	rw.Converters = composite
	root := axml.Elem("page", axml.Call("Get_Temp", axml.Elem("city", axml.Text("Nice"))))
	out, err := rw.RewriteDocument(context.Background(), root, axml.Safe)
	if err != nil {
		t.Fatal(err)
	}
	if out.Children[0].Label != "temp" {
		t.Errorf("converted = %v", out.Children[0])
	}
	// MapValues through the façade.
	mv := axml.MapValues("temp", func(s string) (string, bool) { return s + ".0", true })
	fixed, ok := mv.Convert("Get_Temp", []*axml.Node{axml.Elem("temp", axml.Text("15"))})
	if !ok || fixed[0].Children[0].Value != "15.0" {
		t.Errorf("MapValues = %v %v", fixed, ok)
	}
}

// composeConverters chains converters into one (each fed the previous
// output), demonstrating how applications build richer healing pipelines.
func composeConverters(convs ...axml.Converter) axml.Converter {
	return axml.InlineConverter(func(fn string, forest []*axml.Node) ([]*axml.Node, bool) {
		cur := forest
		any := false
		for _, c := range convs {
			if next, ok := c.Convert(fn, cur); ok {
				cur = next
				any = true
			}
		}
		return cur, any
	})
}

// TestFacadePredicates exercises the predicate combinators through the
// façade against a live registry.
func TestFacadePredicates(t *testing.T) {
	s := axml.MustParseSchemaText(`
elem city = data
elem temp = data
func Get_A = city -> temp
func Get_B = city -> temp
`)
	reg := axml.NewPeer("r", s).Services
	if err := reg.Register(&axml.ServiceOperation{
		Name: "Get_A", Def: s.Funcs["Get_A"],
		Handler: func([]*axml.Node) ([]*axml.Node, error) { return nil, nil },
	}); err != nil {
		t.Fatal(err)
	}
	pred := axml.AndPredicates(axml.RegistryListed(reg), axml.ACL("Get_A", "Get_B"))
	if !pred("Get_A", nil, nil) {
		t.Error("Get_A should pass (listed + allowed)")
	}
	if pred("Get_B", nil, nil) {
		t.Error("Get_B should fail (not listed)")
	}
}
