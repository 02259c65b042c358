package peer

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/schema"
	"axml/internal/service"
	"axml/internal/soap"
	"axml/internal/store"
	"axml/internal/wsdl"
	"axml/internal/xmlio"
	"axml/internal/xsdint"
)

const newspaperSchema = `
root newspaper
elem newspaper = title.date.(Get_Temp|temp).(TimeOut|exhibit*)
elem title = data
elem date = data
elem temp = data
elem city = data
elem exhibit = title.date
elem performance = data
func Get_Temp = city -> temp
func TimeOut = data -> (exhibit|performance)*
`

// newsPeer builds a peer holding the Figure 2 newspaper document with local
// implementations of Get_Temp and TimeOut.
func newsPeer(t testing.TB) *Peer {
	t.Helper()
	s := schema.MustParseText(newspaperSchema, nil)
	p := New("news", s)
	p.Repo.Put("today", doc.Elem("newspaper",
		doc.Elem("title", doc.TextNode("The Sun")),
		doc.Elem("date", doc.TextNode("04/10/2002")),
		doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))),
		doc.Call("TimeOut", doc.TextNode("exhibits")),
	))
	must(t, p.Services.Register(opOf(t, p, "Get_Temp", func(params []*doc.Node) ([]*doc.Node, error) {
		return []*doc.Node{doc.Elem("temp", doc.TextNode("15"))}, nil
	})))
	must(t, p.Services.Register(opOf(t, p, "TimeOut", func(params []*doc.Node) ([]*doc.Node, error) {
		return []*doc.Node{doc.Elem("exhibit", doc.Elem("title", doc.TextNode("Dali")), doc.Elem("date", doc.TextNode("2002")))}, nil
	})))
	return p
}

func opOf(t testing.TB, p *Peer, name string, h func([]*doc.Node) ([]*doc.Node, error)) *service.Operation {
	t.Helper()
	if p.Schema.Funcs[name] == nil {
		t.Fatalf("function %q not declared", name)
	}
	return &service.Operation{Name: name, Def: p.Schema.Funcs[name], Handler: h}
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestRepositoryBasics(t *testing.T) {
	r := store.NewRepository()
	d := doc.Elem("a", doc.TextNode("x"))
	r.Put("one", d)
	d.Children[0].Value = "mutated"
	got, ok := r.Get("one")
	if !ok || got.Children[0].Value != "x" {
		t.Error("Put did not clone")
	}
	if got2, _ := r.Get("one"); got2 != got {
		t.Error("two Gets of one version returned different nodes")
	}
	if r.Len() != 1 || len(r.Names()) != 1 {
		t.Error("Len/Names wrong")
	}
	if err := r.Update("one", func(n *doc.Node) (*doc.Node, error) {
		return doc.Elem("b"), nil
	}); err != nil {
		t.Fatal(err)
	}
	if got3, _ := r.Get("one"); got3.Label != "b" {
		t.Error("Update did not replace")
	}
	if err := r.Update("ghost", nil); err == nil {
		t.Error("Update of missing doc should fail")
	}
	r.Delete("one")
	if _, ok := r.Get("one"); ok {
		t.Error("Delete failed")
	}
}

func TestRepositorySaveLoadDir(t *testing.T) {
	dir := t.TempDir()
	r := store.NewRepository()
	r.Put("news", doc.Elem("newspaper", doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris")))))
	r.Put("plain", doc.Elem("note", doc.TextNode("hi")))
	if err := r.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	r2 := store.NewRepository()
	if err := r2.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 2 {
		t.Fatalf("loaded %d docs", r2.Len())
	}
	a, _ := r.Get("news")
	b, _ := r2.Get("news")
	if !a.Equal(b) {
		t.Error("persistence round trip changed the document")
	}
}

func TestSendDocumentMaterializesPerReceiver(t *testing.T) {
	p := newsPeer(t)
	// Receiver (**): temp must be materialized, TimeOut may stay.
	exch, err := schema.ParseTextShared(schema.NewShared(p.Schema.Table), strings.Replace(newspaperSchema,
		"elem newspaper = title.date.(Get_Temp|temp).(TimeOut|exhibit*)",
		"elem newspaper = title.date.temp.(TimeOut|exhibit*)", 1), nil)
	must(t, err)
	out, err := p.SendDocument(context.Background(), "today", exch, core.Safe)
	if err != nil {
		t.Fatal(err)
	}
	labels := out.ChildLabels()
	if labels[2] != "temp" || labels[3] != "TimeOut" {
		t.Errorf("children = %v", labels)
	}
	// The repository copy is untouched.
	stored, _ := p.Repo.Get("today")
	if stored.ChildLabels()[2] != "Get_Temp" {
		t.Error("repository copy was mutated")
	}
	if p.Audit.Len() != 1 {
		t.Errorf("audit = %d calls", p.Audit.Len())
	}
}

func TestMaterializeInPlace(t *testing.T) {
	p := newsPeer(t)
	if err := p.Materialize(context.Background(), "today", core.Possible); err != nil {
		t.Fatal(err)
	}
	stored, _ := p.Repo.Get("today")
	if err := schema.NewContext(p.Schema, nil).Validate(stored); err != nil {
		t.Errorf("materialized doc invalid: %v", err)
	}
}

func TestEnforceInRewritesParams(t *testing.T) {
	s := schema.MustParseText(`
elem city = data
elem temp = data
func Get_Temp = city -> temp
func Guess_City = data -> city
`, nil)
	p := New("w", s)
	must(t, p.Services.Register(opOf(t, p, "Guess_City", func([]*doc.Node) ([]*doc.Node, error) {
		return []*doc.Node{doc.Elem("city", doc.TextNode("Paris"))}, nil
	})))
	// Conforming params pass through untouched.
	params := []*doc.Node{doc.Elem("city", doc.TextNode("Nice"))}
	out, err := p.EnforceIn(context.Background(), "Get_Temp", params)
	if err != nil || len(out) != 1 || out[0] != params[0] {
		t.Fatalf("pass-through failed: %v %v", out, err)
	}
	// Intensional params are materialized.
	out, err = p.EnforceIn(context.Background(), "Get_Temp", []*doc.Node{doc.Call("Guess_City", doc.TextNode("fr"))})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Label != "city" {
		t.Errorf("enforced params = %v", out)
	}
	// Unknown operations and hopeless params fail.
	if _, err := p.EnforceIn(context.Background(), "Nope", nil); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := p.EnforceIn(context.Background(), "Get_Temp", []*doc.Node{doc.Elem("temp")}); err == nil {
		t.Error("hopeless params accepted")
	}
}

func TestQueryService(t *testing.T) {
	s := schema.MustParseText(`
root guide
elem guide = exhibit*
elem exhibit = title.date
elem title = data
elem date = data
`, nil)
	p := New("timeout", s)
	p.Repo.Put("guide", doc.Elem("guide",
		doc.Elem("exhibit", doc.Elem("title", doc.TextNode("Dali")), doc.Elem("date", doc.TextNode("2002"))),
		doc.Elem("exhibit", doc.Elem("title", doc.TextNode("Monet")), doc.Elem("date", doc.TextNode("2003"))),
	))
	must(t, p.DefineQueryService("All_Exhibits", "data", "exhibit*", Query{Doc: "guide", Path: []string{"exhibit"}}))
	must(t, p.DefineQueryService("Find_Exhibit", "title", "exhibit*", Query{Doc: "guide", Path: []string{"exhibit"}, Where: "title"}))

	out, err := p.Services.Call(context.Background(), "All_Exhibits", nil)
	if err != nil || len(out) != 2 {
		t.Fatalf("All_Exhibits = %v, %v", out, err)
	}
	out, err = p.Services.Call(context.Background(), "Find_Exhibit", []*doc.Node{doc.Elem("title", doc.TextNode("Monet"))})
	if err != nil || len(out) != 1 {
		t.Fatalf("Find_Exhibit = %v, %v", out, err)
	}
	if childTextOf(out[0], "date") != "2003" {
		t.Errorf("wrong exhibit: %v", out[0])
	}
	// Query over a missing document errors at call time.
	must(t, p.DefineQueryService("Broken", "data", "exhibit*", Query{Doc: "ghost"}))
	if _, err := p.Services.Call(context.Background(), "Broken", nil); err == nil {
		t.Error("query over missing doc should fail")
	}
}

func childTextOf(n *doc.Node, label string) string {
	for _, ch := range n.Children {
		if ch.Kind != doc.Text && ch.Label == label && len(ch.Children) == 1 {
			return ch.Children[0].Value
		}
	}
	return ""
}

// callFreeExchangeXSD is a receiver whose content models admit no
// function: every call must be invoked, none may be kept.
const callFreeExchangeXSD = `
<schema root="newspaper">
  <element name="newspaper"><complexType><sequence>
    <element ref="title"/><element ref="date"/><element ref="temp"/>
    <element ref="exhibit" minOccurs="0" maxOccurs="unbounded"/>
  </sequence></complexType></element>
  <element name="title" type="xs:string"/>
  <element name="date" type="xs:string"/>
  <element name="temp" type="xs:string"/>
  <element name="city" type="xs:string"/>
  <element name="exhibit"><complexType><sequence>
    <element ref="title"/><element ref="date"/>
  </sequence></complexType></element>
  <function id="Get_Temp"><params><param><element ref="city"/></param></params>
    <return><element ref="temp"/></return></function>
</schema>`

func TestHTTPExchangeEndpoint(t *testing.T) {
	p := newsPeer(t)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/exchange/today?mode=safe", "text/xml", strings.NewReader(identityExchangeXSD))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/xml; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	got, err := xmlio.ParseString(string(body))
	if err != nil {
		t.Fatal(err)
	}
	labels := got.ChildLabels()
	if len(labels) != 4 || labels[2] != "temp" || labels[3] != "TimeOut" {
		t.Errorf("exchanged children = %v", labels)
	}

	postRefused(t, ts.URL, "/exchange/today?mode=bogus", identityExchangeXSD, http.StatusBadRequest)
	postRefused(t, ts.URL, "/exchange/ghost", identityExchangeXSD, http.StatusNotFound)
}

// postRefused posts receiver to path and checks the refusal: the status is
// want and the body carries no document prefix.
func postRefused(t *testing.T, base, path, receiver string, want int) {
	t.Helper()
	resp, err := http.Post(base+path, "text/xml", strings.NewReader(receiver))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%s: reading the body: %v", path, err)
	}
	if resp.StatusCode != want {
		t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
	}
	if b := string(body); strings.HasPrefix(b, "<?xml") || strings.HasPrefix(b, "<newspaper") {
		t.Errorf("%s: refusal carries a document prefix: %.60q", path, b)
	}
}

// TestHTTPExchangeUnsafeRewriting: "today" embeds a TimeOut call that a
// call-free receiver cannot keep and Safe mode may not invoke, so the
// exchange is refused with 422.
func TestHTTPExchangeUnsafeRewriting(t *testing.T) {
	ts := httptest.NewServer(newsPeer(t).Handler())
	defer ts.Close()
	postRefused(t, ts.URL, "/exchange/today?mode=safe", callFreeExchangeXSD, http.StatusUnprocessableEntity)
}

// TestHTTPExchangeLateInvalidChild: "long" holds 800 valid exhibits and then
// a performance element the receiver rejects. Enforcement decides over the
// whole document before anything is written, so the refusal is a clean 422,
// not a 200 with a document prefix.
func TestHTTPExchangeLateInvalidChild(t *testing.T) {
	p := newsPeer(t)
	fat := strings.Repeat("x", 100)
	kids := []*doc.Node{
		doc.Elem("title", doc.TextNode("The Sun")),
		doc.Elem("date", doc.TextNode("04/10/2002")),
		doc.Elem("temp", doc.TextNode("15")),
	}
	for i := 0; i < 800; i++ {
		kids = append(kids, doc.Elem("exhibit",
			doc.Elem("title", doc.TextNode(fat)),
			doc.Elem("date", doc.TextNode("2002"))))
	}
	kids = append(kids, doc.Elem("performance", doc.TextNode("rejected")))
	must(t, p.Repo.Put("long", doc.Elem("newspaper", kids...)))
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	postRefused(t, ts.URL, "/exchange/long?mode=safe", identityExchangeXSD, http.StatusUnprocessableEntity)
}

func TestHTTPDocAndWSDL(t *testing.T) {
	p := newsPeer(t)
	p.Endpoint = "http://example.test/soap"
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/doc/today")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "int:fun") {
		t.Errorf("doc endpoint: %d %s", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/wsdl")
	if err != nil {
		t.Fatal(err)
	}
	wsdlBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	desc, err := wsdl.ParseString(string(wsdlBody), xsdint.Options{})
	if err != nil {
		t.Fatalf("served WSDL unparseable: %v\n%s", err, wsdlBody)
	}
	if len(desc.Operations()) != 2 {
		t.Errorf("operations = %v", desc.Operations())
	}
}

// TestTwoPeerExchange is the E-C8 integration scenario: a reader peer calls
// the news peer's service over SOAP; the news peer's Schema Enforcement
// module materializes the result to honor its declared output type.
func TestTwoPeerExchange(t *testing.T) {
	news := newsPeer(t)
	// The news peer offers Front_Page: data -> newspaper, declared to return
	// a *materialized* temp (the receiver-friendly type): title.date.temp....
	must(t, news.Schema.SetLabel("frontpage", "title.date.temp.exhibit*"))
	must(t, news.Schema.SetFunc("Front_Page", "data", "frontpage"))
	must(t, news.Services.Register(opOf(t, news, "Front_Page", func([]*doc.Node) ([]*doc.Node, error) {
		// The implementation returns the raw intensional document wrapped
		// in frontpage; enforcement must materialize Get_Temp and TimeOut.
		// The result belongs to the caller, so it copies the stored nodes.
		d, _ := news.Repo.Get("today")
		return []*doc.Node{doc.Elem("frontpage", doc.CloneForest(d.Children)...)}, nil
	})))
	news.Mode = core.Possible // TimeOut's output type includes performances

	ts := httptest.NewServer(news.Handler())
	defer ts.Close()

	client := &soap.Client{Endpoint: ts.URL + "/soap", Namespace: "urn:axml:news"}
	out, err := client.Call(context.Background(), "Front_Page", []*doc.Node{doc.TextNode("paris-edition")})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("result = %d roots", len(out))
	}
	fp := out[0]
	labels := fp.ChildLabels()
	if len(labels) < 3 || labels[2] != "temp" {
		t.Errorf("frontpage children = %v (temp should be materialized)", labels)
	}
	if fp.HasFuncs() {
		t.Error("enforced result still intensional")
	}
}
