package peer

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/schema"
	"axml/internal/store"
)

// TestPutRejectsPathTraversal is the regression test for the SaveDir escape:
// a document named "../evil" must never be accepted, since SaveDir joins
// names onto its directory.
func TestPutRejectsPathTraversal(t *testing.T) {
	r := store.NewRepository()
	d := doc.Elem("a", doc.TextNode("x"))
	for _, name := range []string{"", ".", "..", "../evil", "a/b", `a\b`, "/abs", `..\up`} {
		if err := r.Put(name, d); err == nil {
			t.Errorf("Put(%q) accepted an unsafe name", name)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("unsafe Put stored %d documents", r.Len())
	}
	for _, name := range []string{"plain", "dotted.name", "with space", "under_score"} {
		if err := r.Put(name, d); err != nil {
			t.Errorf("Put(%q) rejected a safe name: %v", name, err)
		}
	}

	dir := t.TempDir()
	sub := filepath.Join(dir, "docs")
	if err := r.SaveDir(sub); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Errorf("SaveDir wrote %d files, want 4", len(entries))
	}
	// Nothing may have escaped into the parent directory.
	parent, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(parent) != 1 {
		t.Errorf("SaveDir escaped its directory: parent has %d entries", len(parent))
	}

	r2 := store.NewRepository()
	if err := r2.LoadDir(sub); err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 4 {
		t.Errorf("LoadDir round trip lost documents: %d of 4", r2.Len())
	}
}

// queryPeer builds a peer with a guide document and a query service filtered
// on a Where child.
func queryPeer(t *testing.T) *Peer {
	t.Helper()
	s := schema.MustParseText(`
root guide
elem guide = restaurant*
elem restaurant = name.city?
elem name = data
elem city = data
`, nil)
	p := New("guide", s)
	must(t, p.Repo.Put("guide", doc.Elem("guide",
		doc.Elem("restaurant", doc.Elem("name", doc.TextNode("Chez Paul")), doc.Elem("city", doc.TextNode("Paris"))),
		doc.Elem("restaurant", doc.Elem("name", doc.TextNode("Roma")), doc.Elem("city", doc.TextNode("Rome"))),
		doc.Elem("restaurant", doc.Elem("name", doc.TextNode("Nowhere"))), // no city child
		doc.Elem("restaurant", doc.Elem("name", doc.TextNode("Blank")), doc.Elem("city")),
	)))
	must(t, p.DefineQueryService("ByCity", "city", "restaurant*", Query{
		Doc: "guide", Path: []string{"restaurant"}, Where: "city",
	}))
	return p
}

func TestQueryWhereFilters(t *testing.T) {
	p := queryPeer(t)
	out, err := p.Services.Call(context.Background(), "ByCity", []*doc.Node{doc.Elem("city", doc.TextNode("Paris"))})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Children[0].Children[0].Value != "Chez Paul" {
		t.Fatalf("Where city=Paris selected %d rows", len(out))
	}
}

// TestQueryWhereMissingParam: a Where query with no atomic parameter is an
// error, not a silent match against "".
func TestQueryWhereMissingParam(t *testing.T) {
	p := queryPeer(t)
	_, err := p.Services.Call(context.Background(), "ByCity", nil)
	if err == nil || !strings.Contains(err.Error(), "atomic parameter") {
		t.Fatalf("missing parameter: got err=%v, want atomic-parameter error", err)
	}
	_, err = p.Services.Call(context.Background(), "ByCity", []*doc.Node{doc.Elem("city", doc.Elem("name"))})
	if err == nil {
		t.Fatal("structured-only parameter must not silently match")
	}
}

// TestQueryWhereEmptyValue: an explicitly empty parameter matches rows whose
// Where child is present but empty — and only those. Rows *lacking* the
// child never match.
func TestQueryWhereEmptyValue(t *testing.T) {
	p := queryPeer(t)
	out, err := p.Services.Call(context.Background(), "ByCity", []*doc.Node{doc.Elem("city", doc.TextNode(""))})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Children[0].Children[0].Value != "Blank" {
		names := make([]string, 0, len(out))
		for _, n := range out {
			names = append(names, n.Children[0].Children[0].Value)
		}
		t.Fatalf(`Where city="" selected %v, want only "Blank"`, names)
	}
}

// TestStatsEndpoint: /stats reports cache effectiveness after an exchange.
func TestStatsEndpoint(t *testing.T) {
	p := newsPeer(t)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	exch, err := schema.ParseTextShared(schema.NewShared(p.Schema.Table), strings.Replace(newspaperSchema,
		"elem newspaper = title.date.(Get_Temp|temp).(TimeOut|exhibit*)",
		"elem newspaper = title.date.temp.(TimeOut|exhibit*)", 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SendDocument(context.Background(), "today", exch, core.Safe); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var stats struct {
		Peer         string `json:"peer"`
		Documents    int    `json:"documents"`
		CompileCache struct {
			Misses uint64 `json:"Misses"`
		} `json:"compile_cache"`
		Invocations int `json:"invocations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Peer != "news" || stats.Documents != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.CompileCache.Misses != 1 || stats.Invocations != 1 {
		t.Errorf("after one exchange: %+v, want 1 compile and 1 invocation", stats)
	}
}
