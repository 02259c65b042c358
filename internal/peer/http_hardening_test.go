package peer

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"axml/internal/doc"
	"axml/internal/soap"
)

// identityExchangeXSD is an exchange schema equivalent to the news peer's
// own (so exchanges succeed); shared by the hardening tests.
const identityExchangeXSD = `
<schema root="newspaper">
  <element name="newspaper"><complexType><sequence>
    <element ref="title"/><element ref="date"/><element ref="temp"/>
    <choice><function ref="TimeOut"/><element ref="exhibit" minOccurs="0" maxOccurs="unbounded"/></choice>
  </sequence></complexType></element>
  <element name="title" type="xs:string"/>
  <element name="date" type="xs:string"/>
  <element name="temp" type="xs:string"/>
  <element name="city" type="xs:string"/>
  <element name="exhibit"><complexType><sequence>
    <element ref="title"/><element ref="date"/>
  </sequence></complexType></element>
  <element name="performance" type="xs:string"/>
  <function id="Get_Temp"><params><param><element ref="city"/></param></params>
    <return><element ref="temp"/></return></function>
  <function id="TimeOut">
    <return><choice minOccurs="0" maxOccurs="unbounded">
      <element ref="exhibit"/><element ref="performance"/>
    </choice></return></function>
</schema>`

// TestExchangeBodyCap: /exchange must enforce the same MaxRequestBytes/413
// discipline as /soap and PUT /doc — before this fix it read an unbounded
// body straight into the schema parser.
func TestExchangeBodyCap(t *testing.T) {
	p := newsPeer(t)
	p.MaxRequestBytes = 4096
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	// A syntactically endless schema body far beyond the cap.
	huge := "<schema root=\"newspaper\">" + strings.Repeat("<annotation>x</annotation>", 8192)
	resp, err := http.Post(ts.URL+"/exchange/today", "text/xml", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized /exchange body = %d, want 413", resp.StatusCode)
	}

	// PUT /doc reports the cap as 413 too (not a generic parse 400).
	hugeDoc := "<memo>" + strings.Repeat("y", 8192)
	if resp := doReq(t, http.MethodPut, ts.URL+"/doc/big", hugeDoc); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized PUT /doc body = %d, want 413", resp.StatusCode)
	}

	// A small well-formed request still works.
	resp2, err := http.Post(ts.URL+"/exchange/today?mode=safe", "text/xml", strings.NewReader(identityExchangeXSD))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("small /exchange body = %d, want 200", resp2.StatusCode)
	}
}

// TestExchangeHostileSchemasBoundedMemory: N distinct exchange schemas, each
// carrying labels the peer has never seen, must not grow the peer's shared
// symbol table at all — untrusted interning is scoped to a per-request
// overlay — and the enforcement cache must stay within its bound rather than
// accumulating one resident analysis per hostile schema.
func TestExchangeHostileSchemasBoundedMemory(t *testing.T) {
	p := newsPeer(t)
	p.Enforcement.Purge()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	// Warm the table with one legitimate exchange so lazily-interned
	// baseline symbols don't muddy the measurement.
	resp, err := http.Post(ts.URL+"/exchange/today?mode=safe", "text/xml", strings.NewReader(identityExchangeXSD))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	before := p.Schema.Table.Len()

	const n = 200
	for i := 0; i < n; i++ {
		hostile := fmt.Sprintf(`
<schema root="newspaper">
  <element name="newspaper"><complexType><sequence>
    <element ref="junk_a_%d"/><element ref="junk_b_%d"/>
  </sequence></complexType></element>
  <element name="junk_a_%d" type="xs:string"/>
  <element name="junk_b_%d" type="xs:string"/>
</schema>`, i, i, i, i)
		resp, err := http.Post(ts.URL+"/exchange/today", "text/xml", strings.NewReader(hostile))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		// The exchange itself fails (422) — the attack is the parse.
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("hostile schema %d: status %d, want 422", i, resp.StatusCode)
		}
	}

	if after := p.Schema.Table.Len(); after != before {
		t.Errorf("shared symbol table grew from %d to %d over %d hostile schemas", before, after, n)
	}
	if size := p.Enforcement.Len(); size > 64 {
		t.Errorf("enforcement cache holds %d entries, want <= its 64 bound", size)
	}
}

// TestSoapUnknownParamsDoNotGrowTable: /soap validates and rewrites a
// call's parameters on the peer's own schema, whose table is the one
// TestExchangeHostileSchemasBoundedMemory keeps strangers out of. A
// parameter label no schema declares is looked up, never interned: 200
// calls of Get_Temp, each with a label the peer has never seen, all fail
// and leave the table as the first such call left it.
func TestSoapUnknownParamsDoNotGrowTable(t *testing.T) {
	p := newsPeer(t)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	client := &soap.Client{Endpoint: ts.URL + "/soap", Namespace: "urn:axml:news"}
	call := func(i int) {
		t.Helper()
		params := []*doc.Node{doc.Elem(fmt.Sprintf("junk_%d", i), doc.TextNode("x"))}
		if _, err := client.Call(context.Background(), "Get_Temp", params); err == nil {
			t.Fatalf("call %d with an undeclared parameter succeeded", i)
		}
	}
	// The first call compiles the peer's own schema pair.
	call(0)
	before := p.Schema.Table.Len()
	const n = 200
	for i := 1; i <= n; i++ {
		call(i)
	}
	if after := p.Schema.Table.Len(); after != before {
		t.Errorf("shared symbol table grew from %d to %d over %d calls", before, after, n)
	}
}

// TestExchangeOverlayKeepsCacheHits: the per-request overlay must not defeat
// the enforcement cache — repeated identical exchange schemas still compile
// once and hit thereafter, because equal overlays share a cache namespace.
func TestExchangeOverlayKeepsCacheHits(t *testing.T) {
	p := newsPeer(t)
	p.Enforcement.Purge()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	start := p.Enforcement.Stats()
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/exchange/today?mode=safe", "text/xml", strings.NewReader(identityExchangeXSD))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("exchange %d: status %d", i, resp.StatusCode)
		}
	}
	stats := p.Enforcement.Stats()
	if misses := stats.Misses - start.Misses; misses != 1 {
		t.Errorf("3 identical exchanges compiled %d times, want 1", misses)
	}
	if hits := stats.Hits - start.Hits; hits < 2 {
		t.Errorf("3 identical exchanges hit the cache %d times, want >= 2", hits)
	}
}

// TestHostileXMLBodies: every route that parses XML answers 400 to a body of
// nested start tags just under the default request cap (millions of levels,
// which once overflowed the parser's stack and killed the process) and to a
// document with content after its root element (which was once stored
// truncated), and the peer keeps serving afterwards.
func TestHostileXMLBodies(t *testing.T) {
	p := newsPeer(t)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	nested := func(prefix, tag string) string {
		return prefix + strings.Repeat(tag, (soap.DefaultMaxRequestBytes-len(prefix))/len(tag))
	}
	for _, tc := range []struct{ name, method, path, body string }{
		{"nested PUT /doc", http.MethodPut, "/doc/deep", nested("", "<a>")},
		{"nested /soap", http.MethodPost, "/soap", nested(`<soap:Envelope xmlns:soap="`+soap.EnvelopeNS+`"><soap:Body><Get_Temp>`, "<a>")},
		{"nested /exchange", http.MethodPost, "/exchange/today",
			nested(`<schema root="newspaper"><element name="newspaper"><complexType>`, "<sequence>")},
		{"PUT /doc with a second root", http.MethodPut, "/doc/two", "<memo>a</memo><memo>b</memo>"},
		{"PUT /doc with trailing text", http.MethodPut, "/doc/two", "<memo>a</memo>junk<"},
	} {
		if len(tc.body) > soap.DefaultMaxRequestBytes {
			t.Fatalf("%s: body of %d bytes exceeds the cap", tc.name, len(tc.body))
		}
		resp := doReq(t, tc.method, ts.URL+tc.path, tc.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if resp := doReq(t, http.MethodGet, ts.URL+"/doc/two", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("a rejected PUT stored a document: GET = %d", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/exchange/today?mode=safe", "text/xml", strings.NewReader(identityExchangeXSD))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("exchange after hostile bodies = %d, want 200", resp.StatusCode)
	}
}
