package peer

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/schema"
	"axml/internal/store"
	"axml/internal/xmlio"
	"axml/internal/xsdint"
)

// reportSchema places calls at several depths: Find is a query service over
// the peer's own document that returns stored entry subtrees (which hold
// Temp calls), Echo returns its parameters, Temp returns a value.
const reportSchema = `
root report
elem report = title.section*
elem section = heading.(Find|entry*).(Echo|note*).(Temp|temp)
elem entry = key.(Temp|temp)
elem title = data
elem heading = data
elem key = data
elem note = data
elem temp = data
func Find = key -> entry*
func Echo = note* -> note*
func Temp = key -> temp
`

// flatReportXSD forbids every call: each one is invoked, including the
// Temp calls inside the entries Find returns.
const flatReportXSD = `
<schema root="report">
  <element name="report"><complexType><sequence>
    <element ref="title"/><element ref="section" minOccurs="0" maxOccurs="unbounded"/>
  </sequence></complexType></element>
  <element name="section"><complexType><sequence>
    <element ref="heading"/>
    <element ref="entry" minOccurs="0" maxOccurs="unbounded"/>
    <element ref="note" minOccurs="0" maxOccurs="unbounded"/>
    <element ref="temp"/>
  </sequence></complexType></element>
  <element name="entry"><complexType><sequence>
    <element ref="key"/><element ref="temp"/>
  </sequence></complexType></element>
  <element name="title" type="xs:string"/>
  <element name="heading" type="xs:string"/>
  <element name="key" type="xs:string"/>
  <element name="note" type="xs:string"/>
  <element name="temp" type="xs:string"/>
</schema>`

// keepTempXSD forbids Find and Echo but lets Temp calls stay.
const keepTempXSD = `
<schema root="report">
  <element name="report"><complexType><sequence>
    <element ref="title"/><element ref="section" minOccurs="0" maxOccurs="unbounded"/>
  </sequence></complexType></element>
  <element name="section"><complexType><sequence>
    <element ref="heading"/>
    <element ref="entry" minOccurs="0" maxOccurs="unbounded"/>
    <element ref="note" minOccurs="0" maxOccurs="unbounded"/>
    <choice><function ref="Temp"/><element ref="temp"/></choice>
  </sequence></complexType></element>
  <element name="entry"><complexType><sequence>
    <element ref="key"/><choice><function ref="Temp"/><element ref="temp"/></choice>
  </sequence></complexType></element>
  <element name="title" type="xs:string"/>
  <element name="heading" type="xs:string"/>
  <element name="key" type="xs:string"/>
  <element name="note" type="xs:string"/>
  <element name="temp" type="xs:string"/>
  <function id="Temp"><params><param><element ref="key"/></param></params>
    <return><element ref="temp"/></return></function>
</schema>`

func keyed(label, key string, rest ...*doc.Node) *doc.Node {
	return doc.Elem(label, append([]*doc.Node{doc.Elem("key", doc.TextNode(key))}, rest...)...)
}

func text(label, v string) *doc.Node { return doc.Elem(label, doc.TextNode(v)) }

// reportPeer builds a peer over st holding three documents. In "report",
// calls sit at the section level and inside an entry, and Find selects the
// document's own call-free entry c. In "deep", Find selects report's entry
// b, which holds a Temp call. "plain" holds no call.
func reportPeer(t testing.TB, st store.DocStore) *Peer {
	t.Helper()
	p := New("reports", schema.MustParseText(reportSchema, nil))
	p.Repo = st
	must(t, st.Put("report", doc.Elem("report",
		text("title", "Q3"),
		doc.Elem("section", text("heading", "calls"),
			doc.Call("Find", text("key", "c")),
			doc.Call("Echo", text("note", "n1"), text("note", "n2")),
			doc.Call("Temp", text("key", "x"))),
		doc.Elem("section", text("heading", "data"),
			keyed("entry", "b", doc.Call("Temp", text("key", "y"))),
			keyed("entry", "c", text("temp", "9")),
			text("note", "n3"),
			text("temp", "7")),
	)))
	must(t, st.Put("deep", doc.Elem("report", text("title", "Q4"),
		doc.Elem("section", text("heading", "h"), doc.Call("Find", text("key", "b")), text("note", "n"),
			doc.Call("Temp", text("key", "z"))))))
	must(t, st.Put("plain", doc.Elem("report", text("title", "none"),
		doc.Elem("section", text("heading", "h"), text("note", "n"), text("temp", "1")))))
	must(t, p.DefineQueryService("Find", "key", "entry*", Query{Doc: "report", Path: []string{"section", "entry"}, Where: "key"}))
	must(t, p.Services.Register(opOf(t, p, "Echo", func(params []*doc.Node) ([]*doc.Node, error) {
		return params, nil
	})))
	must(t, p.Services.Register(opOf(t, p, "Temp", func([]*doc.Node) ([]*doc.Node, error) {
		return []*doc.Node{text("temp", "15")}, nil
	})))
	return p
}

// fingerprint records what a reader of the store can see of each document:
// its rendering, and the identity of every node and child list, so that a
// write of equal content is caught too.
func fingerprint(t *testing.T, st store.DocStore) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range st.Names() {
		d, ok := st.Get(name)
		if !ok {
			t.Fatalf("document %q vanished", name)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%x\n", sha256.Sum256([]byte(xmlio.MustString(d))))
		d.Walk(func(n *doc.Node) bool {
			var first **doc.Node
			if len(n.Children) > 0 {
				first = &n.Children[0]
			}
			fmt.Fprintf(&b, "%p %q %q %p/%d\n", n, n.Label, n.Value, first, len(n.Children))
			return true
		})
		out[name] = b.String()
	}
	return out
}

func openBackend(t *testing.T, backend string) store.DocStore {
	t.Helper()
	st, err := store.Open(store.Options{Backend: backend, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestExchangeLeavesStoreUnchanged is the store-immutability oracle: on
// every backend, exchanges in every mode, at parallelism 1 and 4, streamed
// and not, run concurrently over shared stored trees — including a query
// service that returns the document's own subtrees and a service that
// echoes its parameters — and leave every stored document exactly as it
// was, down to node identity. Run it under -race: the shared trees are read
// by concurrent exchanges. Each body also equals the one the clone-based
// path produces: the rewriting of a deep copy, printed in full.
func TestExchangeLeavesStoreUnchanged(t *testing.T) {
	for _, backend := range store.Backends {
		t.Run(backend, func(t *testing.T) {
			p := reportPeer(t, openBackend(t, backend))
			h := p.Handler()
			want := map[string]string{}
			for _, ex := range []struct{ name, xsd string }{
				{"report", flatReportXSD}, {"report", keepTempXSD},
				{"plain", flatReportXSD}, {"plain", keepTempXSD},
				// Find returns entry b with its Temp call, which only a
				// receiver admitting Temp accepts as Find's output.
				{"deep", keepTempXSD},
			} {
				for _, mode := range []core.Mode{core.Safe, core.Possible, core.Mixed} {
					want[exchangeKey(ex.name, ex.xsd, mode)] = clonePathBody(t, p, ex.name, ex.xsd, mode)
				}
			}
			before := fingerprint(t, p.Repo)
			for _, par := range []int{1, 4} {
				for _, streaming := range []bool{false, true} {
					p.Parallelism, p.Streaming = par, streaming
					var wg sync.WaitGroup
					for key, body := range want {
						wg.Add(1)
						go func(key, body string) {
							defer wg.Done()
							name, xsd, mode := parseExchangeKey(key)
							req := httptest.NewRequest(http.MethodPost, "/exchange/"+name+"?mode="+mode.String(), strings.NewReader(xsd))
							w := httptest.NewRecorder()
							h.ServeHTTP(w, req)
							if w.Code != http.StatusOK {
								t.Errorf("parallelism %d streaming %t %s: status %d: %s", par, streaming, key, w.Code, w.Body.String())
							} else if w.Body.String() != body {
								t.Errorf("parallelism %d streaming %t %s: body\n%s\nclone path\n%s", par, streaming, key, w.Body.String(), body)
							}
						}(key, body)
					}
					wg.Wait()
				}
			}
			after := fingerprint(t, p.Repo)
			for name, fp := range before {
				if after[name] != fp {
					t.Errorf("exchanges changed stored document %q:\nbefore\n%s\nafter\n%s", name, fp, after[name])
				}
			}
		})
	}
}

var receivers = map[string]string{"flat": flatReportXSD, "keepTemp": keepTempXSD}

func exchangeKey(name, xsd string, mode core.Mode) string {
	for r, x := range receivers {
		if x == xsd {
			return name + " " + r + " " + mode.String()
		}
	}
	panic("unknown receiver")
}

func parseExchangeKey(key string) (name, xsd string, mode core.Mode) {
	f := strings.Fields(key)
	switch f[2] {
	case "possible":
		mode = core.Possible
	case "mixed":
		mode = core.Mixed
	}
	return f[0], receivers[f[1]], mode
}

// clonePathBody is what /exchange answered before stored trees were
// shared: the rewriting of a deep copy of the stored document, printed in
// full.
func clonePathBody(t *testing.T, p *Peer, name, xsd string, mode core.Mode) string {
	t.Helper()
	exchange, err := xsdint.Parse(strings.NewReader(xsd), xsdint.Options{Table: p.Schema.Table.Overlay()})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := p.Repo.Get(name)
	if !ok {
		t.Fatalf("no document %q", name)
	}
	out, err := p.rewriter(exchange).RewriteDocumentContext(context.Background(), d.Clone(), mode)
	if err != nil {
		t.Fatalf("%s %s: %v", name, mode, err)
	}
	return xmlio.MustString(out)
}

// discardResponse is an http.ResponseWriter that keeps no body, so a
// measurement of the handler's allocations excludes the recorder's.
type discardResponse struct {
	h    http.Header
	code int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(b []byte) (int, error) { return io.Discard.Write(b) }
func (d *discardResponse) WriteHeader(code int)        { d.code = code }

// TestExchangeAllocsIndependentOfCallFreeContent: an exchange's allocations
// follow its calls, not its document. A report of n call-free blocks and
// one call, in its last block, costs the same allocations at n = 1000 as at
// n = 10, within a small constant: the stored tree is shared, not cloned;
// call-free words are decided by membership, without a memo key; and the
// untouched blocks are spliced from the stored rendering. Skipped under
// -race, whose instrumentation changes allocation counts.
func TestExchangeAllocsIndependentOfCallFreeContent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const blockSchema = `
root report
elem report = title.block*
elem block = heading.para*.(Get_Temp|temp)?
elem title = data
elem heading = data
elem para = data
elem temp = data
elem city = data
func Get_Temp = city -> temp
`
	const blockXSD = `
<schema root="report">
  <element name="report"><complexType><sequence>
    <element ref="title"/><element ref="block" minOccurs="0" maxOccurs="unbounded"/>
  </sequence></complexType></element>
  <element name="block"><complexType><sequence>
    <element ref="heading"/><element ref="para" minOccurs="0" maxOccurs="unbounded"/>
    <element ref="temp" minOccurs="0"/>
  </sequence></complexType></element>
  <element name="title" type="xs:string"/>
  <element name="heading" type="xs:string"/>
  <element name="para" type="xs:string"/>
  <element name="temp" type="xs:string"/>
  <element name="city" type="xs:string"/>
</schema>`
	allocs := func(n int) float64 {
		p := New("reports", schema.MustParseText(blockSchema, nil))
		root := doc.Elem("report", text("title", "t"))
		for i := 0; i < n; i++ {
			root.Children = append(root.Children, doc.Elem("block",
				text("heading", fmt.Sprintf("section %d", i)), text("para", "lorem ipsum"), text("para", "dolor")))
		}
		last := root.Children[len(root.Children)-1]
		last.Children = append(last.Children, doc.Call("Get_Temp", text("city", "Paris")))
		must(t, p.Repo.Put("big", root))
		must(t, p.Services.Register(opOf(t, p, "Get_Temp", func([]*doc.Node) ([]*doc.Node, error) {
			return []*doc.Node{text("temp", "15")}, nil
		})))
		h := p.Handler()
		run := func() {
			req := httptest.NewRequest(http.MethodPost, "/exchange/big?mode=safe", strings.NewReader(blockXSD))
			w := &discardResponse{h: http.Header{}, code: http.StatusOK}
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("n = %d: status %d", n, w.code)
			}
		}
		// Warm the compile cache and the derivative table; AllocsPerRun's
		// own warm-up run is the version's second exchange, which builds
		// its rendering.
		run()
		return testing.AllocsPerRun(20, run)
	}
	small, large := allocs(10), allocs(1000)
	t.Logf("warmed /exchange: %.0f allocs at 10 blocks, %.0f at 1000", small, large)
	// The slack covers the root word's token buffer, which grows by
	// doubling: a handful of allocations, not one per block.
	if large > small+16 {
		t.Errorf("warmed /exchange allocates %.0f at 1000 call-free blocks, %.0f at 10: the cost grows with call-free content", large, small)
	}
}
