package peer

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"axml/internal/doc"
	"axml/internal/schema"
)

// BenchmarkExchangeHandler drives the full /exchange path in-process — body
// cap, overlay schema parse, cached enforcement, rewriting with local service
// calls, XML serialization — the serving hot path the loadgen harness hits
// over the network. Run with -benchmem; the allocation budget is enforced by
// TestExchangeAllocBudget.
func BenchmarkExchangeHandler(b *testing.B) {
	p := newsPeer(b)
	h := p.Handler()
	body := []byte(identityExchangeXSD)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/exchange/today?mode=safe", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

// largeSchema and largeExchangeXSD pair a report of many headed blocks,
// closed by one Get_Temp call, with a receiver that forbids the call.
const largeSchema = `
root report
elem report = title.block*.(Get_Temp|temp)
elem block = heading.para*
elem title = data
elem heading = data
elem para = data
elem temp = data
elem city = data
func Get_Temp = city -> temp
`

const largeExchangeXSD = `
<schema root="report">
  <element name="report"><complexType><sequence>
    <element ref="title"/><element ref="block" minOccurs="0" maxOccurs="unbounded"/><element ref="temp"/>
  </sequence></complexType></element>
  <element name="block"><complexType><sequence>
    <element ref="heading"/><element ref="para" minOccurs="0" maxOccurs="unbounded"/>
  </sequence></complexType></element>
  <element name="title" type="xs:string"/>
  <element name="heading" type="xs:string"/>
  <element name="para" type="xs:string"/>
  <element name="temp" type="xs:string"/>
  <element name="city" type="xs:string"/>
  <function id="Get_Temp"><params><param><element ref="city"/></param></params>
    <return><element ref="temp"/></return></function>
</schema>`

// BenchmarkExchangeLarge drives /exchange on a ~1 MiB document whose only
// call is its last child: the cost of one exchange beyond its single
// invocation is store clone, static check and serialization. Run with
// -benchmem.
func BenchmarkExchangeLarge(b *testing.B) {
	s := schema.MustParseText(largeSchema, nil)
	p := New("reports", s)
	para := strings.Repeat("lorem ipsum dolor sit amet ", 11)
	root := doc.Elem("report", doc.Elem("title", doc.TextNode("Annual report")))
	for i := 0; i < 1100; i++ {
		root.Children = append(root.Children, doc.Elem("block",
			doc.Elem("heading", doc.TextNode(fmt.Sprintf("section %d", i))),
			doc.Elem("para", doc.TextNode(para)),
			doc.Elem("para", doc.TextNode(para)),
			doc.Elem("para", doc.TextNode(para))))
	}
	root.Children = append(root.Children, doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))))
	must(b, p.Repo.Put("big", root))
	must(b, p.Services.Register(opOf(b, p, "Get_Temp", func([]*doc.Node) ([]*doc.Node, error) {
		return []*doc.Node{doc.Elem("temp", doc.TextNode("15"))}, nil
	})))
	h := p.Handler()
	body := []byte(largeExchangeXSD)
	run := func() int {
		req := httptest.NewRequest(http.MethodPost, "/exchange/big?mode=safe", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		return w.Body.Len()
	}
	b.SetBytes(int64(run()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkDocGetHandler measures the read path: repository lookup plus XML
// serialization, no rewriting.
func BenchmarkDocGetHandler(b *testing.B) {
	p := newsPeer(b)
	h := p.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/doc/today", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}

// TestExchangeAllocBudget is the allocation regression gate for the serving
// hot path: a warmed /exchange request must stay within budget. The budget
// has headroom over the measured figure (see EXPERIMENTS.md E-L1) so noise
// does not flake CI, while a reintroduced per-node or per-request allocation
// regression (the kind this PR removed) trips it. Skipped under -race, whose
// instrumentation changes allocation counts.
func TestExchangeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	p := newsPeer(t)
	h := p.Handler()
	body := []byte(identityExchangeXSD)
	run := func() {
		req := httptest.NewRequest(http.MethodPost, "/exchange/today?mode=safe", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	run() // warm the enforcement cache; the budget is for the steady state
	// Measured 318 allocs/op warmed (E-L1: two-allocation clones, error
	// paths built only on error, proven call-free subtrees skipped); ~40%
	// headroom.
	const budget = 445
	if got := testing.AllocsPerRun(50, run); got > budget {
		t.Errorf("warmed /exchange = %.0f allocs/op, budget %d", got, budget)
	}
}
