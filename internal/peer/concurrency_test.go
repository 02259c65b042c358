package peer

import (
	"context"
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
)

// TestRepositoryConcurrentAccess hammers the repository from many
// goroutines; run with -race.
func TestRepositoryConcurrentAccess(t *testing.T) {
	r := store.NewRepository()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("doc%d", i%4)
			for j := 0; j < 100; j++ {
				r.Put(name, doc.Elem("a", doc.TextNode(fmt.Sprint(j))))
				if d, ok := r.Get(name); ok && d.Label != "a" {
					t.Errorf("corrupted read: %v", d)
					return
				}
				_ = r.Names()
				_ = r.Len()
				if j%10 == 0 {
					_ = r.Update(name, func(n *doc.Node) (*doc.Node, error) { return n, nil })
				}
			}
		}(i)
	}
	wg.Wait()
	if r.Len() == 0 {
		t.Error("repository empty after concurrent writes")
	}
}

// TestConcurrentEnforcement runs many SendDocument calls in parallel over
// one peer, sharing the audit; run with -race.
func TestConcurrentEnforcement(t *testing.T) {
	p := newsPeer(t)
	exch, err := schema.ParseTextShared(schema.NewShared(p.Schema.Table), strings.Replace(newspaperSchema,
		"elem newspaper = title.date.(Get_Temp|temp).(TimeOut|exhibit*)",
		"elem newspaper = title.date.temp.(TimeOut|exhibit*)", 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				out, err := p.SendDocument(context.Background(), "today", exch, core.Safe)
				if err != nil {
					t.Errorf("concurrent send failed: %v", err)
					return
				}
				if out.ChildLabels()[2] != "temp" {
					t.Error("concurrent send produced wrong document")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := p.Audit.Len(); got != 8*20 {
		t.Errorf("audit = %d calls, want 160", got)
	}
	// The tentpole guarantee: 160 exchanges over one schema pair compile the
	// pair analysis exactly once.
	if st := p.Enforcement.Stats(); st.Misses != 1 {
		t.Errorf("core.Compile ran %d times for one schema pair, want 1 (%s)", st.Misses, st)
	}
	if ws := p.Enforcement.WordStats(); ws.Hits == 0 {
		t.Errorf("word-verdict memo never hit across 160 identical exchanges (%s)", ws)
	}
}

// TestConcurrentEnforcementMixedTargets interleaves SendDocument and
// EnforceIn over distinct schema pairs; the cache must compile once per
// distinct pair, not per message. Run with -race.
func TestConcurrentEnforcementMixedTargets(t *testing.T) {
	p := newsPeer(t)
	exchText := func(mid string) string {
		return strings.Replace(newspaperSchema,
			"elem newspaper = title.date.(Get_Temp|temp).(TimeOut|exhibit*)",
			"elem newspaper = title.date."+mid+".(TimeOut|exhibit*)", 1)
	}
	exchA, err := schema.ParseTextShared(schema.NewShared(p.Schema.Table), exchText("temp"), nil)
	if err != nil {
		t.Fatal(err)
	}
	exchB, err := schema.ParseTextShared(schema.NewShared(p.Schema.Table), exchText("(Get_Temp|temp)"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 9; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 15; j++ {
				switch i % 3 {
				case 0:
					if _, err := p.SendDocument(context.Background(), "today", exchA, core.Safe); err != nil {
						t.Errorf("send A: %v", err)
						return
					}
				case 1:
					if _, err := p.SendDocument(context.Background(), "today", exchB, core.Safe); err != nil {
						t.Errorf("send B: %v", err)
						return
					}
				default:
					params := []*doc.Node{doc.Elem("city", doc.TextNode("Paris"))}
					if _, err := p.EnforceIn(context.Background(), "Get_Temp", params); err != nil {
						t.Errorf("enforce in: %v", err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	// Distinct pairs touched: (p.Schema, exchA), (p.Schema, exchB). EnforceIn
	// conforms as-is here, so it never reaches the rewriter.
	if st := p.Enforcement.Stats(); st.Misses != 2 {
		t.Errorf("core.Compile ran %d times for 2 distinct schema pairs (%s)", st.Misses, st)
	}
}

// TestConcurrentHTTPExchange hits /exchange from many clients at once; every
// request parses a fresh exchange schema into the peer's shared symbol
// table, exercising concurrent interning. Run with -race.
func TestConcurrentHTTPExchange(t *testing.T) {
	p := newsPeer(t)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	// Each client uses a distinct extra element name so fresh symbols are
	// actually interned concurrently.
	xsdFor := func(i int) string {
		return fmt.Sprintf(`
<schema root="newspaper">
  <element name="newspaper"><complexType><sequence>
    <element ref="title"/><element ref="date"/><element ref="temp"/>
    <choice><function ref="TimeOut"/><element ref="exhibit" minOccurs="0" maxOccurs="unbounded"/></choice>
    <element ref="extra%d" minOccurs="0"/>
  </sequence></complexType></element>
  <element name="title" type="xs:string"/>
  <element name="date" type="xs:string"/>
  <element name="temp" type="xs:string"/>
  <element name="city" type="xs:string"/>
  <element name="extra%d" type="xs:string"/>
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
</schema>`, i, i)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Post(ts.URL+"/exchange/today?mode=safe", "text/xml",
					strings.NewReader(xsdFor(i*100+j)))
				if err != nil {
					t.Errorf("exchange: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
