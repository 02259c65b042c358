package peer

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/invoke"
	"axml/internal/schema"
	"axml/internal/service"
	"axml/internal/soap"
	"axml/internal/telemetry"
)

// roundSchema is a report of headed blocks, each closed by a call of one
// of four functions or by the temp it returns; roundExchangeXSD is the
// receiver that forbids all four, so every call is invoked.
const roundSchema = `
root report
elem report = title.block*
elem block = heading.(F0|F1|F2|F3|temp)
elem title = data
elem heading = data
elem temp = data
elem city = data
func F0 = city -> temp
func F1 = city -> temp
func F2 = city -> temp
func F3 = city -> temp
`

const roundExchangeXSD = `
<schema root="report">
  <element name="report"><complexType><sequence>
    <element ref="title"/><element ref="block" minOccurs="0" maxOccurs="unbounded"/>
  </sequence></complexType></element>
  <element name="block"><complexType><sequence>
    <element ref="heading"/><element ref="temp"/>
  </sequence></complexType></element>
  <element name="title" type="xs:string"/>
  <element name="heading" type="xs:string"/>
  <element name="temp" type="xs:string"/>
  <element name="city" type="xs:string"/>
</schema>`

// roundOrder is the function each of the fixture's four blocks calls, in
// document order.
var roundOrder = []string{"F2", "F0", "F3", "F1"}

// roundFixture is peer A holding a report of four forbidden calls in four
// blocks, and peer B serving the four functions over loopback SOAP.
type roundFixture struct {
	a *Peer
	// posts counts the requests B's /soap received.
	posts atomic.Int64
	mu    sync.Mutex
	// served lists the calls B ran, in order, as function:city.
	served []string
	// delay is how long B takes to serve a call, in nanoseconds.
	delay atomic.Int64
	stop  func()
}

// newRoundFixture builds the fixture; reg, when not nil, instruments A,
// and tune, when not nil, configures B before it serves.
func newRoundFixture(t testing.TB, reg *telemetry.Registry, tune func(b *Peer)) *roundFixture {
	t.Helper()
	f := &roundFixture{}
	b := New("b", schema.MustParseText(roundSchema, nil))
	if tune != nil {
		tune(b)
	}
	for _, fn := range roundOrder {
		fn := fn
		must(t, b.Services.Register(&service.Operation{Name: fn, Def: b.Schema.Funcs[fn],
			Handler: func(params []*doc.Node) ([]*doc.Node, error) {
				city := firstTextOf(params)
				time.Sleep(time.Duration(f.delay.Load()))
				f.mu.Lock()
				f.served = append(f.served, fn+":"+city)
				f.mu.Unlock()
				return []*doc.Node{doc.Elem("temp", doc.TextNode(fn+"@"+city))}, nil
			}}))
	}
	hb := b.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/soap" {
			f.posts.Add(1)
		}
		hb.ServeHTTP(w, r)
	}))
	f.stop = ts.Close
	a := New("a", schema.MustParseText(roundSchema, nil))
	a.Telemetry = reg
	report := doc.Elem("report", doc.Elem("title", doc.TextNode("Four calls")))
	for i, fn := range roundOrder {
		report.Children = append(report.Children, doc.Elem("block",
			doc.Elem("heading", doc.TextNode("block "+strconv.Itoa(i))),
			doc.Call(fn, doc.Elem("city", doc.TextNode("c"+strconv.Itoa(i))))))
	}
	must(t, a.Repo.Put("four", report))
	a.Remote = &soap.Invoker{Default: ts.URL + "/soap", Namespace: "urn:axml:b"}
	f.a = a
	return f
}

// exchange drives A's POST /exchange of the report and returns the body.
func (f *roundFixture) exchange(t testing.TB, h http.Handler) string {
	req := httptest.NewRequest(http.MethodPost, "/exchange/four?mode=safe", strings.NewReader(roundExchangeXSD))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	return w.Body.String()
}

// expectSequential checks what every exchange of the report must show,
// however its calls travel: B ran the four calls in document order, A's
// audit lists them so, each with its one result node at depth 1, and the
// response holds each call's temp.
func (f *roundFixture) expectSequential(t *testing.T, body string) {
	t.Helper()
	var want []string
	for i, fn := range roundOrder {
		want = append(want, fmt.Sprintf("%s:c%d", fn, i))
		if temp := fmt.Sprintf("<temp>%s@c%d</temp>", fn, i); !strings.Contains(body, temp) {
			t.Errorf("response lacks %s:\n%s", temp, body)
		}
	}
	f.mu.Lock()
	served := strings.Join(f.served, " ")
	f.mu.Unlock()
	if served != strings.Join(want, " ") {
		t.Errorf("B ran %s, want %s", served, strings.Join(want, " "))
	}
	var audited []string
	for _, c := range f.a.Audit.Calls() {
		audited = append(audited, fmt.Sprintf("%s/d%d/n%d", c.Func, c.Depth, c.ResultNodes))
	}
	if got, want := strings.Join(audited, " "), "F2/d1/n1 F0/d1/n1 F3/d1/n1 F1/d1/n1"; got != want {
		t.Errorf("A audited %s, want %s", got, want)
	}
}

func firstTextOf(forest []*doc.Node) string {
	for _, n := range forest {
		if n.Kind == doc.Text {
			return n.Value
		}
		if v := firstTextOf(n.Children); v != "" {
			return v
		}
	}
	return ""
}

// scrapeValue reads an unlabelled or fully labelled series from a
// registry's exposition.
func scrapeValue(t *testing.T, reg *telemetry.Registry, series string) float64 {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// TestExchangeRemoteRoundTrips: an exchange whose four forbidden calls sit
// in four blocks and go to one remote peer makes one SOAP request. A's
// audit lists the calls in document order, B runs them in that order, and
// the exchange makes the decisions and word-memo lookups it made when
// every call was a request of its own: 4 invokes, no keep, and 8 lookups
// (the static check's 4 and the executor's 4).
func TestExchangeRemoteRoundTrips(t *testing.T) {
	reg := telemetry.NewRegistry()
	f := newRoundFixture(t, reg, nil)
	defer f.stop()
	h := f.a.Handler()
	lookups := func() float64 {
		return scrapeValue(t, reg, "axml_word_cache_hits_total") + scrapeValue(t, reg, "axml_word_cache_misses_total")
	}
	invokes := func() float64 {
		return scrapeValue(t, reg, `axml_word_decisions_total{decision="invoke"}`)
	}
	keeps := func() float64 {
		return scrapeValue(t, reg, `axml_word_decisions_total{decision="keep"}`)
	}
	for round := 0; round < 2; round++ {
		f.posts.Store(0)
		f.mu.Lock()
		f.served = nil
		f.mu.Unlock()
		f.a.Audit.Reset()
		l0, i0, k0 := lookups(), invokes(), keeps()
		body := f.exchange(t, h)
		if n := f.posts.Load(); n != 1 {
			t.Errorf("exchange %d made %d SOAP requests, want 1", round, n)
		}
		f.expectSequential(t, body)
		if d := invokes() - i0; d != 4 {
			t.Errorf("exchange %d: %v invoke decisions, want 4", round, d)
		}
		if d := keeps() - k0; d != 0 {
			t.Errorf("exchange %d: %v keep decisions, want 0", round, d)
		}
		if d := lookups() - l0; d != 8 {
			t.Errorf("exchange %d: %v word-memo lookups, want 8", round, d)
		}
	}
}

// TestExchangeRemoteRoundAllocBudget is TestExchangeRemoteAllocBudget for
// the four-call fixture: one exchange, one SOAP request carrying four
// calls. Skipped under -race.
func TestExchangeRemoteRoundAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	f := newRoundFixture(t, nil, nil)
	defer f.stop()
	h := f.a.Handler()
	run := func() { f.exchange(t, h) }
	run() // warm both peers' caches and the connection pool
	// Measured 279 allocs/op warmed, 311 before replies decoded into
	// per-parse text slabs and rounds spliced in place, 632 when each call
	// was a request of its own (EXPERIMENTS.md E-C8); ~40% headroom.
	const budget = 391
	got := testing.AllocsPerRun(50, run)
	t.Logf("warmed four-call remote /exchange = %.0f allocs/op", got)
	if got > budget {
		t.Errorf("warmed four-call remote /exchange = %.0f allocs/op, budget %d", got, budget)
	}
}

// BenchmarkExchangeRemoteRound drives A's /exchange of the four-call
// report, its calls served by B over loopback SOAP: the exchange the
// first round sends as one request. Its allocation budget is enforced by
// TestExchangeRemoteRoundAllocBudget.
func BenchmarkExchangeRemoteRound(b *testing.B) {
	f := newRoundFixture(b, nil, nil)
	defer f.stop()
	h := f.a.Handler()
	f.exchange(b, h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.exchange(b, h)
	}
}

// TestExchangeRoundLeavesLocalCalls: a function A serves itself never
// rides to B. Behind A's registry, which now serves an operation, the
// chain hands B's transport no round, so each of the three remote calls
// is a request of its own, and A's audit still lists all four in document
// order.
func TestExchangeRoundLeavesLocalCalls(t *testing.T) {
	f := newRoundFixture(t, nil, nil)
	defer f.stop()
	must(t, f.a.Services.Register(&service.Operation{Name: "F0", Def: f.a.Schema.Funcs["F0"],
		Handler: func(params []*doc.Node) ([]*doc.Node, error) {
			return []*doc.Node{doc.Elem("temp", doc.TextNode("local@"+firstTextOf(params)))}, nil
		}}))
	body := f.exchange(t, f.a.Handler())
	if n := f.posts.Load(); n != 3 {
		t.Errorf("%d SOAP requests, want 3", n)
	}
	if got, want := strings.Join(f.served, " "), "F2:c0 F3:c2 F1:c3"; got != want {
		t.Errorf("B ran %s, want %s", got, want)
	}
	if !strings.Contains(body, "<temp>local@c1</temp>") {
		t.Errorf("F0 not served locally:\n%s", body)
	}
	var audited []string
	for _, c := range f.a.Audit.Calls() {
		audited = append(audited, c.Func)
	}
	if got := strings.Join(audited, " "); got != "F2 F0 F3 F1" {
		t.Errorf("A audited %s, want F2 F0 F3 F1", got)
	}
}

// TestExchangeRemoteParallelSendsEachCall: at degree 4 the four blocks
// rewrite concurrently and no round rides, so B serves the four calls as
// four concurrent requests, as it did before rounds; the audit still lists
// the calls in document order.
func TestExchangeRemoteParallelSendsEachCall(t *testing.T) {
	f := newRoundFixture(t, nil, nil)
	defer f.stop()
	f.a.Parallelism = 4
	h := f.a.Handler()
	for round := 0; round < 3; round++ {
		f.posts.Store(0)
		f.a.Audit.Reset()
		f.exchange(t, h)
		if n := f.posts.Load(); n != 4 {
			t.Errorf("exchange %d made %d SOAP requests, want 4", round, n)
		}
		var audited []string
		for _, c := range f.a.Audit.Calls() {
			audited = append(audited, c.Func)
		}
		if got := strings.Join(audited, " "); got != "F2 F0 F3 F1" {
			t.Errorf("exchange %d: A audited %s, want F2 F0 F3 F1", round, got)
		}
	}
}

// TestExchangeRoundUnderCallTimeout: a per-call timeout bounds one call's
// service, not a share's. B takes 60ms a call and A bounds each call at
// 150ms, so a share of the four calls would overrun the first call's
// timeout; each call goes alone instead, and the exchange succeeds as it
// does without a round.
func TestExchangeRoundUnderCallTimeout(t *testing.T) {
	f := newRoundFixture(t, nil, nil)
	defer f.stop()
	f.delay.Store(int64(60 * time.Millisecond))
	f.a.Policies = []core.InvokePolicy{invoke.WithTimeout(150 * time.Millisecond)}
	body := f.exchange(t, f.a.Handler())
	if n := f.posts.Load(); n != 4 {
		t.Errorf("%d SOAP requests, want one per call", n)
	}
	f.expectSequential(t, body)
}

// TestExchangeRoundOverServerBodyLimit: B admits a request of one call but
// not of two. B refuses the share whole (413) before running any call; the
// sending call goes again alone, the other three go alone, and the
// exchange succeeds as it does without a round.
func TestExchangeRoundOverServerBodyLimit(t *testing.T) {
	var one bytes.Buffer
	must(t, soap.WriteRequest(&one, "F2", "urn:axml:b", []*doc.Node{doc.Elem("city", doc.TextNode("c0"))}))
	f := newRoundFixture(t, nil, func(b *Peer) { b.MaxRequestBytes = int64(one.Len()) + 10 })
	defer f.stop()
	body := f.exchange(t, f.a.Handler())
	if n := f.posts.Load(); n != 5 {
		t.Errorf("%d SOAP requests, want 5: the refused share, then one per call", n)
	}
	f.expectSequential(t, body)
}
