package peer

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/schema"
	"axml/internal/telemetry"
	"axml/internal/workload"
	"axml/internal/xsdint"
)

// post sends one POST /exchange and returns its status and body.
func post(h http.Handler, name, body string) (int, string) {
	req := httptest.NewRequest(http.MethodPost, "/exchange/"+name+"?mode=safe", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.String()
}

// TestExchangeReceiverHitSkipsParse: a byte-identical receiver is answered
// from the receiver key, with no parse and no compile, and the same body;
// one that differs by one byte misses the key (its equal schema still
// hits by fingerprint, compiling nothing).
func TestExchangeReceiverHitSkipsParse(t *testing.T) {
	p := newsPeer(t)
	h := p.Handler()
	code, first := post(h, "today", identityExchangeXSD)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, first)
	}
	if _, again := post(h, "today", identityExchangeXSD); again != first {
		t.Errorf("repeated exchange body differs:\n%s\nfirst\n%s", again, first)
	}
	if st, hits := p.Enforcement.Stats(), p.Enforcement.ReceiverHits(); st.Misses != 1 || hits != 1 {
		t.Fatalf("stats %v, receiver hits %d; want one compile and one receiver hit", st, hits)
	}
	if code, body := post(h, "today", identityExchangeXSD+" "); code != http.StatusOK || body != first {
		t.Fatalf("one byte longer receiver: status %d", code)
	}
	if st, hits := p.Enforcement.Stats(), p.Enforcement.ReceiverHits(); st.Misses != 1 || hits != 1 {
		t.Errorf("stats %v, receiver hits %d after a one-byte variant; want no new compile and no receiver hit", st, hits)
	}
}

// TestExchangeReceiverSeesQueryService: DefineQueryService between two
// identical exchanges declares a function on the peer's live schema; the
// second exchange must compile the pair again and invoke the new function.
func TestExchangeReceiverSeesQueryService(t *testing.T) {
	p := newsPeer(t)
	h := p.Handler()
	if code, body := post(h, "today", identityExchangeXSD); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	must(t, p.Repo.Put("guide", doc.Elem("guide",
		doc.Elem("exhibit", doc.Elem("title", doc.TextNode("Monet")), doc.Elem("date", doc.TextNode("1874"))))))
	must(t, p.DefineQueryService("All_Exhibits", "data", "exhibit*", Query{Doc: "guide", Path: []string{"exhibit"}}))
	must(t, p.Repo.Put("today", doc.Elem("newspaper",
		doc.Elem("title", doc.TextNode("The Sun")),
		doc.Elem("date", doc.TextNode("04/10/2002")),
		doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))),
		doc.Call("All_Exhibits"))))
	code, body := post(h, "today", identityExchangeXSD)
	if code != http.StatusOK || !strings.Contains(body, "Monet") {
		t.Fatalf("status %d, body\n%s\nwant the query service's exhibit", code, body)
	}
	if st := p.Enforcement.Stats(); st.Misses != 2 {
		t.Errorf("stats %v; want the pair compiled again after the declaration", st)
	}
}

// TestExchangeReceiverErrorsNotFiled: a malformed body gets 400 and an
// over-cap body 413, every time: neither is filed under the receiver key.
func TestExchangeReceiverErrorsNotFiled(t *testing.T) {
	p := newsPeer(t)
	p.MaxRequestBytes = int64(len(identityExchangeXSD) - 1)
	h := p.Handler()
	malformed := "<schema root=\"newspaper\"><element"
	for i := 0; i < 2; i++ {
		if code, _ := post(h, "today", malformed); code != http.StatusBadRequest {
			t.Errorf("malformed body %d: status %d, want 400", i+1, code)
		}
		if code, _ := post(h, "today", identityExchangeXSD); code != http.StatusRequestEntityTooLarge {
			t.Errorf("over-cap body %d: status %d, want 413", i+1, code)
		}
	}
	for _, body := range []string{malformed, identityExchangeXSD, identityExchangeXSD[:p.MaxRequestBytes]} {
		if p.Enforcement.LookupReceiver(p.Schema, []byte(body)) != nil {
			t.Errorf("a refused body was filed: %.40q", body)
		}
	}
	if st := p.Enforcement.Stats(); st.Hits+st.Misses != 0 || st.Size != 0 {
		t.Errorf("refused bodies reached the cache: %v", st)
	}
}

// TestExchangeReceiverConcurrentFirstMiss: identical first requests race
// the first miss; the pair compiles once and every response is the same.
// Run it under -race.
func TestExchangeReceiverConcurrentFirstMiss(t *testing.T) {
	p := newsPeer(t)
	h := p.Handler()
	const requests = 12
	bodies := make([]string, requests)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			code, body := post(h, "today", identityExchangeXSD)
			if code != http.StatusOK {
				t.Errorf("status %d: %s", code, body)
			}
			bodies[i] = body
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range bodies {
		if bodies[i] != bodies[0] {
			t.Fatalf("response %d differs", i)
		}
	}
	if st := p.Enforcement.Stats(); st.Misses != 1 || st.Hits != requests-1 {
		t.Errorf("stats %v; want one compile and %d hits", st, requests-1)
	}
}

// reseeded is a simulated service chain reset before every exchange, so
// an exchange's service outputs depend on its own calls alone.
type reseeded struct {
	s    *schema.Schema
	seed int64
	mu   sync.Mutex
	cur  *workload.SimInvoker
}

func (r *reseeded) reset() {
	r.mu.Lock()
	r.cur = workload.NewSimInvoker(r.s, rand.New(rand.NewSource(r.seed)))
	r.mu.Unlock()
}

func (r *reseeded) Invoke(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
	r.mu.Lock()
	cur := r.cur
	r.mu.Unlock()
	return cur.Invoke(ctx, call)
}

// TestQuickExchangeVerifiedOnce: over generated sender, receiver and
// document triples, each stored version is exchanged one to four times,
// so its later exchanges skip the check of what an earlier one verified,
// and every body and every error equals what a fresh peer, exchanging the
// version once, answers. Half the triples store a second version after
// the first, which must be checked in full.
func TestQuickExchangeVerifiedOnce(t *testing.T) {
	modes := []core.Mode{core.Safe, core.Possible, core.Mixed}
	type answer struct {
		code int
		body string
	}
	exchange := func(p *Peer, sim *reseeded, recv string, mode core.Mode) answer {
		sim.reset()
		req := httptest.NewRequest(http.MethodPost, "/exchange/d?mode="+mode.String(), strings.NewReader(recv))
		w := httptest.NewRecorder()
		p.Handler().ServeHTTP(w, req)
		return answer{w.Code, w.Body.String()}
	}
	peerFor := func(s *schema.Schema, seed int64, d *doc.Node) (*Peer, *reseeded) {
		p := New("gen", s)
		p.Telemetry = telemetry.NewRegistry()
		sim := &reseeded{s: s, seed: seed}
		p.Remote = sim
		must(t, p.Repo.Put("d", d))
		return p, sim
	}
	verified, outcomes := 0.0, map[int]int{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sender := workload.RandomSchema(rng, workload.Options{Labels: 4, Funcs: 3})
		g := workload.NewGenerator(sender, rng)
		g.MaxDepth = 5
		var versions []*doc.Node
		for v := 0; v < 1+rng.Intn(2); v++ {
			d, err := g.Root()
			if err != nil {
				t.Fatal(err)
			}
			versions = append(versions, d)
		}
		// The receiver is the sender's own schema, which every version
		// already satisfies, or an unrelated one over the same names.
		recvSchema := sender
		if rng.Intn(2) == 0 {
			recvSchema = workload.RandomSchema(rng, workload.Options{Labels: 4, Funcs: 3})
		}
		recv, err := xsdint.String(recvSchema, nil)
		if err != nil {
			t.Fatal(err)
		}
		mode := modes[rng.Intn(len(modes))]
		p, sim := peerFor(sender, seed, versions[0])
		for vi, d := range versions {
			if vi > 0 {
				must(t, p.Repo.Put("d", d))
			}
			fresh, freshSim := peerFor(sender, seed, d)
			want := exchange(fresh, freshSim, recv, mode)
			outcomes[want.code]++
			for k := 1 + rng.Intn(4); k > 0; k-- {
				if got := exchange(p, sim, recv, mode); got != want {
					t.Logf("seed %d version %d mode %s: got %d\n%s\nfresh peer %d\n%s", seed, vi, mode, got.code, got.body, want.code, want.body)
					return false
				}
			}
		}
		if p.Enforcement.Stats().Size != 1 {
			t.Logf("seed %d: %d compiled pairs for one receiver", seed, p.Enforcement.Stats().Size)
			return false
		}
		n, _ := p.Telemetry.Value("axml_static_checks_verified_total")
		verified += n
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
	if outcomes[http.StatusOK] == 0 || outcomes[http.StatusUnprocessableEntity] == 0 || verified == 0 {
		t.Errorf("outcomes %v, %v verified checks: the generator should exercise successes, refusals and skipped checks", outcomes, verified)
	}
}

// TestExchangeReplacedVersionCheckedInFull: once a version is verified,
// storing another one under its name gets the new version a full check:
// a broken subtree the new version shares with its spine copy is found.
func TestExchangeReplacedVersionCheckedInFull(t *testing.T) {
	p := newsPeer(t)
	p.Telemetry = telemetry.NewRegistry()
	h := p.Handler()
	for i := 0; i < 3; i++ {
		if code, body := post(h, "today", identityExchangeXSD); code != http.StatusOK {
			t.Fatalf("exchange %d: status %d: %s", i+1, code, body)
		}
	}
	if n, _ := p.Telemetry.Value("axml_static_checks_verified_total"); n != 1 {
		t.Fatalf("%v verified checks after three exchanges of one version; want 1", n)
	}
	must(t, p.Repo.Put("today", doc.Elem("newspaper",
		doc.Elem("title", doc.TextNode("The Sun"), doc.Elem("date")),
		doc.Elem("date", doc.TextNode("04/10/2002")),
		doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))),
		doc.Call("TimeOut", doc.TextNode("exhibits")))))
	for i := 0; i < 3; i++ {
		if code, _ := post(h, "today", identityExchangeXSD); code != http.StatusUnprocessableEntity {
			t.Errorf("exchange %d of the replaced version: status %d, want 422", i+1, code)
		}
	}
}
