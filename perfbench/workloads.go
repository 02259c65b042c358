package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"axml/internal/core"
	"axml/internal/schema"
	"axml/internal/store"
	"axml/internal/wal"
	"axml/internal/xmlio"
)

// workloadDef is one named workload: its open-loop rate and how to build its
// inputs from a seed.
type workloadDef struct {
	name string
	// rate is the open-loop arrival rate (requests per second over all
	// connections), about a quarter of the closed-loop capacity measured
	// when the benchmark was introduced: open-loop requests pay goroutine
	// wake-ups that back-to-back requests do not, so at half the capacity
	// the per-connection queues already build up. The rate is fixed so both
	// sides of a comparison see the same offered load.
	rate  float64
	build func(rng *rand.Rand, c *corpus, dir string) (*instance, error)
}

var workloads = []*workloadDef{
	{name: "exchange-remote", rate: 250, build: buildExchangeRemote},
	{name: "exchange-cold", rate: 45, build: buildExchangeCold},
	{name: "exchange-large", rate: 60, build: buildExchangeLarge},
	{name: "doc-churn", rate: 250, build: buildDocChurn},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// instance is a workload's generated inputs, ready to boot clusters against.
type instance struct {
	runner  workloadRunner
	spec    clusterSpec // tracer and WAL directory are filled in per boot
	wal     bool
	exch    *exchangeWL
	churn   *churnWL
	warmOps []op
}

// --- exchange workloads ---------------------------------------------------

// exchangeWL issues POST /exchange/{doc} with a receiver schema as the body
// and checks every response (see exchangeOracle).
type exchangeWL struct {
	corpus *corpus
	docs   []*genDoc
	recvs  []*receiver
	oracle *exchangeOracle

	exchanges     atomic.Int64 // completed exchanges
	expectedCalls atomic.Int64 // forbidden calls in their source documents
	minBytes      atomic.Int64 // smallest response body
	bodyBytes     atomic.Int64 // receiver schema bytes sent
}

func (w *exchangeWL) next(rng *rand.Rand, _ *conn) op {
	return op{kind: opExchange, doc: rng.Intn(len(w.docs)), recv: rng.Intn(len(w.recvs))}
}

func (w *exchangeWL) do(c *conn, base string, o op) (time.Time, int, error) {
	d, r := w.docs[o.doc], w.recvs[o.recv]
	status, hdr, err := c.request(http.MethodPost, base+"/exchange/"+d.name, r.xsd)
	if err != nil {
		return hdr, 0, err
	}
	if status != http.StatusOK {
		return hdr, 0, fmt.Errorf("exchange %s with receiver %08b: status %d: %.200s", d.name, r.forbidden, status, c.buf.Bytes())
	}
	body := c.buf.Bytes()
	if err := w.oracle.check(o.doc*len(w.recvs)+o.recv, body); err != nil {
		return hdr, 0, fmt.Errorf("exchange %s with receiver %08b: %w", d.name, r.forbidden, err)
	}
	w.exchanges.Add(1)
	w.expectedCalls.Add(int64(d.forbiddenCalls(r.forbidden)))
	w.bodyBytes.Add(int64(len(r.xsd)))
	for {
		m := w.minBytes.Load()
		if m != 0 && m <= int64(len(body)) || w.minBytes.CompareAndSwap(m, int64(len(body))) {
			break
		}
	}
	return hdr, len(body), nil
}

// exchangeOracle checks every exchange response. Services are deterministic,
// so one (document, receiver) pair always yields the same bytes: the first
// response of each pair is kept and fully validated after the run, and every
// later response must hash to the same value.
type exchangeOracle struct {
	seed    maphash.Seed
	mu      sync.Mutex
	seen    map[int]*pairRecord
	pending []*pairRecord
}

type pairRecord struct {
	key   int
	hash  uint64
	count int
	body  []byte // first response, until validated
}

func newExchangeOracle() *exchangeOracle {
	return &exchangeOracle{seed: maphash.MakeSeed(), seen: make(map[int]*pairRecord)}
}

func (o *exchangeOracle) check(key int, body []byte) error {
	h := maphash.Bytes(o.seed, body)
	o.mu.Lock()
	defer o.mu.Unlock()
	rec := o.seen[key]
	if rec == nil {
		rec = &pairRecord{key: key, hash: h, body: append([]byte(nil), body...)}
		o.seen[key] = rec
		o.pending = append(o.pending, rec)
	} else if rec.hash != h {
		return fmt.Errorf("response differs from the first response for the same document and receiver")
	}
	rec.count++
	return nil
}

// validate checks the kept first responses: each must be an instance of its
// receiver schema and hold no call of a function the receiver forbids. It
// returns how many responses (counting repeats of a wrong pair) are wrong.
func (w *exchangeWL) validate() (wrong int, errs []string) {
	o := w.oracle
	o.mu.Lock()
	pending := o.pending
	o.pending = nil
	o.mu.Unlock()
	for _, rec := range pending {
		r := w.recvs[rec.key%len(w.recvs)]
		d, err := xmlio.Parse(bytes.NewReader(rec.body))
		if err == nil {
			err = schema.NewContext(r.schema, w.corpus.sender).Validate(d)
		}
		if err == nil {
			if n := countForbidden(d, r.forbidden); n > 0 {
				err = fmt.Errorf("%d forbidden calls left in the response", n)
			}
		}
		if err != nil {
			wrong += rec.count
			if len(errs) < 5 {
				errs = append(errs, fmt.Sprintf("exchange %s with receiver %08b: %v", w.docs[rec.key/len(w.recvs)].name, r.forbidden, err))
			}
		}
		rec.body = nil
	}
	return wrong, errs
}

func (w *exchangeWL) warmOps(n int, rng *rand.Rand) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opExchange, doc: rng.Intn(len(w.docs)), recv: i % len(w.recvs)}
	}
	return ops
}

// smallDocs generates the population shared by exchange-remote and
// exchange-cold: 32 documents from 2 to 8 KiB, log-spaced.
func smallDocs(rng *rand.Rand, c *corpus) ([]*genDoc, error) {
	docs := make([]*genDoc, 32)
	for i := range docs {
		d, err := c.makeDoc(rng, fmt.Sprintf("doc-%02d", i), docShape{
			bytes:         int(2048 * math.Pow(4, float64(i)/float64(len(docs)-1))),
			callsPerBlock: 0.3, valuesPerBlock: 0.3,
			paraWords: [2]int{4, 12}, tailCall: -1,
		})
		if err != nil {
			return nil, err
		}
		docs[i] = d
	}
	return docs, nil
}

func newExchangeInstance(c *corpus, docs []*genDoc, masks []uint, dir string, remote bool, warm int, rng *rand.Rand) (*instance, error) {
	w := &exchangeWL{corpus: c, docs: docs, oracle: newExchangeOracle()}
	// Every receiver must admit a safe rewriting of every sender document,
	// or some exchanges would be refused instead of materialized.
	cache := core.NewCompiledCache(len(masks))
	for _, m := range masks {
		r, err := c.newReceiver(m)
		if err != nil {
			return nil, err
		}
		report, err := core.SchemaSafeRewrite(cache.Get(c.sender, r.schema), "", peerK)
		if err != nil {
			return nil, err
		}
		if !report.Safe() {
			return nil, fmt.Errorf("receiver %08b admits no safe rewriting: %v", m, report.Failures())
		}
		w.recvs = append(w.recvs, r)
	}
	popDir := filepath.Join(dir, "population")
	if err := writePopulation(popDir, docNames(docs), docBodies(docs)); err != nil {
		return nil, err
	}
	return &instance{
		runner:  w,
		spec:    clusterSpec{corpus: c, remote: remote, popDir: popDir},
		exch:    w,
		warmOps: w.warmOps(warm, rng),
	}, nil
}

func buildExchangeRemote(rng *rand.Rand, c *corpus, dir string) (*instance, error) {
	docs, err := smallDocs(rng, c)
	if err != nil {
		return nil, err
	}
	return newExchangeInstance(c, docs, subsetsOfSizes(rng, []int{1, 1, 2, 2, 2, 2, 3, 3}), dir, true, 64, rng)
}

func buildExchangeCold(rng *rand.Rand, c *corpus, dir string) (*instance, error) {
	docs, err := smallDocs(rng, c)
	if err != nil {
		return nil, err
	}
	return newExchangeInstance(c, docs, allSubsets(), dir, false, 16, rng)
}

func buildExchangeLarge(rng *rand.Rand, c *corpus, dir string) (*instance, error) {
	docs := make([]*genDoc, 3)
	for i := range docs {
		d, err := c.makeDoc(rng, fmt.Sprintf("big-%d", i), docShape{
			bytes: 1150 << 10, paraWords: [2]int{60, 120}, tailCall: 0,
		})
		if err != nil {
			return nil, err
		}
		if len(d.body) < 1100<<10 {
			return nil, fmt.Errorf("large document %s is only %d bytes", d.name, len(d.body))
		}
		docs[i] = d
	}
	return newExchangeInstance(c, docs, []uint{1}, dir, false, 6, rng)
}

// --- doc-churn --------------------------------------------------------------

// churnWL mutates and reads documents on the WAL store. Key i belongs to
// connection i mod conns; each connection tracks the body it last wrote to
// each of its keys, so every GET checks read-your-writes.
type churnWL struct {
	bodies    [][]byte
	names     []string
	conns     int
	userBytes atomic.Int64 // PUT body bytes acknowledged
	writes    atomic.Int64 // PUTs and DELETEs acknowledged
}

type churnState struct {
	keys    []int       // owned keys
	current map[int]int // key -> body index it holds; absent = deleted
}

func (w *churnWL) newState(connID int) *churnState {
	st := &churnState{current: make(map[int]int)}
	for k := connID; k < len(w.names); k += w.conns {
		st.keys = append(st.keys, k)
		st.current[k] = k // the population holds body k under key k
	}
	return st
}

func (w *churnWL) next(rng *rand.Rand, c *conn) op {
	st := c.state.(*churnState)
	x := rng.Float64()
	key := st.keys[rng.Intn(len(st.keys))]
	_, present := st.current[key]
	switch {
	case x < 0.45 || !present:
		b := rng.Intn(len(w.bodies))
		st.current[key] = b
		return op{kind: opPut, doc: key, body: b}
	case x < 0.55:
		delete(st.current, key)
		return op{kind: opDelete, doc: key}
	default:
		return op{kind: opGet, doc: key, body: st.current[key]}
	}
}

func (w *churnWL) do(c *conn, base string, o op) (time.Time, int, error) {
	url := base + "/doc/" + w.names[o.doc]
	var (
		status int
		hdr    time.Time
		err    error
	)
	switch o.kind {
	case opPut:
		status, hdr, err = c.request(http.MethodPut, url, w.bodies[o.body])
	case opDelete:
		status, hdr, err = c.request(http.MethodDelete, url, nil)
	default:
		status, hdr, err = c.request(http.MethodGet, url, nil)
	}
	if err != nil {
		return hdr, 0, err
	}
	switch o.kind {
	case opGet:
		if status != http.StatusOK {
			return hdr, 0, fmt.Errorf("GET %s: status %d", w.names[o.doc], status)
		}
		if !bytes.Equal(c.buf.Bytes(), w.bodies[o.body]) {
			return hdr, 0, fmt.Errorf("GET %s: body differs from the connection's last write", w.names[o.doc])
		}
	default:
		if status != http.StatusNoContent {
			return hdr, 0, fmt.Errorf("%v %s: status %d: %.200s", o.kind, w.names[o.doc], status, c.buf.Bytes())
		}
		w.writes.Add(1)
		if o.kind == opPut {
			w.userBytes.Add(int64(len(w.bodies[o.body])))
		}
	}
	return hdr, c.buf.Len(), nil
}

// verifyDurable reopens the closed WAL directory and requires the state the
// connections expect: every acknowledged PUT present with its bytes, every
// acknowledged DELETE absent.
func (w *churnWL) verifyDurable(dir string, conns []*conn) (wrong int, errs []string) {
	st, err := store.Open(store.Options{Backend: store.BackendWAL, Dir: dir, Sync: wal.SyncAlways, SnapshotEvery: walSnapshotEvery})
	if err != nil {
		return 1, []string{fmt.Sprintf("reopening the WAL: %v", err)}
	}
	defer st.Close()
	for _, c := range conns {
		cs := c.state.(*churnState)
		for _, k := range cs.keys {
			b, want := cs.current[k]
			d, have := st.Get(w.names[k])
			var msg string
			switch {
			case want && !have:
				msg = "acknowledged write lost"
			case !want && have:
				msg = "acknowledged delete lost"
			case want:
				var buf bytes.Buffer
				if err := xmlio.Write(&buf, d); err != nil || !bytes.Equal(buf.Bytes(), w.bodies[b]) {
					msg = "recovered document differs from the acknowledged write"
				}
			}
			if msg != "" {
				wrong++
				if len(errs) < 5 {
					errs = append(errs, fmt.Sprintf("%s: %s", w.names[k], msg))
				}
			}
		}
	}
	return wrong, errs
}

func buildDocChurn(rng *rand.Rand, c *corpus, dir string) (*instance, error) {
	const n = 512
	w := &churnWL{conns: numConns}
	for i := 0; i < n; i++ {
		d, err := c.makeDoc(rng, fmt.Sprintf("c%03d", i), docShape{
			bytes:         int(1024 * math.Pow(64, float64(i)/(n-1))),
			callsPerBlock: 0.3, valuesPerBlock: 0.3,
			paraWords: [2]int{4, 12}, tailCall: -1,
		})
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, d.body)
		w.names = append(w.names, d.name)
	}
	popDir := filepath.Join(dir, "population")
	if err := writePopulation(popDir, w.names, w.bodies); err != nil {
		return nil, err
	}
	warm := make([]op, 64)
	for i := range warm {
		k := rng.Intn(n)
		warm[i] = op{kind: opGet, doc: k, body: k}
	}
	return &instance{
		runner:  w,
		spec:    clusterSpec{corpus: c, popDir: popDir},
		wal:     true,
		churn:   w,
		warmOps: warm,
	}, nil
}

// --- helpers ----------------------------------------------------------------

func docNames(docs []*genDoc) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.name
	}
	return out
}

func docBodies(docs []*genDoc) [][]byte {
	out := make([][]byte, len(docs))
	for i, d := range docs {
		out[i] = d.body
	}
	return out
}

// writePopulation writes the documents as <name>.xml files: the directory a
// daemon loads with -docs.
func writePopulation(dir string, names []string, bodies [][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name+".xml"), bodies[i], 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (k opKind) String() string {
	return [...]string{"POST", "GET", "PUT", "DELETE"}[k]
}
