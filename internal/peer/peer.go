// Package peer implements an Active XML peer (Section 7 of the paper): a
// repository of intensional documents, services defined over the repository,
// SOAP exchange with other peers, and the *Schema Enforcement* module, which
// applies the safe/possible/mixed rewriting algorithms of internal/core to
// every document sent, every parameter list received, and every result
// returned. The repository itself is any internal/store backend.
package peer

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/schema"
	"axml/internal/service"
	"axml/internal/soap"
	"axml/internal/store"
	"axml/internal/telemetry"
	"axml/internal/wsdl"
	"axml/internal/xmlio"
)

// Peer is one Active XML node: repository + services + enforcement.
type Peer struct {
	Name string
	// Schema is the peer's own schema s0: its document types and the WSDL_int
	// signatures of every function its documents embed or its registry
	// provides.
	Schema *schema.Schema
	// Repo stores the peer's intensional documents. Any storage backend
	// works (see internal/store); New installs an in-memory Repository.
	Repo store.DocStore
	// Services are the operations this peer provides.
	Services *service.Registry
	// K is the rewriting depth bound used by enforcement.
	K int
	// Mode is the default rewriting discipline for enforcement (Safe).
	Mode core.Mode
	// Remote performs outbound calls for function nodes this peer does not
	// implement locally (typically a soap.Invoker). May be nil.
	Remote core.Invoker
	// Endpoint is this peer's public SOAP address, advertised in WSDL_int.
	Endpoint string
	// Audit records every invocation made by enforcement rewritings.
	Audit *core.Audit
	// Enforcement caches compiled schema-pair analyses (core.Compile plus
	// the word-level products and markings) across messages: safe rewriting
	// depends only on the schema pair, depth bound and mode — never on the
	// document — so one peer serving heavy traffic pays the analysis once
	// per distinct pair instead of once per request.
	Enforcement *core.CompiledCache
	// MaxRequestBytes caps SOAP request bodies accepted by Handler; 0
	// selects soap.DefaultMaxRequestBytes, negative disables the limit.
	MaxRequestBytes int64
	// Policies discipline every invocation enforcement rewritings perform
	// (per-call timeouts, retries, circuit breaking — see internal/invoke).
	// Policies[0] is outermost. Set before the peer serves traffic: the
	// wrapped invoker is built once on first use so stateful policies
	// (breakers, concurrency limits) persist across messages.
	Policies []core.InvokePolicy
	// Parallelism is the size of the slot pool of enforcement rewritings
	// (core.Rewriter.Parallelism): how many sibling subtrees, Mixed-mode
	// pre-invocations or calls of one Safe round run at once. Values <= 1
	// run every slot inline.
	Parallelism int
	// Telemetry, if set, instruments the whole peer against this registry:
	// enforcement rewritings, the compiled-schema and word-verdict caches,
	// the invocation layer's policy events, and (through Handler) per-HTTP-
	// handler metrics plus the /metrics and /debug/traces endpoints. Set
	// before the peer serves traffic.
	Telemetry *telemetry.Registry
	// Durable, if set, is the durability layer behind Repo (Repo ==
	// Durable or Repo == Durable.Repository): /stats then reports WAL
	// counters and the daemon closes it on shutdown for a final snapshot.
	// Nil means Repo is not WAL-backed (in-memory or disk-sharded).
	Durable *store.DurableRepository
	// Logger, if set, emits structured logs through Handler: one line per
	// request (method, route, status, bytes, duration) and one per notable
	// invocation-policy event (retries, timeouts, breaker transitions).
	// Request lines carry the trace ID when the logger's handler is a
	// telemetry.TraceHandler. Works with or without Telemetry; nil
	// disables logging.
	Logger *slog.Logger
	// Flight, if set, records the slowest and all failed requests — span
	// tree, audit events, per-stage latency — served at /debug/slow.
	Flight *telemetry.Flight
	// Health tracks readiness for the /healthz and /readyz probes; nil
	// reports always-ready (embedded peers without a daemon lifecycle).
	Health *Health
	// Peers is the static federation roster: peer name to base URL. When
	// set, Invoker resolves peer:// service references against it, so a
	// function node can name another axmld peer's operation or document
	// (see core.PeerRouter).
	Peers core.Roster
	// ReadOnly rejects HTTP mutations with 503 + Retry-After: a
	// replication follower serves hot-standby reads while its store is
	// owned by the apply loop, never by clients.
	ReadOnly bool
	// Replica, when set, is mounted under /replica/ — the leader's
	// replication endpoints (see internal/replica.Source.Handler).
	Replica http.Handler
	// ReplicaStats, when set, contributes the "replica" object of /stats
	// (leader or follower replication report).
	ReplicaStats func() any

	invOnce sync.Once
	inv     core.Invoker

	insOnce sync.Once
	ins     *core.Instruments

	evtOnce sync.Once
	evt     core.EventSink
}

// New creates a peer over the given schema.
func New(name string, s *schema.Schema) *Peer {
	return &Peer{
		Name:        name,
		Schema:      s,
		Repo:        store.NewRepository(),
		Services:    service.NewRegistry(),
		K:           2,
		Mode:        core.Safe,
		Audit:       &core.Audit{},
		Enforcement: core.NewCompiledCache(core.DefaultCompiledCacheSize),
	}
}

// Invoker resolves function nodes: locally registered operations first, then
// the remote transport; with a federation roster configured, peer://
// service references are resolved first of all (core.PeerRouter over the
// soap transports). The result is not policy-wrapped; enforcement
// rewritings go through the cached policy chain instead (see Policies).
func (p *Peer) Invoker() core.Invoker {
	var inv core.Invoker = p.Services
	if p.Remote != nil {
		inv = service.Chain{p.Services, p.Remote}
	}
	if len(p.Peers) > 0 {
		inv = &core.PeerRouter{Roster: p.Peers, Next: inv, Fetch: soap.CallExchange}
	}
	return inv
}

// policyInvoker returns the peer's invoker wrapped in its policy chain,
// built once so breaker and limiter state spans messages.
func (p *Peer) policyInvoker() core.Invoker {
	p.invOnce.Do(func() {
		p.inv = core.ApplyPolicies(p.Invoker(), p.Policies)
	})
	return p.inv
}

// instruments lazily wires the peer's telemetry: the enforcement cache's
// scrape-time series plus the pipeline instruments shared by every
// enforcement rewriter. Built once; nil when Telemetry is unset.
func (p *Peer) instruments() *core.Instruments {
	p.insOnce.Do(func() {
		if p.Telemetry == nil {
			return
		}
		p.ins = p.Enforcement.Instrument(p.Telemetry)
		// The shared symbol table is long-lived peer state: its size must be
		// observable so unbounded growth (e.g. a leak of untrusted labels
		// past the request-scoped overlays) is visible, not silent.
		table := p.Schema.Table
		p.Telemetry.GaugeFunc("axml_symbol_table_symbols", func() float64 {
			return float64(table.Len())
		})
	})
	return p.ins
}

// rewriter builds an enforcement rewriter against a target schema (which
// must share the peer schema's symbol table). The expensive schema-pair
// analysis comes from the Enforcement cache; only the cheap per-message
// rewriter state is fresh.
func (p *Peer) rewriter(target *schema.Schema) *core.Rewriter {
	return p.rewriterFor(p.Enforcement.Get(p.Schema, target))
}

// rewriterFor builds an enforcement rewriter over a compiled pair. K and
// Instruments are assigned after construction: the config would map depth
// 0 to DefaultDepth, and its Telemetry field would build fresh Instruments
// and write them into c, which the cache shares.
func (p *Peer) rewriterFor(c *core.Compiled) *core.Rewriter {
	ins := p.instruments()
	rw := core.NewRewriterForConfig(c, core.RewriterConfig{
		Invoker:     p.policyInvoker(),
		Audit:       p.Audit,
		Events:      p.eventSink(),
		Parallelism: p.Parallelism,
	})
	rw.K = p.K
	rw.Instruments = ins
	return rw
}

// eventSink lazily builds the peer's policy-event observer: a sink that
// narrates notable invocation events (retries, exhaustion, timeouts,
// breaker transitions, degradations) through the structured logger,
// stamped with the rewrite/trace ID. Nil when no Logger is configured,
// so unlogged peers pay nothing.
func (p *Peer) eventSink() core.EventSink {
	p.evtOnce.Do(func() {
		if p.Logger != nil {
			p.evt = &eventLogSink{log: p.Logger}
		}
	})
	return p.evt
}

// eventLogSink bridges core.InvokeEvent onto the structured logger.
type eventLogSink struct {
	log *slog.Logger
}

// RecordEvent logs under context.Background and stamps the event's own
// rewrite ID as trace_id: events carry no context of their own.
func (s *eventLogSink) RecordEvent(e core.InvokeEvent) {
	var lv slog.Level
	switch e.Kind {
	case core.EventAttempt:
		return // one per call: far too chatty for a log stream
	case core.EventRetryWait, core.EventBreakerHalfOpen, core.EventBreakerClose:
		lv = slog.LevelInfo
	default:
		// exhausted, timeout, fault, degraded, breaker open/reject
		lv = slog.LevelWarn
	}
	attrs := make([]slog.Attr, 0, 7)
	attrs = append(attrs, slog.String("kind", e.Kind), slog.String("func", e.Func))
	if e.Endpoint != "" {
		attrs = append(attrs, slog.String("endpoint", e.Endpoint))
	}
	if e.Attempt > 0 {
		attrs = append(attrs, slog.Int("attempt", e.Attempt))
	}
	if e.Wait > 0 {
		attrs = append(attrs, slog.Duration("wait", e.Wait))
	}
	if e.Rewrite != "" {
		attrs = append(attrs, slog.String("trace_id", e.Rewrite))
	}
	if e.Err != "" {
		attrs = append(attrs, slog.String("error", e.Err))
	}
	s.log.LogAttrs(context.Background(), lv, "invoke event", attrs...)
}

// SendDocument is the paper's Figure 1 scenario: materialize the named
// repository document just enough to conform to the receiver's exchange
// schema, and return the result. The repository copy is left untouched —
// the same document can be sent to differently-abled receivers. The result
// shares the stored document's function-free subtrees and must be treated
// as read-only. The enforcement rewriting and every service call it
// schedules abort once ctx is done.
func (p *Peer) SendDocument(ctx context.Context, name string, exchange *schema.Schema, mode core.Mode) (*doc.Node, error) {
	d, ok := p.Repo.Get(name)
	if !ok {
		return nil, p.noDocument(name)
	}
	return p.send(ctx, name, d.SpineCopy(), p.compiled(ctx, exchange), nil, mode)
}

// compiled returns the compiled pair of the peer's schema and an exchange
// schema from the enforcement cache, timed as the compile stage.
func (p *Peer) compiled(ctx context.Context, exchange *schema.Schema) *core.Compiled {
	st := telemetry.StagesFrom(ctx)
	var t0 time.Time
	if st != nil {
		t0 = time.Now()
	}
	c := p.Enforcement.Get(p.Schema, exchange)
	if st != nil {
		st.Add(telemetry.StageCompile, time.Since(t0))
	}
	return c
}

// noDocument is the error of a send naming a document the store lacks.
func (p *Peer) noDocument(name string) error {
	return fmt.Errorf("peer %s: no document %q: %w", p.Name, name, store.ErrNotFound)
}

// send rewrites d, a spine copy of a stored tree (doc.Node.SpineCopy),
// under the compiled pair c: rewriting writes only into the copied spine
// and the deep-copied function subtrees, so the stored tree, shared with
// every other reader, stays untouched. from is the stored version's
// rendering, or nil when it has none yet (core.Rewriter.RewriteSpineCopy).
func (p *Peer) send(ctx context.Context, name string, d *doc.Node, c *core.Compiled, from *xmlio.Rendering, mode core.Mode) (*doc.Node, error) {
	st := telemetry.StagesFrom(ctx)
	var t0 time.Time
	if st != nil {
		t0 = time.Now()
	}
	rw := p.rewriterFor(c)
	if st != nil {
		st.Add(telemetry.StageCompile, time.Since(t0))
		t0 = time.Now()
	}
	out, err := rw.RewriteSpineCopy(ctx, d, from, mode)
	if st != nil {
		st.Set(telemetry.StageRewrite, time.Since(t0))
	}
	if err != nil {
		return nil, fmt.Errorf("peer %s: sending %q: %w", p.Name, name, err)
	}
	return out, nil
}

// Materialize rewrites a repository document in place against the peer's own
// schema — the "active" enrichment feature — under ctx.
func (p *Peer) Materialize(ctx context.Context, name string, mode core.Mode) error {
	return p.Repo.Update(name, func(d *doc.Node) (*doc.Node, error) {
		// Update hands fn a clone, so the rewriter may consume d in place.
		rw := p.rewriter(p.Schema)
		return rw.RewriteDocument(ctx, d, mode)
	})
}

// EnforceIn implements the receive-side of the Schema Enforcement module:
// incoming parameters must be (or be rewritten into) an input instance of
// the operation's declared signature. Handler wires the request context
// through it, so a disconnected client stops the rewriting.
func (p *Peer) EnforceIn(ctx context.Context, method string, params []*doc.Node) ([]*doc.Node, error) {
	typ, isData, ok := p.inputType(method)
	if !ok {
		return nil, fmt.Errorf("peer %s: operation %q is not declared", p.Name, method)
	}
	sctx := schema.Context{Target: p.Schema, Sigs: p.Schema} // on the stack: a passing check allocates nothing
	if err := sctx.IsInputInstance(method, params); err == nil {
		return params, nil // (i) conforms as-is
	}
	if isData {
		return nil, fmt.Errorf("peer %s: %q expects atomic data parameters", p.Name, method)
	}
	rw := p.rewriter(p.Schema)
	out, err := rw.RewriteForest(ctx, params, typ, p.Mode) // (ii) try to rewrite
	if err != nil {
		return nil, fmt.Errorf("peer %s: parameters of %q: %w", p.Name, method, err) // (iii) report
	}
	return out, nil
}

// EnforceOut is the send-side: results must conform to the declared output
// type before leaving the peer.
func (p *Peer) EnforceOut(ctx context.Context, method string, result []*doc.Node) ([]*doc.Node, error) {
	def := p.Schema.Funcs[method]
	if def == nil {
		return nil, fmt.Errorf("peer %s: operation %q is not declared", p.Name, method)
	}
	sctx := schema.Context{Target: p.Schema, Sigs: p.Schema}
	if err := sctx.IsOutputInstance(method, result); err == nil {
		return result, nil
	}
	if def.Out == nil {
		return nil, fmt.Errorf("peer %s: %q must return atomic data", p.Name, method)
	}
	rw := p.rewriter(p.Schema)
	out, err := rw.RewriteForest(ctx, result, def.Out, p.Mode)
	if err != nil {
		return nil, fmt.Errorf("peer %s: result of %q: %w", p.Name, method, err)
	}
	return out, nil
}

func (p *Peer) inputType(method string) (r *regex.Regex, isData, ok bool) {
	def := p.Schema.Funcs[method]
	if def == nil {
		return nil, false, false
	}
	if def.In == nil {
		return nil, true, true
	}
	return def.In, false, true
}

// Call invokes an operation on a remote peer with client-side enforcement:
// the parameters are first rewritten into the remote's declared input type
// (materializing whatever the remote should not or cannot evaluate), and
// the result is validated against the declared output type.
// The context governs both the local enforcement rewriting and the remote
// round trip.
func (p *Peer) Call(ctx context.Context, desc *wsdl.Description, method string, params []*doc.Node, mode core.Mode) ([]*doc.Node, error) {
	def := desc.Schema.Funcs[method]
	if def == nil {
		return nil, fmt.Errorf("peer %s: %q is not an operation of service %q", p.Name, method, desc.Name)
	}
	if desc.Schema.Table != p.Schema.Table {
		return nil, fmt.Errorf("peer %s: remote description must be parsed with this peer's symbol table", p.Name)
	}
	if def.In != nil {
		rw := p.rewriter(desc.Schema)
		out, err := rw.RewriteForest(ctx, params, def.In, mode)
		if err != nil {
			return nil, fmt.Errorf("peer %s: parameters for %s.%s: %w", p.Name, desc.Name, method, err)
		}
		params = out
	}
	endpoint := def.Endpoint
	if endpoint == "" {
		endpoint = desc.Endpoint
	}
	client := soap.Client{Endpoint: endpoint, Namespace: desc.TargetNamespace}
	result, err := client.Call(ctx, method, params)
	if err != nil {
		return nil, err
	}
	sctx := schema.NewContext(desc.Schema, p.Schema)
	if err := sctx.IsOutputInstance(method, result); err != nil {
		return nil, fmt.Errorf("peer %s: %s.%s returned non-conforming data: %w", p.Name, desc.Name, method, err)
	}
	return result, nil
}

// Description builds this peer's WSDL_int description.
func (p *Peer) Description() *wsdl.Description {
	return &wsdl.Description{
		Name:            p.Name,
		TargetNamespace: "urn:axml:" + p.Name,
		Endpoint:        p.Endpoint,
		Schema:          p.Schema,
	}
}

// Query is a declarative service body: it selects subtrees of a repository
// document by a label path, optionally filtered on the text value of a
// child element matched against the call's first (atomic) parameter.
type Query struct {
	// Doc names the repository document.
	Doc string
	// Path walks child labels from the root (the root's own label is not
	// part of the path). Empty selects the root itself.
	Path []string
	// Where, when set, keeps only subtrees having a child with this label
	// whose text equals the first parameter.
	Where string
}

// DefineQueryService declares and registers a service whose implementation
// evaluates a query over the repository — the paper's "services defined
// declaratively as queries over the repository documents". The selected
// subtrees are returned as copies: a service result belongs to the caller,
// which may rewrite it in place, while the stored tree is shared.
func (p *Peer) DefineQueryService(name, in, out string, q Query) error {
	if p.Schema.Funcs[name] == nil {
		if err := p.Schema.SetFunc(name, in, out); err != nil {
			return err
		}
	}
	def := p.Schema.Funcs[name]
	handler := func(params []*doc.Node) ([]*doc.Node, error) {
		root, ok := p.Repo.Get(q.Doc)
		if !ok {
			return nil, fmt.Errorf("peer %s: query service %q: no document %q: %w", p.Name, name, q.Doc, store.ErrNotFound)
		}
		nodes := []*doc.Node{root}
		for _, label := range q.Path {
			var next []*doc.Node
			for _, n := range nodes {
				for _, ch := range n.Children {
					if ch.Kind != doc.Text && ch.Label == label {
						next = append(next, ch)
					}
				}
			}
			nodes = next
		}
		if q.Where != "" {
			want, ok := firstText(params)
			if !ok {
				// Without an atomic parameter there is nothing to compare
				// against; matching "" would silently select exactly the
				// rows *lacking* the Where child.
				return nil, fmt.Errorf("peer %s: query service %q: Where %q filter requires an atomic parameter", p.Name, name, q.Where)
			}
			var filtered []*doc.Node
			for _, n := range nodes {
				if got, ok := childText(n, q.Where); ok && got == want {
					filtered = append(filtered, n)
				}
			}
			nodes = filtered
		}
		return doc.CloneForest(nodes), nil
	}
	return p.Services.Register(&service.Operation{Name: name, Def: def, Handler: handler})
}

// firstText extracts the first atomic parameter of a call: a bare text node
// or an element wrapping a single text node. ok is false when no parameter
// is atomic — distinct from an atomic parameter whose value is "".
func firstText(params []*doc.Node) (value string, ok bool) {
	for _, n := range params {
		if n.Kind == doc.Text {
			return n.Value, true
		}
		if len(n.Children) == 1 && n.Children[0].Kind == doc.Text {
			return n.Children[0].Value, true
		}
	}
	return "", false
}

// childText extracts the text value of n's first child labeled label. ok is
// false when no such child exists or when it has structured content — such
// rows never match a Where filter, even one comparing against "".
func childText(n *doc.Node, label string) (value string, ok bool) {
	for _, ch := range n.Children {
		if ch.Kind == doc.Text || ch.Label != label {
			continue
		}
		switch {
		case len(ch.Children) == 0:
			return "", true // present but empty: matches want == ""
		case len(ch.Children) == 1 && ch.Children[0].Kind == doc.Text:
			return ch.Children[0].Value, true
		}
		return "", false
	}
	return "", false
}
