// Package axml is a Go implementation of intensional XML data exchange, as
// described in Milo, Abiteboul, Amann, Benjelloun and Dang Ngoc, "Exchanging
// Intensional XML Data" (SIGMOD 2003) — the schema-enforcement core of the
// Active XML system.
//
// An intensional document is an XML tree in which some subtrees are
// *function nodes*: embedded calls to Web services that can be materialized
// (invoked and replaced by their results) either by the sender or by the
// receiver of the document. Exchange schemas — DTD-like or XML Schema_int —
// state which parts must arrive materialized and which may stay intensional.
// This package decides and executes the rewritings:
//
//   - safe rewriting (Section 4 of the paper): succeed for *every* possible
//     service answer, decided before any call is made;
//   - possible rewriting (Section 5): succeed for *some* answer, executed
//     with backtracking;
//   - mixed rewriting: speculatively invoke cheap, side-effect-free calls,
//     then require safety;
//   - schema compatibility (Section 6): will *every* document of one schema
//     safely rewrite into another?
//
// # Quick start
//
//	sender := axml.MustParseSchemaText(`
//	    root newspaper
//	    elem newspaper = title.(Get_Temp|temp)
//	    elem title = data
//	    elem temp = data
//	    elem city = data
//	    func Get_Temp = city -> temp
//	`)
//	target := axml.MustParseSchemaTextShared(sender, `
//	    root newspaper
//	    elem newspaper = title.temp
//	    elem title = data
//	    elem temp = data
//	    elem city = data
//	    func Get_Temp = city -> temp
//	`)
//	rw := axml.NewRewriterWithConfig(sender, target, axml.RewriterConfig{Invoker: myInvoker})
//	materialized, err := rw.RewriteDocument(ctx, docRoot, axml.Safe)
//
// Every operation has one entry point, and those that can call a service
// take the context first: rewriting (Rewriter.RewriteDocument,
// RewriteForest), sending a stored document (Peer.SendDocument), the
// receive- and send-side checks (Peer.EnforceIn, EnforceOut) and remote
// calls (Peer.Call). An Invoker takes the context too; ContextInvokerFunc
// adapts a plain function.
//
// The subpackage structure mirrors the system inventory of DESIGN.md; this
// package re-exports the types a downstream application needs, so that the
// internal packages can evolve freely.
package axml

import (
	"io"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/invoke"
	"axml/internal/peer"
	"axml/internal/regex"
	"axml/internal/schema"
	"axml/internal/service"
	"axml/internal/soap"
	"axml/internal/store"
	"axml/internal/telemetry"
	"axml/internal/wal"
	"axml/internal/wsdl"
	"axml/internal/xmlio"
	"axml/internal/xsdint"
)

// Core data-model types.
type (
	// Node is one node of an intensional document tree.
	Node = doc.Node
	// ServiceRef locates the Web service behind a function node.
	ServiceRef = doc.ServiceRef
	// Schema is an intensional document schema (labels, functions,
	// function patterns).
	Schema = schema.Schema
	// Predicate guards function patterns.
	Predicate = schema.Predicate
	// Rewriter drives safe/possible/mixed rewriting of documents.
	Rewriter = core.Rewriter
	// Mode selects the rewriting discipline.
	Mode = core.Mode
	// Invoker performs service calls for the rewriter. Invoke takes the
	// rewriting's context; cancelling it aborts the call.
	Invoker = core.Invoker
	// ContextInvokerFunc adapts a context-aware function to Invoker.
	ContextInvokerFunc = core.ContextInvokerFunc
	// Audit records the invocation trail of a rewriting, including policy
	// events (attempts, retries, breaker transitions, degradations). It
	// retains the most recent 4096 calls and 4096 events; its counts and
	// total cost cover everything recorded.
	Audit = core.Audit
	// RewriterConfig configures NewRewriterWithConfig: depth bound, invoker,
	// invocation policies, converters, audit sink, validation switches and
	// the size of the executor's slot pool (Parallelism; 1 runs every slot
	// inline, and no degree changes the result).
	RewriterConfig = core.RewriterConfig
	// InvokePolicy wraps an Invoker with cross-cutting behavior (timeout,
	// retry, circuit breaking, concurrency limiting, fault injection).
	InvokePolicy = core.InvokePolicy
	// InvokeEvent is one policy-layer event recorded in the Audit.
	InvokeEvent = core.InvokeEvent
	// RetryPolicy parameterizes WithRetry.
	RetryPolicy = invoke.Retry
	// BreakerPolicy parameterizes WithBreaker.
	BreakerPolicy = invoke.Breaker
	// PolicyError is the error policies report on exhaustion/rejection; it is
	// classified transient, so Possible-mode rewritings degrade instead of
	// aborting.
	PolicyError = invoke.PolicyError
	// FaultInjector is a deterministic fault-injecting Invoker for tests.
	FaultInjector = invoke.FaultInjector
	// Fault is one scheduled fault for a FaultInjector.
	Fault = invoke.Fault
	// FaultKind classifies injected faults.
	FaultKind = invoke.FaultKind
	// SchemaReport is the outcome of a schema-compatibility check.
	SchemaReport = core.SchemaRewriteReport
	// Converter restructures non-conforming service results (the paper's
	// "automatic converters" extension).
	Converter = core.Converter
	// Converters is an ordered converter chain for Rewriter.Converters.
	Converters = core.Converters
	// InlineConverter adapts a function to Converter.
	InlineConverter = core.ConverterFunc
	// ServiceDescription is a WSDL_int service description.
	ServiceDescription = wsdl.Description
)

// Rewriting modes.
const (
	// Safe refuses unless success is guaranteed for every service answer.
	Safe = core.Safe
	// Possible proceeds when success is reachable, backtracking on unlucky
	// answers (side effects are not undone; consult the Audit).
	Possible = core.Possible
	// Mixed pre-invokes side-effect-free zero-cost calls, then requires
	// safety on what remains.
	Mixed = core.Mixed
)

// Node kinds.
const (
	// KindElement is an ordinary element node.
	KindElement = doc.Element
	// KindText is a text leaf.
	KindText = doc.Text
	// KindFunc is a function node (embedded service call).
	KindFunc = doc.Func
)

// Document node constructors.
var (
	// Elem builds an element node.
	Elem = doc.Elem
	// Text builds a text leaf.
	Text = doc.TextNode
	// Call builds a function node.
	Call = doc.Call
	// CallAt builds a function node pinned to an endpoint.
	CallAt = doc.CallAt
)

// ParseSchemaText parses the compact text DSL (see internal/schema for the
// grammar). Predicates for function patterns are resolved through preds and
// may be nil.
func ParseSchemaText(src string, preds map[string]Predicate) (*Schema, error) {
	return schema.ParseText(src, preds)
}

// MustParseSchemaText is ParseSchemaText panicking on error.
func MustParseSchemaText(src string) *Schema {
	return schema.MustParseText(src, nil)
}

// ParseSchemaTextShared parses a schema sharing the symbol table of base —
// required when two schemas are analyzed together (sender and target).
func ParseSchemaTextShared(base *Schema, src string, preds map[string]Predicate) (*Schema, error) {
	return schema.ParseTextShared(schema.NewShared(base.Table), src, preds)
}

// MustParseSchemaTextShared is ParseSchemaTextShared panicking on error.
func MustParseSchemaTextShared(base *Schema, src string) *Schema {
	s, err := ParseSchemaTextShared(base, src, nil)
	if err != nil {
		panic(err)
	}
	return s
}

// ParseXSD parses an XML Schema_int document. base may be nil; when given,
// the result shares its symbol table.
func ParseXSD(r io.Reader, base *Schema, preds map[string]Predicate) (*Schema, error) {
	opt := xsdint.Options{Predicates: preds}
	if base != nil {
		opt.Table = base.Table
	}
	return xsdint.Parse(r, opt)
}

// WriteXSD renders a schema as XML Schema_int. predNames maps pattern names
// to the predicate names to emit.
func WriteXSD(w io.Writer, s *Schema, predNames map[string]string) error {
	return xsdint.Write(w, s, predNames)
}

// ParseDocument reads an intensional XML document (int:fun syntax).
func ParseDocument(r io.Reader) (*Node, error) { return xmlio.Parse(r) }

// ParseDocumentString parses a document from a string.
func ParseDocumentString(src string) (*Node, error) { return xmlio.ParseString(src) }

// WriteDocument serializes a document with the int:fun syntax.
func WriteDocument(w io.Writer, n *Node) error { return xmlio.Write(w, n) }

// DocumentString serializes a document to a string, panicking on the
// (cannot-happen) serialization error.
func DocumentString(n *Node) string { return xmlio.MustString(n) }

// Validate checks that the document is an instance of the schema
// (Definition 3 of the paper). sigs optionally supplies signatures for
// functions the schema itself does not declare; it may be nil.
func Validate(s *Schema, sigs *Schema, n *Node) error {
	return schema.NewContext(s, sigs).Validate(n)
}

// NewRewriterWithConfig builds a rewriter from the sender schema (declaring
// the signatures of every function documents may embed) into the exchange
// schema. Both must share a symbol table (use ParseSchemaTextShared /
// ParseXSD with base). Zero values of cfg select the documented defaults:
// depth 2 (set Rewriter.K after construction for depth 0), a fresh Audit,
// and no Invoker, which leaves the rewriter check-only. Policies listed in
// cfg wrap cfg.Invoker outermost-first.
func NewRewriterWithConfig(sender, target *Schema, cfg RewriterConfig) *Rewriter {
	return core.NewRewriterWithConfig(sender, target, cfg)
}

// ApplyPolicies wraps inv with the given policies, first outermost.
func ApplyPolicies(inv Invoker, policies []InvokePolicy) Invoker {
	return core.ApplyPolicies(inv, policies)
}

// Invocation policies. Conventional chain order, outermost first:
// concurrency limit, breaker, retry, timeout — so each retry attempt gets its
// own timeout and the breaker counts post-retry outcomes.
var (
	// WithTimeout bounds each Invoke with a deadline.
	WithTimeout = invoke.WithTimeout
	// WithRetry retries transient failures with exponential backoff.
	WithRetry = invoke.WithRetry
	// WithBreaker trips a per-endpoint circuit breaker on repeated failure.
	WithBreaker = invoke.WithBreaker
	// WithConcurrencyLimit bounds in-flight calls through the invoker.
	WithConcurrencyLimit = invoke.WithConcurrencyLimit
	// WithLatency delays every call by a fixed duration — a simulated network
	// round-trip for benchmarks and parallel-speedup experiments.
	WithLatency = invoke.WithLatency
	// NewFaultInjector builds a FaultInjector delegating to inner.
	NewFaultInjector = invoke.NewFaultInjector
)

// Fault kinds for FaultInjector plans.
const (
	// FaultError makes the call fail with the scheduled error.
	FaultError = invoke.FaultError
	// FaultLatency delays the call, then delegates.
	FaultLatency = invoke.FaultLatency
	// FaultHang blocks the call until its context is cancelled.
	FaultHang = invoke.FaultHang
	// FaultGarbage returns the scheduled (presumably non-conforming) forest.
	FaultGarbage = invoke.FaultGarbage
)

// Sentinel errors of the policy layer.
var (
	// ErrBreakerOpen is the cause inside a PolicyError when an open circuit
	// breaker rejects a call.
	ErrBreakerOpen = invoke.ErrBreakerOpen
	// ErrInjected is the default error of FaultError faults.
	ErrInjected = invoke.ErrInjected
)

// SchemaCompatible checks Definition 6: does every document of sender
// (rooted at root, defaulting to sender's declared root) safely rewrite
// into target within depth k?
func SchemaCompatible(sender, target *Schema, root string, k int) (*SchemaReport, error) {
	return core.SchemaSafeRewrite(core.Compile(sender, target), root, k)
}

// SOAPInvoker returns an Invoker that routes function nodes to their SOAP
// endpoints (a node's ServiceRef endpoint wins; defaultEndpoint covers the
// rest).
func SOAPInvoker(defaultEndpoint string) Invoker {
	return &soap.Invoker{Default: defaultEndpoint}
}

// FetchWSDL parses a WSDL_int description, sharing base's symbol table when
// base is non-nil.
func FetchWSDL(r io.Reader, base *Schema) (*ServiceDescription, error) {
	opt := xsdint.Options{}
	if base != nil {
		opt.Table = base.Table
	}
	return wsdl.Parse(r, opt)
}

// SchemaRegex exposes the content-model regular expression type for advanced
// callers (building schemas programmatically).
type SchemaRegex = regex.Regex

// Peer-and-services surface: run an Active XML node in-process.
type (
	// Peer is an Active XML peer: repository + services + the Schema
	// Enforcement module, exposable over HTTP through Peer.Handler.
	Peer = peer.Peer
	// PeerQuery declares a query-defined service over the repository.
	PeerQuery = peer.Query
	// PeerProposal is a candidate exchange schema for Peer.Negotiate.
	PeerProposal = peer.Proposal
	// PeerAgreement is a successful negotiation outcome.
	PeerAgreement = peer.Agreement
	// ServiceRegistry holds the operations a peer provides.
	ServiceRegistry = service.Registry
	// ServiceOperation is one registered operation.
	ServiceOperation = service.Operation
	// ServiceHandler implements an operation.
	ServiceHandler = service.Handler
	// Repository stores a peer's named intensional documents in memory —
	// the default DocStore backend.
	Repository = store.Repository
	// DurableRepository is a Repository backed by a write-ahead log and
	// crash-safe snapshots: what OpenStore returns for the "wal" backend.
	DurableRepository = store.DurableRepository
	// ConflictPolicy decides what Repository.LoadDirWith does on collision.
	ConflictPolicy = store.ConflictPolicy
	// WALSyncMode selects the WAL fsync discipline for StoreOptions.
	WALSyncMode = wal.SyncMode
)

// Storage engine surface (see internal/store and DESIGN.md §11): a DocStore
// is the pluggable repository behind a Peer, opened through OpenStore with
// one of three backends — "mem" (in-memory map), "wal" (durable, WAL +
// crash-safe snapshots) or "disk" (disk-sharded files with an LRU hot cache
// of decoded documents and a persistent function-node index).
type (
	// DocStore is the storage-engine interface; assign one to Peer.Repo.
	DocStore = store.DocStore
	// StoreOptions configures OpenStore; Backend selects the engine.
	StoreOptions = store.Options
	// StoreStats is the uniform backend report (DocStore.Stats).
	StoreStats = store.Stats
	// DiskStoreStats is the disk backend's tiering/sharding section.
	DiskStoreStats = store.DiskStats
	// DiskStore is the disk-sharded backend's concrete type.
	DiskStore = store.Disk
	// FunctionIndex is the optional capability of backends that index
	// function nodes: which documents hold a pending call to a function.
	// Discover with a type assertion on a DocStore.
	FunctionIndex = store.FunctionIndex
)

// Storage backend selectors for StoreOptions.Backend.
const (
	StoreMem  = store.BackendMem
	StoreWAL  = store.BackendWAL
	StoreDisk = store.BackendDisk
)

// ErrDocumentNotFound is the sentinel reported (wrapped) when a store or
// peer operation names an absent document. Test with errors.Is.
var ErrDocumentNotFound = store.ErrNotFound

// OpenStore builds the selected storage backend — the single constructor
// for every repository flavor. An empty Backend selects "mem".
func OpenStore(opts StoreOptions) (DocStore, error) { return store.Open(opts) }

// StoreFuncNames lists the distinct function labels embedded in a document,
// sorted — the record a FunctionIndex maintains per document.
func StoreFuncNames(d *Node) []string { return store.FuncNames(d) }

// LoadDir conflict policies.
const (
	KeepExisting   = store.KeepExisting
	Overwrite      = store.Overwrite
	FailOnConflict = store.FailOnConflict
)

// WAL fsync disciplines.
const (
	WALSyncAlways   = wal.SyncAlways
	WALSyncInterval = wal.SyncInterval
	WALSyncNone     = wal.SyncNone
)

// NewPeer creates a peer over the given schema.
func NewPeer(name string, s *Schema) *Peer { return peer.New(name, s) }

// Converter constructors (see internal/core for details).
var (
	// RenameLabels renames element/function labels in returned forests.
	RenameLabels = core.RenameLabels
	// UnwrapElement strips a wrapper element around returned content.
	UnwrapElement = core.Unwrap
	// MapValues rewrites text content of elements with a given label.
	MapValues = core.MapValues
)

// Predicate combinators for function patterns (the paper's UDDIF and InACL
// examples).
var (
	// RegistryListed accepts functions registered in the given registry.
	RegistryListed = service.RegistryListed
	// ACL accepts functions on an allow-list.
	ACL = service.ACL
	// AndPredicates conjoins predicates.
	AndPredicates = service.And
)

// Telemetry surface: embedders plug a registry into RewriterConfig.Telemetry
// or Peer.Telemetry, scrape it via Registry.MetricsHandler (Prometheus text)
// and Tracer.TracesHandler (recent spans as JSON), and correlate spans with
// audit records through the rewrite ID. See DESIGN.md §8 for the metric
// catalogue and span naming scheme.
type (
	// TelemetryRegistry holds named metrics and the span ring.
	TelemetryRegistry = telemetry.Registry
	// TelemetrySpan is one in-flight traced operation (nil-safe no-op).
	TelemetrySpan = telemetry.Span
	// TelemetrySpanRecord is a finished span as served by /debug/traces.
	TelemetrySpanRecord = telemetry.SpanRecord
	// TelemetryTracer is the bounded ring of finished spans.
	TelemetryTracer = telemetry.Tracer
)

var (
	// NewTelemetry creates a registry with the default span-ring capacity.
	NewTelemetry = telemetry.NewRegistry
	// StartSpan opens a span under the registry carried by ctx (no-op
	// otherwise) and returns the derived context for parent linkage.
	StartSpan = telemetry.StartSpan
	// WithTelemetry plants a registry in a context, so StartSpan and the
	// instrumented pipeline below it report there.
	WithTelemetry = telemetry.WithRegistry
	// NewRewriteID mints the process-unique ID format used to correlate
	// one top-level rewriting across spans and audit records.
	NewRewriteID = telemetry.NewID
	// WithRewriteID pins the rewrite/trace ID for the next top-level
	// rewriting started under the context.
	WithRewriteID = telemetry.WithTraceID
	// RewriteIDFrom reads the rewrite/trace ID in effect, or "".
	RewriteIDFrom = telemetry.TraceIDFrom
)

// Observability surface (DESIGN.md §13): cross-process trace propagation,
// structured logging, and the slow-request flight recorder. A Peer with
// Logger (a *log/slog.Logger) set writes one structured line per request;
// wrap its handler in TraceLogHandler so each line carries the request's
// trace_id. With Flight set the peer serves the slowest/failed request
// anatomies at /debug/slow.
type (
	// Flight is the bounded slow/failed-request recorder.
	Flight = telemetry.Flight
	// FlightRecord is one admitted request with its trace evidence.
	FlightRecord = telemetry.FlightRecord
	// Health tracks daemon lifecycle for /healthz and /readyz probes.
	Health = peer.Health
	// TraceLogHandler wraps an slog.Handler so that every record logged
	// under a traced context gains the trace ID as trace_id, e.g.
	// slog.New(axml.TraceLogHandler{Handler: slog.NewJSONHandler(w, nil)}).
	TraceLogHandler = telemetry.TraceHandler
)

var (
	// NewFlight builds a flight recorder keeping the slowCap slowest and
	// failCap most recent failed requests (defaults on non-positive).
	NewFlight = telemetry.NewFlight
	// NewHealth builds a not-yet-ready lifecycle tracker.
	NewHealth = peer.NewHealth
	// InjectTraceContext writes the context's trace identity into an
	// outbound header as a W3C traceparent; ExtractTraceContext reads one
	// back, and WithRemoteTrace makes root spans join the remote trace.
	InjectTraceContext  = telemetry.InjectTraceContext
	ExtractTraceContext = telemetry.ExtractTraceContext
	WithRemoteTrace     = telemetry.WithRemoteTrace
)
