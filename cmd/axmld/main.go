// Command axmld runs an Active XML peer daemon: it loads a schema and a
// directory of intensional documents, optionally registers simulated
// implementations for every declared function, and serves
//
//	POST /soap             SOAP operations with schema enforcement
//	GET  /wsdl             the peer's WSDL_int description
//	GET  /doc/{name}       repository documents
//	PUT  /doc/{name}       store the request body as the named document
//	DELETE /doc/{name}     remove the named document
//	POST /exchange/{name}  Figure 1 data exchange: body = XML Schema_int,
//	                       response = the document rewritten to conform
//
// The repository is a pluggable storage engine selected by -store:
//
//	-store mem   in-memory map (the default without -data-dir)
//	-store wal   durable: every mutation is framed into a write-ahead log
//	             under -data-dir before it is acknowledged (-wal-sync
//	             chooses the fsync discipline), the log is compacted into
//	             crash-safe snapshots every -snapshot-every mutations, and
//	             boot runs crash recovery — newest valid snapshot plus WAL
//	             tail, torn trailing records truncated. -data-dir alone
//	             implies -store wal.
//	-store disk  disk-sharded: documents live as files across hashed shard
//	             directories under -data-dir with an LRU hot cache of
//	             -hot-cache decoded documents (cold reads fault lazily) and
//	             a persistent per-shard function-node index serving
//	             GET /docs/by-function/{fn}.
//
// POST /exchange enforces the whole document before it writes a byte: a
// rewriting that is not safe (or not possible, under -mode possible) is
// refused with 422 and a plain-text reason, never with a 200 and a truncated
// document.
//
// Federation: -role selects the peer's place in a static cluster.
//
//	-role single    the default: no replication surface
//	-role leader    requires -store wal; serves the replication protocol
//	                under GET /replica/snapshot and /replica/stream (the
//	                WAL's CRC-framed records, re-verified by followers on
//	                receipt) and keeps -replica-tail records in memory for
//	                streaming — followers farther behind re-bootstrap from
//	                a snapshot
//	-role follower  requires -leader URL; continuously applies the leader's
//	                stream into the local store and serves hot-standby
//	                reads, answering every PUT/DELETE /doc with 503 +
//	                Retry-After (writes belong on the leader)
//
// -peers name=url,... installs a static roster on any role: a function
// node whose service ref endpoint is peer://<name> is routed to that
// peer's /soap endpoint, and peer://<name>/<doc> fetches the named
// document from the peer's HTTP surface directly. Replication state is
// reported under "replica" in GET /stats and as axml_replica_* metrics.
//
// On SIGINT/SIGTERM the daemon drains in-flight requests and closes the
// store (writing a final snapshot under -store wal) before exiting.
//
// Outbound service calls made by enforcement rewritings run through the
// invocation policy chain configured by -call-timeout, -retries,
// -retry-backoff, -breaker-failures and -breaker-cooldown; -parallel sets
// the materialization engine's concurrency degree (1 = sequential).
//
// Telemetry is on by default (-telemetry=false disables it): the daemon
// additionally serves GET /metrics (Prometheus text; OpenMetrics with
// exemplar trace IDs under `Accept: application/openmetrics-text`),
// GET /debug/traces (recent spans, JSON) and GET /debug/slow (the flight
// recorder: the -slow-requests slowest plus all failed requests with
// span trees, audit events and per-stage timing). -pprof addr serves
// net/http/pprof on a separate listener restricted to loopback addresses
// (e.g. -pprof :6060 binds 127.0.0.1:6060).
//
// All daemon output is structured logging: -log-format json|text and
// -log-level debug|info|warn|error control it. Request log lines carry
// the trace ID shared with /debug/traces, audit events, and any
// traceparent-propagating caller. /healthz answers liveness; /readyz
// flips to 503 the moment a shutdown signal arrives, before connection
// draining begins.
//
// Example:
//
//	axmld -name news -schema news.axs -docs ./docs -sim 7 -addr :8080 \
//	      -call-timeout 2s -retries 3 -breaker-failures 5 -log-format json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/invoke"
	"axml/internal/peer"
	"axml/internal/regex"
	"axml/internal/replica"
	"axml/internal/schema"
	"axml/internal/service"
	"axml/internal/soap"
	"axml/internal/store"
	"axml/internal/telemetry"
	"axml/internal/wal"
	"axml/internal/workload"
	"axml/internal/xsdint"
)

// version identifies the build in logs and the axml_build_info gauge;
// release builds stamp it via -ldflags "-X main.version=v1.2.3".
var version = "dev"

// buildVersion resolves the most specific version available: the ldflags
// stamp, else the module version, else the VCS revision, else "dev".
func buildVersion() string {
	if version != "dev" {
		return version
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			return v
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return version
}

func main() {
	p, opts, err := configure(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "axmld:", err)
		os.Exit(2)
	}
	os.Exit(run(p, opts))
}

// run serves until the listener fails or a SIGINT/SIGTERM arrives, then
// drains in-flight requests and — when the repository is durable — writes a
// final snapshot, so a clean shutdown makes the next boot's recovery a pure
// snapshot load with no WAL to replay.
func run(p *peer.Peer, opts options) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger := opts.logger
	var pprofSrv *http.Server
	if opts.pprof != "" {
		// The pprof listener deliberately uses http.DefaultServeMux, which
		// net/http/pprof registers its handlers on; configure has already
		// pinned the address to loopback.
		pprofSrv = &http.Server{Addr: opts.pprof, Handler: http.DefaultServeMux}
		go func() {
			logger.Info("pprof serving", "addr", opts.pprof)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "error", err)
			}
		}()
	}
	srv := newHTTPServer(p.Handler(), opts)
	// The follower's replication loop runs for the whole serving life and
	// must be retired before Repo.Close: an apply racing the final snapshot
	// would be refused and counted as an error.
	fctx, fstop := context.WithCancel(context.Background())
	defer fstop()
	var fwg sync.WaitGroup
	if opts.follower != nil {
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			_ = opts.follower.Run(fctx)
		}()
	}
	// The store is open and recovery is complete by the time configure
	// returned; mark ready just before the listener starts accepting.
	p.Health.SetReady(true)
	errc := make(chan error, 1)
	go func() {
		logger.Info("serving",
			"peer", p.Name,
			"addr", opts.addr,
			"k", p.K,
			"mode", p.Mode.String(),
			"store", opts.storeBackend,
			"data_dir", opts.dataDir,
			"role", opts.role,
			"telemetry", p.Telemetry != nil,
			"durable", p.Durable != nil,
			"version", buildVersion(),
		)
		errc <- srv.ListenAndServe()
	}()

	exit := 0
	select {
	case <-ctx.Done():
		stop() // restore default handling: a second signal kills immediately
		// Flip readiness first so load balancers stop routing while
		// in-flight requests drain.
		p.Health.StartDrain()
		logger.Info("signal received, draining",
			"store", opts.storeBackend, "data_dir", opts.dataDir)
		sd, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sd); err != nil {
			logger.Error("shutdown failed", "error", err)
			exit = 1
		}
		if pprofSrv != nil {
			_ = pprofSrv.Shutdown(sd)
		}
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("listener failed", "error", err)
			exit = 1
		}
	}
	fstop()
	fwg.Wait()
	if err := p.Repo.Close(); err != nil {
		logger.Error("closing store failed",
			"error", err, "store", opts.storeBackend, "data_dir", opts.dataDir)
		exit = 1
	} else if p.Durable != nil {
		logger.Info("final snapshot written",
			"store", opts.storeBackend, "data_dir", opts.dataDir)
	}
	return exit
}

// Default server-side timeouts. They bound how long a single connection can
// hold a goroutine while making no progress; 0 via the corresponding flag
// disables the respective limit.
const (
	defaultReadHeaderTimeout = 10 * time.Second
	defaultReadTimeout       = 30 * time.Second
	defaultWriteTimeout      = 60 * time.Second
	defaultIdleTimeout       = 120 * time.Second
)

// newHTTPServer builds the daemon's listener. Server-side timeouts protect
// it from slow or stalled clients: a connection that trickles its headers or
// never drains a response cannot pin a handler goroutine (and, under
// -data-dir, a WAL lock) forever. Graceful shutdown is unaffected — Shutdown
// still drains in-flight requests that progress within their windows.
func newHTTPServer(h http.Handler, opts options) *http.Server {
	return &http.Server{
		Addr:              opts.addr,
		Handler:           h,
		ReadHeaderTimeout: opts.readHeaderTimeout,
		ReadTimeout:       opts.readTimeout,
		WriteTimeout:      opts.writeTimeout,
		IdleTimeout:       opts.idleTimeout,
	}
}

// options carries the daemon-level settings that are not part of the peer.
type options struct {
	addr  string
	pprof string // "" = pprof disabled; otherwise a loopback host:port

	logger       *slog.Logger
	storeBackend string
	dataDir      string
	role         string
	// follower, when the role is follower, replicates from the leader; run
	// starts its loop and stops it before the store closes.
	follower *replica.Follower

	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration
}

// configure parses flags and builds the peer; split from main so tests can
// drive flag validation without binding a socket.
func configure(args []string) (*peer.Peer, options, error) {
	fs := flag.NewFlagSet("axmld", flag.ContinueOnError)
	name := fs.String("name", "axml-peer", "peer name")
	schemaPath := fs.String("schema", "", "peer schema (.axs text DSL or .xsd XML Schema_int)")
	docsDir := fs.String("docs", "", "directory of *.xml intensional documents to load")
	addr := fs.String("addr", ":8080", "listen address")
	k := fs.Int("k", 2, "rewriting depth bound")
	mode := fs.String("mode", "safe", "default enforcement mode: safe | possible | mixed")
	simSeed := fs.Int64("sim", -1, "register simulated implementations for all declared functions, with this seed")
	endpoint := fs.String("public", "", "public endpoint URL advertised in WSDL (default http://<addr>/soap)")
	cacheSize := fs.Int("cache", core.DefaultCompiledCacheSize, "max compiled schema-pair analyses kept per peer (must be positive)")
	wordCacheSize := fs.Int("word-cache", core.DefaultWordCacheSize, "max word-level verdicts memoized per analysis (must be positive)")
	maxRequest := fs.Int64("max-request", soap.DefaultMaxRequestBytes, "max SOAP request body bytes (must be positive)")
	callTimeout := fs.Duration("call-timeout", 0, "per-service-call timeout applied to enforcement invocations (0 disables)")
	retries := fs.Int("retries", 1, "delivery attempts per service call (1 disables retrying)")
	retryBackoff := fs.Duration("retry-backoff", invoke.DefaultBaseDelay, "initial backoff between retry attempts")
	breakerFailures := fs.Int("breaker-failures", 0, "consecutive failures opening a per-endpoint circuit breaker (0 disables)")
	breakerCooldown := fs.Duration("breaker-cooldown", invoke.DefaultBreakerCooldown, "how long an open breaker rejects calls before probing")
	parallel := fs.Int("parallel", 1, "parallel materialization degree for enforcement rewritings (1 = sequential)")
	readHeaderTimeout := fs.Duration("read-header-timeout", defaultReadHeaderTimeout, "max time to read a request's headers (0 disables)")
	readTimeout := fs.Duration("read-timeout", defaultReadTimeout, "max time to read an entire request including the body (0 disables)")
	writeTimeout := fs.Duration("write-timeout", defaultWriteTimeout, "max time to write a response (0 disables)")
	idleTimeout := fs.Duration("idle-timeout", defaultIdleTimeout, "max keep-alive idle time between requests (0 disables)")
	telemetryOn := fs.Bool("telemetry", true, "serve /metrics and /debug/traces and instrument the pipeline")
	logFormat := fs.String("log-format", "text", "log line format: text | json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug | info | warn | error")
	slowRequests := fs.Int("slow-requests", telemetry.DefaultFlightSlow, "slowest requests retained by the /debug/slow flight recorder (0 disables it)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. :6060; empty disables)")
	storeBackend := fs.String("store", "", "storage backend: mem | wal | disk (default: wal when -data-dir is set, else mem)")
	hotCache := fs.Int("hot-cache", store.DefaultHotCache, "disk backend: decoded documents kept hot in memory (must be positive)")
	shards := fs.Int("shards", store.DefaultShards, "disk backend: shard directory count (must be positive)")
	dataDir := fs.String("data-dir", "", "store directory for the wal and disk backends; empty keeps documents in memory only")
	walSync := fs.String("wal-sync", "always", "WAL fsync discipline: always | interval | none")
	walSyncInterval := fs.Duration("wal-sync-interval", wal.DefaultSyncInterval, "background fsync period when -wal-sync=interval")
	snapshotEvery := fs.Int("snapshot-every", 1024, "compact the WAL into a snapshot after this many mutations (0 = only at shutdown)")
	role := fs.String("role", "single", "federation role: single | leader (serve /replica to followers; requires -store wal) | follower (replicate from -leader, serve reads only)")
	peersFlag := fs.String("peers", "", "static federation roster as name=url,name=url — lets function nodes reference peer://<name> endpoints")
	leaderURL := fs.String("leader", "", "leader base URL to replicate from (requires -role follower)")
	replicaTail := fs.Int("replica-tail", 4096, "WAL records kept in memory for replication streaming (leader role; followers farther behind bootstrap from a snapshot)")
	if err := fs.Parse(args); err != nil {
		return nil, options{}, err
	}

	level, err := telemetry.ParseLogLevel(*logLevel)
	if err != nil {
		return nil, options{}, fmt.Errorf("-log-level: %w", err)
	}
	handler, err := telemetry.NewLogHandler(os.Stderr, *logFormat, level)
	if err != nil {
		return nil, options{}, fmt.Errorf("-log-format: %w", err)
	}
	if *slowRequests < 0 {
		return nil, options{}, fmt.Errorf("-slow-requests must not be negative, got %d", *slowRequests)
	}
	logger := slog.New(handler)

	if *schemaPath == "" {
		return nil, options{}, fmt.Errorf("-schema is required")
	}
	if *k < 0 {
		return nil, options{}, fmt.Errorf("-k must not be negative, got %d", *k)
	}
	// A zero or negative capacity would silently disable the enforcement
	// cache (or worse, misconfigure the peer); reject it up front.
	if *cacheSize <= 0 {
		return nil, options{}, fmt.Errorf("-cache must be positive, got %d", *cacheSize)
	}
	if *wordCacheSize <= 0 {
		return nil, options{}, fmt.Errorf("-word-cache must be positive, got %d", *wordCacheSize)
	}
	if *maxRequest <= 0 {
		return nil, options{}, fmt.Errorf("-max-request must be positive, got %d", *maxRequest)
	}
	if *retries < 1 {
		return nil, options{}, fmt.Errorf("-retries must be at least 1, got %d", *retries)
	}
	if *callTimeout < 0 {
		return nil, options{}, fmt.Errorf("-call-timeout must not be negative, got %v", *callTimeout)
	}
	if *breakerFailures < 0 {
		return nil, options{}, fmt.Errorf("-breaker-failures must not be negative, got %d", *breakerFailures)
	}
	if *parallel < 1 {
		return nil, options{}, fmt.Errorf("-parallel must be at least 1, got %d", *parallel)
	}
	for _, d := range []struct {
		flag  string
		value time.Duration
	}{
		{"-read-header-timeout", *readHeaderTimeout},
		{"-read-timeout", *readTimeout},
		{"-write-timeout", *writeTimeout},
		{"-idle-timeout", *idleTimeout},
	} {
		if d.value < 0 {
			return nil, options{}, fmt.Errorf("%s must not be negative, got %v", d.flag, d.value)
		}
	}
	pprof, err := loopbackAddr(*pprofAddr)
	if err != nil {
		return nil, options{}, err
	}
	// Durability flags are validated even when -data-dir is off, so a bad
	// value never lurks until the first durable deployment.
	syncMode, err := wal.ParseSyncMode(*walSync)
	if err != nil {
		return nil, options{}, fmt.Errorf("-wal-sync: %w", err)
	}
	if *walSyncInterval <= 0 {
		return nil, options{}, fmt.Errorf("-wal-sync-interval must be positive, got %v", *walSyncInterval)
	}
	if *snapshotEvery < 0 {
		return nil, options{}, fmt.Errorf("-snapshot-every must not be negative, got %d", *snapshotEvery)
	}
	if *hotCache <= 0 {
		return nil, options{}, fmt.Errorf("-hot-cache must be positive, got %d", *hotCache)
	}
	if *shards <= 0 || *shards > store.MaxShards {
		return nil, options{}, fmt.Errorf("-shards must be in 1..%d, got %d", store.MaxShards, *shards)
	}
	backend := *storeBackend
	switch backend {
	case "":
		backend = store.BackendMem
		if *dataDir != "" {
			backend = store.BackendWAL // historical behavior of -data-dir
		}
	case store.BackendMem:
		if *dataDir != "" {
			return nil, options{}, fmt.Errorf("-store mem does not use -data-dir %q; pick wal or disk", *dataDir)
		}
	case store.BackendWAL, store.BackendDisk:
		if *dataDir == "" {
			return nil, options{}, fmt.Errorf("-store %s requires -data-dir", backend)
		}
	default:
		return nil, options{}, fmt.Errorf("bad -store %q (want one of %v)", backend, store.Backends)
	}
	switch *role {
	case "single":
		if *leaderURL != "" {
			return nil, options{}, fmt.Errorf("-leader requires -role follower")
		}
	case "leader":
		if backend != store.BackendWAL {
			return nil, options{}, fmt.Errorf("-role leader requires -store wal (the WAL is the replication log), got %q", backend)
		}
		if *replicaTail <= 0 {
			return nil, options{}, fmt.Errorf("-replica-tail must be positive, got %d", *replicaTail)
		}
		if *leaderURL != "" {
			return nil, options{}, fmt.Errorf("-leader requires -role follower")
		}
	case "follower":
		if *leaderURL == "" {
			return nil, options{}, fmt.Errorf("-role follower requires -leader")
		}
	default:
		return nil, options{}, fmt.Errorf("bad -role %q (want single, leader or follower)", *role)
	}
	s, err := loadSchema(*schemaPath)
	if err != nil {
		return nil, options{}, err
	}
	p := peer.New(*name, s)
	p.K = *k
	switch *mode {
	case "safe":
		p.Mode = core.Safe
	case "possible":
		p.Mode = core.Possible
	case "mixed":
		p.Mode = core.Mixed
	default:
		return nil, options{}, fmt.Errorf("bad -mode %q", *mode)
	}
	if *endpoint != "" {
		p.Endpoint = *endpoint
	} else {
		p.Endpoint = "http://" + strings.TrimPrefix(*addr, ":") + "/soap"
		if strings.HasPrefix(*addr, ":") {
			p.Endpoint = "http://localhost" + *addr + "/soap"
		}
	}
	p.Remote = &soap.Invoker{}
	p.Enforcement = core.NewCompiledCache(*cacheSize)
	p.Enforcement.WordCacheCapacity = *wordCacheSize
	p.MaxRequestBytes = *maxRequest
	p.Policies = policies(*breakerFailures, *breakerCooldown, *retries, *retryBackoff, *callTimeout)
	p.Parallelism = *parallel
	p.Health = peer.NewHealth()
	// Request and policy-event log lines carry the store backend so a
	// fleet's mixed-backend logs attribute latency to the right engine.
	p.Logger = logger.With("store", backend)
	if *telemetryOn {
		p.Telemetry = telemetry.NewRegistry()
		p.Telemetry.Gauge("axml_build_info",
			"version", buildVersion(),
			"go_version", runtime.Version(),
			"store", backend,
		).Set(1)
	}
	if *slowRequests > 0 {
		p.Flight = telemetry.NewFlight(*slowRequests, 2**slowRequests)
	}

	if *peersFlag != "" {
		roster, err := core.ParseRoster(*peersFlag)
		if err != nil {
			return nil, options{}, fmt.Errorf("-peers: %w", err)
		}
		p.Peers = roster
	}
	tail := 0
	if *role == "leader" {
		tail = *replicaTail
	}
	if backend != store.BackendMem {
		st, err := store.Open(store.Options{
			Backend:       backend,
			Dir:           *dataDir,
			Sync:          syncMode,
			SyncInterval:  *walSyncInterval,
			SnapshotEvery: *snapshotEvery,
			HotCache:      *hotCache,
			Shards:        *shards,
			Registry:      p.Telemetry,
			ReplicaTail:   tail,
		})
		if err != nil {
			return nil, options{}, err
		}
		p.Repo = st
		switch s := st.(type) {
		case *store.DurableRepository:
			p.Durable = s
			ds := s.Stats()
			logger.Info("durable repository recovered",
				"store", backend,
				"data_dir", *dataDir,
				"documents", ds.RecoveredDocuments,
				"wal_replayed", ds.WAL.RecoveryReplayed,
				"wal_truncated", ds.WAL.RecoveryTruncated,
			)
		case *store.Disk:
			ds := s.Stats()
			logger.Info("disk store opened",
				"store", backend,
				"data_dir", *dataDir,
				"documents", ds.Documents,
				"shards", ds.Disk.Shards,
				"index_repairs", ds.Disk.IndexRepairs,
				"hot_cache", ds.Disk.HotCacheCap,
			)
		}
	}
	// Seeding happens after recovery under KeepExisting: recovered (or
	// on-disk) state always wins over the -docs seed directory.
	if *docsDir != "" {
		loaded, err := store.SeedDir(p.Repo, *docsDir, store.KeepExisting)
		if err != nil {
			return nil, options{}, err
		}
		logger.Info("documents loaded",
			"store", backend,
			"dir", *docsDir,
			"loaded", loaded,
			"total", p.Repo.Len(),
		)
	}
	if *simSeed >= 0 {
		sim := workload.NewSimInvoker(s, rand.New(rand.NewSource(*simSeed)))
		for _, fname := range s.SortedFuncs() {
			fname := fname
			def := s.Funcs[fname]
			err := p.Services.Register(&service.Operation{
				Name: fname,
				Def:  def,
				Handler: func(params []*doc.Node) ([]*doc.Node, error) {
					return sim.Invoke(context.Background(), doc.Call(fname, params...))
				},
			})
			if err != nil {
				return nil, options{}, err
			}
		}
		logger.Info("simulated operations registered",
			"count", len(s.Funcs), "seed", *simSeed)
	}
	var follower *replica.Follower
	switch *role {
	case "leader":
		// The store switch above guarantees p.Durable for -store wal.
		src := replica.NewSource(p.Durable, p.Telemetry)
		p.Replica = src.Handler()
		p.ReplicaStats = func() any { return src.Stats() }
		logger.Info("replication source ready",
			"epoch", src.Epoch(), "tail_records", tail)
	case "follower":
		follower = replica.NewFollower(replica.FollowerOptions{
			Leader:   strings.TrimRight(*leaderURL, "/"),
			Store:    p.Repo,
			Logger:   logger.With("component", "replica"),
			Registry: p.Telemetry,
		})
		// Hot-standby: the apply loop owns the store; HTTP serves reads
		// and answers every mutation 503 + Retry-After.
		p.ReadOnly = true
		p.ReplicaStats = func() any { return follower.Stats() }
	}
	return p, options{
		addr:              *addr,
		pprof:             pprof,
		logger:            logger,
		storeBackend:      backend,
		dataDir:           *dataDir,
		role:              *role,
		follower:          follower,
		readHeaderTimeout: *readHeaderTimeout,
		readTimeout:       *readTimeout,
		writeTimeout:      *writeTimeout,
		idleTimeout:       *idleTimeout,
	}, nil
}

// loopbackAddr validates a -pprof address: an empty host binds 127.0.0.1,
// anything other than a loopback host is rejected — profiling endpoints
// expose heap contents and must not face the network.
func loopbackAddr(addr string) (string, error) {
	if addr == "" {
		return "", nil
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("-pprof: %v", err)
	}
	switch host {
	case "":
		host = "127.0.0.1"
	case "localhost", "127.0.0.1", "::1":
	default:
		return "", fmt.Errorf("-pprof must bind a loopback address, got host %q", host)
	}
	return net.JoinHostPort(host, port), nil
}

// policies assembles the peer's invocation chain in the conventional order:
// breaker outermost (counting post-retry outcomes is deliberate here — a
// peer's breaker should see what the retry layer could not fix), retries,
// then a per-attempt timeout.
func policies(breakerFailures int, breakerCooldown time.Duration, retries int, backoff, callTimeout time.Duration) []core.InvokePolicy {
	var ps []core.InvokePolicy
	if breakerFailures > 0 {
		ps = append(ps, invoke.WithBreaker(invoke.Breaker{Failures: breakerFailures, Cooldown: breakerCooldown}))
	}
	if retries > 1 {
		ps = append(ps, invoke.WithRetry(invoke.Retry{Attempts: retries, BaseDelay: backoff, Jitter: 0.2}))
	}
	if callTimeout > 0 {
		ps = append(ps, invoke.WithTimeout(callTimeout))
	}
	return ps
}

func loadSchema(path string) (*schema.Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".xsd") || strings.HasSuffix(path, ".xml") {
		return xsdint.ParseString(string(data), xsdint.Options{Table: regex.NewTable()})
	}
	return schema.ParseText(string(data), nil)
}
