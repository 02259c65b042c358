package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/peer"
	"axml/internal/schema"
	"axml/internal/service"
	"axml/internal/soap"
	"axml/internal/store"
	"axml/internal/telemetry"
	"axml/internal/wal"
)

// The daemon's defaults (cmd/axmld): telemetry and the flight recorder on,
// Safe mode, k=2, sequential materialization, no invocation policies
// (-retries 1, no breaker, no call timeout), and the server timeouts below.
// Request logging is left off: a line per request on stderr would dominate
// the measurement and flood the benchmark's output.
const (
	peerK             = 2
	walSnapshotEvery  = 1024
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

// newPeer assembles a peer the way axmld configures one at its defaults.
func newPeer(name, schemaText string) (*peer.Peer, error) {
	s, err := schema.ParseText(schemaText, nil)
	if err != nil {
		return nil, err
	}
	p := peer.New(name, s)
	p.K = peerK
	p.Mode = core.Safe
	p.Remote = &soap.Invoker{}
	p.Enforcement = core.NewCompiledCache(core.DefaultCompiledCacheSize)
	p.Enforcement.WordCacheCapacity = core.DefaultWordCacheSize
	p.MaxRequestBytes = soap.DefaultMaxRequestBytes
	p.Parallelism = 1
	p.Health = peer.NewHealth()
	p.Telemetry = telemetry.NewRegistry()
	p.Flight = telemetry.NewFlight(telemetry.DefaultFlightSlow, 2*telemetry.DefaultFlightSlow)
	return p, nil
}

// registerServices implements every function locally with the simulated
// service of the corpus (see serviceOutput).
func registerServices(p *peer.Peer, c *corpus, tr *tracer) error {
	for j := 0; j < numFuncs; j++ {
		j := j
		name := fmt.Sprintf("F%d", j)
		h := service.Handler(func(params []*doc.Node) ([]*doc.Node, error) {
			key, err := keyOf(params)
			if err != nil {
				return nil, err
			}
			return serviceOutput(c.outTypes[j], j, key), nil
		})
		if tr != nil {
			h = tr.service(h)
		}
		if err := p.Services.Register(&service.Operation{Name: name, Def: p.Schema.Funcs[name], Handler: h}); err != nil {
			return err
		}
	}
	return nil
}

func keyOf(params []*doc.Node) (string, error) {
	if len(params) == 1 && params[0].Label == "key" && len(params[0].Children) == 1 {
		return params[0].Children[0].Value, nil
	}
	return "", fmt.Errorf("want one <key> parameter, got %d nodes", len(params))
}

// server is one peer listening on loopback.
type server struct {
	srv  *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: readHeaderTimeout,
			ReadTimeout:       readTimeout,
			WriteTimeout:      writeTimeout,
			IdleTimeout:       idleTimeout,
		},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// cluster is peer A (the sender every request goes to) plus, for the remote
// workload, peer B implementing A's functions over SOAP.
type cluster struct {
	a, b       *peer.Peer
	srvA, srvB *server
	durable    *store.DurableRepository
	dataDir    string
	closed     bool
}

// clusterSpec says how to assemble a cluster for one workload.
type clusterSpec struct {
	corpus *corpus
	remote bool   // functions live on peer B, reached through A's Remote invoker
	walDir string // non-empty: A's store is the WAL backend in this directory
	popDir string // population loaded into A's store at boot
	tracer *tracer
	warmup func(cl *cluster) error
}

// bootCluster boots the peers, opens the store, loads the population and
// warms up: everything setup_s measures.
func bootCluster(spec clusterSpec) (*cluster, error) {
	cl := &cluster{dataDir: spec.walDir}
	ok := false
	defer func() {
		if !ok {
			_ = cl.close()
		}
	}()
	tr := spec.tracer
	a, err := newPeer("a", spec.corpus.senderText)
	if err != nil {
		return nil, err
	}
	cl.a = a
	if spec.remote {
		b, err := newPeer("b", spec.corpus.senderText)
		if err != nil {
			return nil, err
		}
		if err := registerServices(b, spec.corpus, tr); err != nil {
			return nil, err
		}
		hb := b.Handler()
		if tr != nil {
			hb = tr.soapServer(hb)
		}
		b.Health.SetReady(true)
		cl.b = b
		if cl.srvB, err = serve(hb); err != nil {
			return nil, err
		}
		b.Endpoint = cl.srvB.url + "/soap"
		// The sender reaches B's operations through its Remote invoker.
		a.Remote = &soap.Invoker{Default: b.Endpoint, Namespace: "urn:axml:b"}
	} else if err := registerServices(a, spec.corpus, tr); err != nil {
		return nil, err
	}
	if spec.walDir != "" {
		st, err := store.Open(store.Options{
			Backend:       store.BackendWAL,
			Dir:           spec.walDir,
			Sync:          wal.SyncAlways,
			SyncInterval:  wal.DefaultSyncInterval,
			SnapshotEvery: walSnapshotEvery,
			Registry:      a.Telemetry,
		})
		if err != nil {
			return nil, err
		}
		cl.durable = st.(*store.DurableRepository)
		a.Repo = st
		a.Durable = cl.durable
	}
	if _, err := store.SeedDir(a.Repo, spec.popDir, store.KeepExisting); err != nil {
		return nil, err
	}
	if tr != nil {
		a.Repo = tr.store(a.Repo)
		a.Policies = []core.InvokePolicy{tr.invokePolicy}
	}
	ha := a.Handler()
	if tr != nil {
		ha = tr.peerHandler(ha)
	}
	if cl.srvA, err = serve(ha); err != nil {
		return nil, err
	}
	a.Endpoint = cl.srvA.url + "/soap"
	a.Health.SetReady(true)
	if spec.warmup != nil {
		if err := spec.warmup(cl); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	ok = true
	return cl, nil
}

// close stops both peers and closes the store (a final WAL snapshot).
func (cl *cluster) close() error {
	if cl.closed {
		return nil
	}
	cl.closed = true
	var errs []error
	for _, s := range []*server{cl.srvA, cl.srvB} {
		if s != nil {
			errs = append(errs, s.stop())
		}
	}
	soap.DefaultTransport.CloseIdleConnections()
	if cl.a != nil {
		errs = append(errs, cl.a.Repo.Close())
	}
	return errors.Join(errs...)
}

// destroy closes the cluster and removes its data directory.
func (cl *cluster) destroy() error {
	err := cl.close()
	if cl.dataDir != "" {
		err = errors.Join(err, os.RemoveAll(cl.dataDir))
	}
	return err
}
