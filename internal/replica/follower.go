package replica

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"axml/internal/store"
	"axml/internal/telemetry"
	"axml/internal/telemetry/obslog"
	"axml/internal/wal"
	"axml/internal/xmlio"
)

// FollowerOptions configures NewFollower.
type FollowerOptions struct {
	// Leader is the leader peer's base URL (e.g. http://host:8080); the
	// follower appends /replica/snapshot and /replica/stream.
	Leader string
	// Store receives the applied records; it is typically the follower
	// peer's own repository, so the replicated corpus is served read-only
	// by the ordinary HTTP surface.
	Store store.DocStore
	// Client overrides the HTTP client. Its timeout must exceed PollWait;
	// the default client allows PollWait + 10s.
	Client *http.Client
	// PollWait is the long-poll wait requested per stream call (default
	// DefaultWait; the leader caps it at its own maximum).
	PollWait time.Duration
	// Backoff is the delay before reconnecting after a transport error
	// (default 500ms).
	Backoff time.Duration
	// Logger, when non-nil, records bootstrap/reconnect/apply events.
	Logger *obslog.Logger
	// Registry, when non-nil, registers the follower-side axml_replica_*
	// metrics (lag, applied records, apply errors, reconnects, bootstraps).
	Registry *telemetry.Registry
}

// Follower pulls the leader's replication stream and applies it to a local
// DocStore: snapshot bootstrap when cold (or told 410 Gone), then long-poll
// tail streaming. Run it in a goroutine; it retries transport errors with
// backoff until its context is canceled.
type Follower struct {
	opts   FollowerOptions
	client *http.Client

	applied     atomic.Uint64 // records applied since process start
	applyErrors atomic.Uint64 // records that failed to apply (skipped)
	reconnects  atomic.Uint64 // transport errors answered with backoff
	bootstraps  atomic.Uint64 // snapshot bootstraps completed

	mu         sync.Mutex
	epoch      string    // leader epoch the position is valid in
	appliedSeq uint64    // leader WAL seq the store reflects
	leaderHead uint64    // last head the leader reported
	lagSince   time.Time // zero when caught up
	lastErr    string
}

// NewFollower builds a follower; call Run to start replicating.
func NewFollower(opts FollowerOptions) *Follower {
	if opts.PollWait <= 0 {
		opts.PollWait = DefaultWait
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 500 * time.Millisecond
	}
	f := &Follower{opts: opts, client: opts.Client}
	if f.client == nil {
		f.client = &http.Client{Timeout: opts.PollWait + 10*time.Second}
	}
	if reg := opts.Registry; reg != nil {
		reg.CounterFunc("axml_replica_applied_records_total", func() float64 {
			return float64(f.applied.Load())
		})
		reg.CounterFunc("axml_replica_apply_errors_total", func() float64 {
			return float64(f.applyErrors.Load())
		})
		reg.CounterFunc("axml_replica_reconnects_total", func() float64 {
			return float64(f.reconnects.Load())
		})
		reg.CounterFunc("axml_replica_snapshot_bootstraps_total", func() float64 {
			return float64(f.bootstraps.Load())
		})
		reg.GaugeFunc("axml_replica_lag_records", func() float64 {
			st := f.Stats()
			return float64(st.LagRecords)
		})
		reg.GaugeFunc("axml_replica_lag_seconds", func() float64 {
			return f.Stats().LagSeconds
		})
	}
	return f
}

// errGone signals a 410 from the leader: the resume position (or epoch) is
// no longer valid and the follower must re-bootstrap.
type errGone struct{ msg string }

func (e errGone) Error() string { return e.msg }

// Run replicates until ctx is canceled. It never returns a non-nil error
// other than ctx.Err(): every failure is logged, counted and retried.
func (f *Follower) Run(ctx context.Context) error {
	needBootstrap := true
	for ctx.Err() == nil {
		var err error
		if needBootstrap {
			if err = f.bootstrap(ctx); err == nil {
				needBootstrap = false
			}
		} else {
			err = f.streamOnce(ctx)
		}
		switch {
		case err == nil:
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			if _, gone := err.(errGone); gone {
				// The position is unrecoverable, not the transport:
				// re-bootstrap immediately.
				needBootstrap = true
				f.noteError(err)
				f.logf(ctx, "replica position gone, re-bootstrapping", err)
				continue
			}
			f.reconnects.Add(1)
			f.noteError(err)
			f.logf(ctx, "replica stream error, backing off", err)
			select {
			case <-time.After(f.opts.Backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return ctx.Err()
}

// bootstrap replaces the local store's contents with the leader's snapshot
// and records the epoch/sequence the capture is consistent with.
func (f *Follower) bootstrap(ctx context.Context) error {
	resp, err := f.get(ctx, f.opts.Leader+"/replica/snapshot")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: snapshot: %s", respError(resp))
	}
	epoch := resp.Header.Get(HeaderEpoch)
	head, err := strconv.ParseUint(resp.Header.Get(HeaderHead), 10, 64)
	if err != nil || epoch == "" {
		return fmt.Errorf("replica: snapshot response missing epoch/head headers")
	}
	seen := make(map[string]bool)
	fr := wal.NewFrameReader(resp.Body)
	for {
		rec, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("replica: snapshot: %w", err)
		}
		seen[rec.Name] = true
		f.apply(ctx, rec)
	}
	// Documents the leader no longer holds must not survive locally: a
	// bootstrap is a full state replacement, not a merge.
	for _, name := range f.opts.Store.Names() {
		if !seen[name] {
			if err := f.opts.Store.Delete(name); err != nil {
				f.applyErrors.Add(1)
				f.logf(ctx, "replica bootstrap delete failed", err)
			}
		}
	}
	f.bootstraps.Add(1)
	f.mu.Lock()
	f.epoch = epoch
	f.appliedSeq = head
	f.leaderHead = head
	f.lagSince = time.Time{}
	f.lastErr = ""
	f.mu.Unlock()
	if f.opts.Logger != nil {
		f.opts.Logger.Info(ctx, "replica bootstrap complete",
			obslog.F("leader", f.opts.Leader),
			obslog.F("epoch", epoch),
			obslog.F("documents", len(seen)),
			obslog.F("seq", head))
	}
	return nil
}

// streamOnce issues one long-poll stream request and applies its frames.
func (f *Follower) streamOnce(ctx context.Context) error {
	f.mu.Lock()
	after, epoch := f.appliedSeq, f.epoch
	f.mu.Unlock()
	url := fmt.Sprintf("%s/replica/stream?after=%d&epoch=%s&wait=%s",
		f.opts.Leader, after, epoch, f.opts.PollWait)
	resp, err := f.get(ctx, url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		f.observeHead(resp, after)
		return nil
	case http.StatusGone:
		return errGone{fmt.Sprintf("replica: stream: %s", respError(resp))}
	case http.StatusOK:
	default:
		return fmt.Errorf("replica: stream: %s", respError(resp))
	}
	// Frames are contiguous from after+1 by protocol contract; applied
	// advances by position, and each frame's CRC was re-verified by the
	// FrameReader before it gets near the store.
	fr := wal.NewFrameReader(resp.Body)
	n := uint64(0)
	for {
		rec, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// A torn or corrupt frame invalidates the batch suffix; the
			// records applied so far are committed, so resume after them.
			f.advance(after + n)
			f.observeHead(resp, after+n)
			return fmt.Errorf("replica: stream: %w", err)
		}
		f.apply(ctx, rec)
		n++
	}
	f.advance(after + n)
	f.observeHead(resp, after+n)
	return nil
}

// apply commits one record to the local store. Apply failures are counted
// and logged but do not halt replication: the sequence still advances, so
// one undecodable document cannot wedge the stream.
func (f *Follower) apply(ctx context.Context, rec wal.Record) {
	var err error
	switch rec.Op {
	case wal.OpPut:
		var d, perr = xmlio.ParseBytes(rec.Data)
		if perr != nil {
			err = perr
		} else {
			err = f.opts.Store.Put(rec.Name, d)
		}
	case wal.OpDelete:
		err = f.opts.Store.Delete(rec.Name)
	default:
		err = fmt.Errorf("replica: unknown op %d", rec.Op)
	}
	if err != nil {
		f.applyErrors.Add(1)
		if f.opts.Logger != nil {
			f.opts.Logger.Error(ctx, "replica apply failed",
				obslog.F("doc", rec.Name), obslog.Err(err))
		}
		return
	}
	f.applied.Add(1)
}

func (f *Follower) advance(seq uint64) {
	f.mu.Lock()
	if seq > f.appliedSeq {
		f.appliedSeq = seq
	}
	f.mu.Unlock()
}

// observeHead updates the leader-head view (and the lag clock) from a
// stream response's headers.
func (f *Follower) observeHead(resp *http.Response, applied uint64) {
	head, err := strconv.ParseUint(resp.Header.Get(HeaderHead), 10, 64)
	if err != nil {
		return
	}
	f.mu.Lock()
	f.leaderHead = head
	if applied >= head {
		f.lagSince = time.Time{}
	} else if f.lagSince.IsZero() {
		f.lagSince = time.Now()
	}
	f.mu.Unlock()
}

func (f *Follower) noteError(err error) {
	f.mu.Lock()
	f.lastErr = err.Error()
	f.mu.Unlock()
}

func (f *Follower) logf(ctx context.Context, msg string, err error) {
	if f.opts.Logger != nil {
		f.opts.Logger.Warn(ctx, msg, obslog.F("leader", f.opts.Leader), obslog.Err(err))
	}
}

func (f *Follower) get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return f.client.Do(req)
}

// respError summarizes a non-2xx response for error messages.
func respError(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	if len(body) == 0 {
		return resp.Status
	}
	return fmt.Sprintf("%s: %s", resp.Status, body)
}

// FollowerStats is the follower-side replication report exposed under
// /stats.
type FollowerStats struct {
	Role        string  `json:"role"`
	Leader      string  `json:"leader"`
	Epoch       string  `json:"epoch"`
	AppliedSeq  uint64  `json:"applied_seq"`
	LeaderHead  uint64  `json:"leader_head"`
	LagRecords  uint64  `json:"lag_records"`
	LagSeconds  float64 `json:"lag_seconds"`
	Applied     uint64  `json:"applied_records"`
	ApplyErrors uint64  `json:"apply_errors"`
	Reconnects  uint64  `json:"reconnects"`
	Bootstraps  uint64  `json:"snapshot_bootstraps"`
	LastError   string  `json:"last_error,omitempty"`
}

// Stats reports the follower's current position and counters.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	st := FollowerStats{
		Role:       "follower",
		Leader:     f.opts.Leader,
		Epoch:      f.epoch,
		AppliedSeq: f.appliedSeq,
		LeaderHead: f.leaderHead,
		LastError:  f.lastErr,
	}
	if f.leaderHead > f.appliedSeq {
		st.LagRecords = f.leaderHead - f.appliedSeq
	}
	if !f.lagSince.IsZero() {
		st.LagSeconds = time.Since(f.lagSince).Seconds()
	}
	f.mu.Unlock()
	st.Applied = f.applied.Load()
	st.ApplyErrors = f.applyErrors.Load()
	st.Reconnects = f.reconnects.Load()
	st.Bootstraps = f.bootstraps.Load()
	return st
}
