// Package replica implements WAL-shipping replication between axml peers:
// a leader exposes its durable repository's log tail over HTTP and a
// follower applies it through the ordinary store.DocStore interface,
// serving hot-standby reads while the leader remains the single writer.
//
// The wire format is the WAL's own CRC-framed record encoding
// (wal.EncodeFrame / wal.FrameReader), so every byte a follower applies has
// passed the same checksum discipline the on-disk log uses — the transport
// is not trusted to deliver frames intact.
//
// Protocol:
//
//	GET /replica/snapshot
//	    Full-state bootstrap. Headers carry the leader epoch and the WAL
//	    sequence the capture is consistent with; the body is one OpPut
//	    frame per document in name order, streamed without a
//	    Content-Length. A leader that fails mid-body aborts the connection
//	    rather than ending the body, so only a complete snapshot ends
//	    cleanly. A follower resuming from this capture streams from
//	    exactly that sequence.
//
//	GET /replica/stream?after=<seq>&epoch=<epoch>&wait=<dur>
//	    Long-poll tail read. 200 returns frames for sequences after+1..N
//	    (contiguous — the follower numbers them by position, no per-frame
//	    sequence is shipped); 204 means caught up (poll again); 410 Gone
//	    means the position was evicted from the tail or the epoch does not
//	    match (leader restarted): re-bootstrap from /snapshot.
//
// Sequences are process-lifetime (wal.SeqRecord), so the epoch — minted at
// Source construction — is what makes resumption safe across leader
// restarts: a stale follower can never silently apply a new incarnation's
// records at an old offset.
package replica

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"axml/internal/store"
	"axml/internal/telemetry"
	"axml/internal/wal"
)

// Wire headers shared by both replication endpoints.
const (
	// HeaderEpoch carries the leader's boot epoch; a follower echoes it on
	// stream requests and treats any mismatch as a restart.
	HeaderEpoch = "X-Axml-Replica-Epoch"
	// HeaderHead carries the leader's current WAL head sequence, letting a
	// follower compute replication lag without an extra round trip.
	HeaderHead = "X-Axml-Replica-Head"
)

const (
	// DefaultWait bounds how long /replica/stream holds an empty long-poll
	// before answering 204.
	DefaultWait = 25 * time.Second
	// DefaultMaxBatch bounds the records returned by one stream response.
	DefaultMaxBatch = 512
)

// Source is the leader side: it serves snapshot bootstraps and long-poll
// tail reads from a DurableRepository opened with a replica tail
// (store.Options.ReplicaTail > 0).
type Source struct {
	repo     *store.DurableRepository
	epoch    string
	wait     time.Duration
	maxBatch int

	snapshots atomic.Uint64 // bootstraps served
	batches   atomic.Uint64 // non-empty stream responses
	gone      atomic.Uint64 // 410s issued (gap or epoch mismatch)
}

// NewSource builds a replication source over repo, minting a fresh epoch.
// reg, when non-nil, registers the leader-side axml_replica_* metrics.
func NewSource(repo *store.DurableRepository, reg *telemetry.Registry) *Source {
	s := &Source{
		repo:     repo,
		epoch:    telemetry.NewID(),
		wait:     DefaultWait,
		maxBatch: DefaultMaxBatch,
	}
	if reg != nil {
		reg.CounterFunc("axml_replica_snapshots_served_total", func() float64 {
			return float64(s.snapshots.Load())
		})
		reg.CounterFunc("axml_replica_stream_batches_total", func() float64 {
			return float64(s.batches.Load())
		})
		reg.CounterFunc("axml_replica_gone_total", func() float64 {
			return float64(s.gone.Load())
		})
	}
	return s
}

// Epoch returns the source's boot epoch.
func (s *Source) Epoch() string { return s.epoch }

// Handler returns the replication endpoints rooted at / — mount it under
// /replica/ with http.StripPrefix.
func (s *Source) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /stream", s.handleStream)
	return mux
}

// handleSnapshot streams the bootstrap: the capture is taken first (its
// sequence goes in a header), then each document is rendered and framed
// straight into the response, one at a time. The body therefore has no
// Content-Length, and a cleanly ended body is the only signal that the
// snapshot is complete: a follower that read a clean EOF at a frame
// boundary would accept a partial snapshot and delete every local document
// it lacks. So a failure after the headers aborts the connection instead
// of ending the body, and is not counted as a bootstrap served.
func (s *Source) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	state, seq := s.repo.ExportState()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderEpoch, s.epoch)
	w.Header().Set(HeaderHead, strconv.FormatUint(seq, 10))
	if err := state.WriteFrames(wal.NewFrameWriter(w)); err != nil {
		panic(http.ErrAbortHandler)
	}
	s.snapshots.Add(1)
}

func (s *Source) handleStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	after, err := strconv.ParseUint(q.Get("after"), 10, 64)
	if err != nil {
		http.Error(w, "replica: bad after parameter", http.StatusBadRequest)
		return
	}
	if epoch := q.Get("epoch"); epoch != s.epoch {
		// Covers both a stale follower (old epoch) and a missing epoch:
		// resumption without epoch agreement is never safe.
		s.gone.Add(1)
		w.Header().Set(HeaderEpoch, s.epoch)
		http.Error(w, "replica: epoch mismatch, bootstrap from /replica/snapshot", http.StatusGone)
		return
	}
	wait := s.wait
	if v := q.Get("wait"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 && d < wait {
			wait = d
		}
	}
	log := s.repo.WAL()
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		// Arm the notification before reading: an append landing between
		// the two wakes the select instead of being missed.
		notify := log.AppendNotify()
		recs, gap := log.ReadAfter(after, s.maxBatch)
		if gap {
			s.gone.Add(1)
			w.Header().Set(HeaderEpoch, s.epoch)
			http.Error(w, "replica: position evicted, bootstrap from /replica/snapshot", http.StatusGone)
			return
		}
		if len(recs) > 0 {
			var buf []byte
			for _, rec := range recs {
				buf = wal.EncodeFrame(buf, rec.Record)
			}
			s.batches.Add(1)
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set(HeaderEpoch, s.epoch)
			w.Header().Set(HeaderHead, strconv.FormatUint(log.HeadSeq(), 10))
			w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
			_, _ = w.Write(buf)
			return
		}
		select {
		case <-notify:
		case <-deadline.C:
			w.Header().Set(HeaderEpoch, s.epoch)
			w.Header().Set(HeaderHead, strconv.FormatUint(log.HeadSeq(), 10))
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			return
		}
	}
}

// SourceStats is the leader-side replication report exposed under /stats.
type SourceStats struct {
	Role            string `json:"role"`
	Epoch           string `json:"epoch"`
	HeadSeq         uint64 `json:"head_seq"`
	SnapshotsServed uint64 `json:"snapshots_served"`
	StreamBatches   uint64 `json:"stream_batches"`
	Gone            uint64 `json:"gone"`
}

// Stats reports the source's current state.
func (s *Source) Stats() SourceStats {
	return SourceStats{
		Role:            "leader",
		Epoch:           s.epoch,
		HeadSeq:         s.repo.WAL().HeadSeq(),
		SnapshotsServed: s.snapshots.Load(),
		StreamBatches:   s.batches.Load(),
		Gone:            s.gone.Load(),
	}
}
