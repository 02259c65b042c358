package store

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"axml/internal/doc"
	"axml/internal/wal"
	"axml/internal/xmlio"
)

// DurableRepository wraps a Repository with a write-ahead log and periodic
// snapshot compaction so that the repository survives crashes and restarts:
// every acknowledged Put/Update/Delete is framed into the WAL (under the
// repository's write lock, so log order is apply order) before it commits,
// and recovery at Open loads the newest valid snapshot, replays the WAL
// tail, and truncates any torn final record.
//
// The embedded *Repository is the live repository: hand it (or the
// DurableRepository itself — both satisfy DocStore) to a Peer and every
// mutation path — HTTP PUT/DELETE on /doc/{name}, Materialize, negotiation —
// becomes durable with no further wiring.
type DurableRepository struct {
	*Repository

	log       *wal.Log
	snapEvery int
	closed    atomic.Bool

	// compactMu serializes Snapshot/Close; pending counts logged
	// mutations since the last rotation.
	compactMu sync.Mutex
	pending   atomic.Int64

	// journalBuf is journalMutation's render buffer, reused across
	// mutations under the repository write lock.
	journalBuf []byte

	kick chan struct{} // nudges the background compactor (never closed)
	stop chan struct{} // closed by Close to retire the compactor
	done chan struct{} // closed when the compactor exits

	// recovery facts, frozen at Open
	recoveredDocs   int
	replayedRecords int
	truncatedTails  int
}

// maxJournalBuf bounds the render buffer a DurableRepository keeps between
// mutations; a larger document's buffer is dropped after use.
const maxJournalBuf = 1 << 20

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Sync is the WAL fsync discipline (default wal.SyncAlways).
	Sync wal.SyncMode
	// SyncInterval is the background fsync period for wal.SyncInterval.
	SyncInterval time.Duration
	// SnapshotEvery compacts the WAL into a snapshot after this many
	// logged mutations; 0 snapshots only on Close (and explicit Snapshot
	// calls).
	SnapshotEvery int
	// Metrics, when non-nil, instruments the WAL (see wal.NewMetrics).
	Metrics *wal.Metrics
	// TailRecords, when positive, retains that many recent WAL records in
	// memory for replication streaming (wal.Options.TailRecords) — set on
	// a federation leader so followers can resume incrementally.
	TailRecords int
}

// OpenDurable opens (or creates) the durable repository stored in dir,
// running crash recovery first: state = newest valid snapshot + WAL tail,
// with later records winning over both the snapshot and any torn garbage
// dropped. The returned repository is empty only if the directory was.
func OpenDurable(dir string, opts DurableOptions) (*DurableRepository, error) {
	log, state, err := wal.Open(dir, wal.Options{
		Sync:         opts.Sync,
		SyncInterval: opts.SyncInterval,
		Metrics:      opts.Metrics,
		TailRecords:  opts.TailRecords,
	})
	if err != nil {
		return nil, err
	}
	repo := NewRepository()
	for name, data := range state.Docs {
		d, err := xmlio.ParseBytes(data)
		if err != nil {
			// Checksums passed, so this is not disk damage: the payload
			// itself was never a valid document. Refuse to silently drop
			// state.
			log.Close()
			return nil, fmt.Errorf("store: recovering %q: %w", name, err)
		}
		if err := repo.Put(name, d); err != nil {
			log.Close()
			return nil, fmt.Errorf("store: recovering %q: %w", name, err)
		}
	}
	d := &DurableRepository{
		Repository:      repo,
		log:             log,
		snapEvery:       opts.SnapshotEvery,
		recoveredDocs:   len(state.Docs),
		replayedRecords: state.ReplayedRecords,
		truncatedTails:  state.TruncatedRecords,
	}
	// Installed only after recovery: replayed documents are already on
	// disk and must not be re-logged.
	repo.journal = d.journalMutation
	if d.snapEvery > 0 {
		d.kick = make(chan struct{}, 1)
		d.stop = make(chan struct{})
		d.done = make(chan struct{})
		go d.compactLoop()
	}
	return d, nil
}

// journalMutation runs under the repository write lock: it frames the
// mutation into the WAL and, with SyncAlways, fsyncs before the mutation is
// acknowledged. d == nil encodes a delete. The document is rendered into
// journalBuf, which the write lock guards.
func (r *DurableRepository) journalMutation(name string, n *doc.Node) error {
	if r.closed.Load() {
		return fmt.Errorf("store: durable repository: %w", ErrClosed)
	}
	op, data := wal.OpDelete, []byte(nil)
	if n != nil {
		r.journalBuf = xmlio.Append(r.journalBuf[:0], n)
		op, data = wal.OpPut, r.journalBuf
	}
	err := r.log.Append(op, name, data)
	if cap(r.journalBuf) > maxJournalBuf {
		r.journalBuf = nil
	}
	if err != nil {
		return fmt.Errorf("store: journaling %q: %w", name, err)
	}
	if r.snapEvery > 0 && r.pending.Add(1) >= int64(r.snapEvery) {
		select {
		case r.kick <- struct{}{}:
		default: // a compaction is already pending
		}
	}
	return nil
}

// compactLoop runs automatic compactions off the mutation path.
func (r *DurableRepository) compactLoop() {
	defer close(r.done)
	for {
		select {
		case <-r.stop:
			return
		case <-r.kick:
			if r.pending.Load() < int64(r.snapEvery) {
				continue // already compacted by an explicit Snapshot call
			}
			// Best-effort: a failed compaction leaves the WAL growing
			// but intact; the next threshold crossing (or Close)
			// retries.
			_ = r.Snapshot()
		}
	}
}

// Snapshot compacts the log now: it rotates the WAL to a fresh generation,
// captures the repository state at the rotation point, streams it into an
// atomic snapshot, and prunes superseded files. Safe to call concurrently
// with mutations; concurrent Snapshot calls are serialized.
func (r *DurableRepository) Snapshot() error {
	r.compactMu.Lock()
	defer r.compactMu.Unlock()
	repo := r.Repository

	// Rotation and state capture must be atomic with respect to
	// mutations: a mutation logged to the old generation is in the
	// capture; one logged to the new generation is replayed over the
	// snapshot.
	repo.mu.Lock()
	seq, err := r.log.Rotate()
	if err != nil {
		repo.mu.Unlock()
		return err
	}
	docs := repo.captureLocked()
	r.pending.Store(0)
	repo.mu.Unlock()

	return r.log.WriteSnapshot(seq, newState(docs).WriteFrames)
}

// Close writes a final snapshot and closes the WAL. Mutations attempted
// after Close fail; reads keep working. Close is idempotent.
func (r *DurableRepository) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	if r.stop != nil {
		close(r.stop)
		<-r.done
	}
	// The final snapshot makes the next boot's recovery a pure snapshot
	// load. journalMutation now rejects new mutations, so the capture is
	// the final state.
	serr := r.Snapshot()
	cerr := r.log.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// WAL exposes the underlying log — the replication layer streams its tail
// (wal.ReadAfter / AppendNotify) and sequences its state exports against
// it. Callers must not Close or Rotate it directly.
func (r *DurableRepository) WAL() *wal.Log {
	return r.log
}

// ExportState captures the full repository state consistently with the WAL
// record sequence: every record with sequence <= seq is reflected in the
// state, and seq+1 is exactly the next record a replica resuming from this
// capture needs. The capture is taken under the repository read lock
// (mutations journal and commit under the write lock, so the pair is atomic
// here); the state renders its documents only when written.
func (r *DurableRepository) ExportState() (state State, seq uint64) {
	repo := r.Repository
	repo.mu.RLock()
	docs := repo.captureLocked()
	seq = r.log.HeadSeq()
	repo.mu.RUnlock()
	return newState(docs), seq
}

// State is a consistent capture of a repository's documents. Stored nodes
// are immutable once acknowledged, so the capture holds references, not
// copies; documents are rendered only as WriteFrames streams them.
type State struct {
	docs []namedDoc // sorted by name
}

type namedDoc struct {
	name string
	node *doc.Node
}

// captureLocked lists the current documents. Caller holds r.mu; newState
// sorts the list once the lock is released.
func (r *Repository) captureLocked() []namedDoc {
	docs := make([]namedDoc, 0, len(r.docs))
	for name, n := range r.docs {
		docs = append(docs, namedDoc{name, n})
	}
	return docs
}

func newState(docs []namedDoc) State {
	slices.SortFunc(docs, func(a, b namedDoc) int { return strings.Compare(a.name, b.name) })
	return State{docs: docs}
}

// WriteFrames writes one OpPut frame per document, in name order, each
// document rendered straight into the frame writer's reused buffer. It is
// the one state writer behind both WAL compaction (into the snapshot file)
// and replica bootstrap (into the /replica/snapshot response): either holds
// one rendered document at a time, whatever the store's size.
func (s State) WriteFrames(fw *wal.FrameWriter) error {
	for _, d := range s.docs {
		if err := fw.WriteFunc(wal.OpPut, d.name, func(b []byte) []byte { return xmlio.Append(b, d.node) }); err != nil {
			return fmt.Errorf("store: writing %q: %w", d.name, err)
		}
	}
	return nil
}

// Stats reports the durable backend counters: WAL state plus recovery facts
// over the embedded repository's document and index counts.
func (r *DurableRepository) Stats() Stats {
	st := r.Repository.Stats()
	st.Backend = BackendWAL
	walStats := r.log.Stats()
	st.WAL = &walStats
	st.RecoveredDocuments = r.recoveredDocs
	st.SnapshotEvery = r.snapEvery
	return st
}
