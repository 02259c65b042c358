// Package store is the peer's pluggable storage engine: a DocStore interface
// over named intensional documents, with three backends behind one
// constructor — the original in-memory map (Repository), the WAL-backed
// durable repository (DurableRepository), and a disk-sharded store (Disk)
// with hot/cold tiering that scales past what fits in memory.
//
// The interface contract, shared by every backend and pinned by the
// storetest conformance suite:
//
//   - Documents are cloned on the way in: a caller can never mutate stored
//     state through a node it handed in. Get hands out the stored tree
//     itself, shared and read-only: two Gets of one version return the same
//     node, and a caller that wants to change a document copies it first
//     (doc.Node.SpineCopy for rewriting, Clone otherwise). Stored nodes
//     never change; a mutation installs a new version.
//   - GetRendered returns a version's tree together with its canonical
//     rendering (xmlio.Rendering), which exchanges splice from. A
//     rendering pays off only for a version exchanged repeatedly: the
//     version's first GetRendered returns none, the second builds it, and
//     it is dropped when the version is replaced or deleted or leaves the
//     backend's bounded set of rendered versions (the hot tier on disk,
//     the 256 documents most recently exchanged on mem and wal).
//   - Mutations are atomic and totally ordered per store; an acknowledged
//     mutation is committed (and, for durable backends, logged) in that
//     order.
//   - Update/Get misses report ErrNotFound (wrapped); Delete of an absent
//     name is a no-op.
//   - After Close, mutations fail and reads keep working against the last
//     committed state.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"axml/internal/doc"
	"axml/internal/telemetry"
	"axml/internal/wal"
	"axml/internal/xmlio"
)

// ErrNotFound is the sentinel reported (wrapped) when an operation names a
// document the store does not hold. Test with errors.Is.
var ErrNotFound = errors.New("document not found")

// ErrClosed is the sentinel reported (wrapped) by mutations attempted after
// Close. Reads are still served from the last committed state.
var ErrClosed = errors.New("store is closed")

// DocStore is the storage engine behind a peer's repository. Implementations
// are safe for concurrent use.
type DocStore interface {
	// Put stores a clone of d under name, replacing any previous document.
	Put(name string, d *doc.Node) error
	// Get returns the named document's stored tree, shared and read-only:
	// the caller must not mutate it. ok is false on a miss.
	Get(name string) (d *doc.Node, ok bool)
	// GetRendered returns the stored tree of the named document's current
	// version together with that version's rendering, atomically. The
	// rendering is nil on the version's first GetRendered and built on its
	// second; a nil rendering splices nothing (xmlio.WriteSplicedTo). Both
	// are read-only. ok is false on a miss.
	GetRendered(name string) (d *doc.Node, r *xmlio.Rendering, ok bool)
	// Update applies fn to a clone of the stored document and commits fn's
	// return value atomically. A miss reports ErrNotFound (wrapped); an fn
	// error aborts the update and leaves the document unchanged.
	Update(name string, fn func(*doc.Node) (*doc.Node, error)) error
	// Delete removes a document; deleting an absent name is a no-op.
	Delete(name string) error
	// Scan lists up to limit stored names lexicographically after the
	// cursor (exclusive; "" starts from the beginning). more reports
	// whether names beyond the returned page exist. limit <= 0 selects a
	// backend default.
	Scan(after string, limit int) (names []string, more bool, err error)
	// Names lists every stored name, sorted.
	Names() []string
	// Len reports the number of stored documents.
	Len() int
	// Stats reports backend-identifying counters for /stats and logging.
	Stats() Stats
	// Close releases the backend (flushing/snapshotting durable state).
	// Idempotent; mutations after Close fail, reads keep working.
	Close() error
}

// FunctionIndex is the optional capability of backends that index function
// nodes as first-class records: "find every document holding a pending
// Get_Temp call" without parsing the corpus. Discover it with a type
// assertion on a DocStore.
type FunctionIndex interface {
	// DocsWithFunction returns the sorted names of every document
	// containing at least one function node labeled fn.
	DocsWithFunction(fn string) ([]string, error)
}

// DefaultScanLimit caps Scan pages when the caller passes limit <= 0.
const DefaultScanLimit = 100

// Backend selector values for Options.Backend.
const (
	BackendMem  = "mem"
	BackendWAL  = "wal"
	BackendDisk = "disk"
)

// Backends lists the selector values Open accepts.
var Backends = []string{BackendMem, BackendWAL, BackendDisk}

// Stats is the uniform backend report: which engine is running, how much it
// holds, and the engine-specific sections (nil when not applicable).
type Stats struct {
	// Backend is the selector value of the running engine.
	Backend string `json:"backend"`
	// Documents is the stored document count.
	Documents int `json:"documents"`
	// Functions is the number of distinct function labels the function
	// index currently tracks (0 for unindexed backends).
	Functions int `json:"functions"`
	// WAL reports write-ahead-log counters (durable backend only).
	WAL *wal.Stats `json:"wal,omitempty"`
	// RecoveredDocuments is how many documents crash recovery restored at
	// Open (durable backend only).
	RecoveredDocuments int `json:"recovered_documents,omitempty"`
	// SnapshotEvery is the compaction threshold (durable backend only).
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	// Disk reports tiering counters (disk backend only).
	Disk *DiskStats `json:"disk,omitempty"`
}

// DiskStats is the disk backend's tiering and sharding report.
type DiskStats struct {
	// Shards is the configured shard-directory count.
	Shards int `json:"shards"`
	// HotCacheCap is the hot-cache budget (decoded documents).
	HotCacheCap int `json:"hot_cache_cap"`
	// HotCached is the current hot-cache population.
	HotCached int `json:"hot_cached"`
	// Hits counts Gets and Updates served from the hot cache.
	Hits uint64 `json:"hits"`
	// Faults counts cold reads that parsed a document file on demand.
	Faults uint64 `json:"faults"`
	// Evictions counts documents pushed out of the hot cache.
	Evictions uint64 `json:"evictions"`
	// IndexRepairs counts index entries rebuilt at Open because the
	// per-shard index disagreed with the document files (crash before a
	// deferred index flush).
	IndexRepairs int `json:"index_repairs"`
	// IndexFlushes counts shard-index writes performed at flush points
	// (Close, Scan, Flush). Mutations debounce the index.json rewrite, so
	// this is typically far below the mutation count.
	IndexFlushes uint64 `json:"index_flushes"`
}

// Options configures Open.
type Options struct {
	// Backend selects the engine: BackendMem (default), BackendWAL or
	// BackendDisk.
	Backend string
	// Dir is the data directory (required for wal and disk).
	Dir string
	// Sync is the WAL fsync discipline (wal backend).
	Sync wal.SyncMode
	// SyncInterval is the background fsync period for wal.SyncInterval.
	SyncInterval time.Duration
	// SnapshotEvery compacts the WAL after this many mutations (wal
	// backend); 0 snapshots only on Close.
	SnapshotEvery int
	// HotCache is the disk backend's decoded-document budget (default
	// DefaultHotCache).
	HotCache int
	// Shards is the disk backend's shard-directory count (default
	// DefaultShards).
	Shards int
	// Registry, when non-nil, instruments the backend (axml_wal_* for the
	// durable engine, axml_store_* for disk).
	Registry *telemetry.Registry
	// ReplicaTail, when positive, keeps that many recent WAL records in
	// memory for replication streaming (wal backend only) — set on a
	// federation leader.
	ReplicaTail int
}

// Open builds the selected backend; it is the only constructor of the wal
// backend, whose result is a *DurableRepository. An empty Backend selects
// mem.
func Open(opts Options) (DocStore, error) {
	switch opts.Backend {
	case "", BackendMem:
		return NewRepository(), nil
	case BackendWAL:
		if opts.Dir == "" {
			return nil, fmt.Errorf("store: the wal backend requires a data directory")
		}
		d, err := openDurable(opts)
		if err != nil {
			return nil, err
		}
		return d, nil
	case BackendDisk:
		if opts.Dir == "" {
			return nil, fmt.Errorf("store: the disk backend requires a data directory")
		}
		return OpenDisk(opts.Dir, DiskOptions{
			HotCache: opts.HotCache,
			Shards:   opts.Shards,
			Metrics:  NewMetrics(opts.Registry),
		})
	default:
		return nil, fmt.Errorf("store: unknown backend %q (want one of %v)", opts.Backend, Backends)
	}
}

// FuncNames returns the distinct function labels embedded in d, sorted —
// the record the function index maintains per document.
func FuncNames(d *doc.Node) []string {
	if d == nil {
		return nil
	}
	var names []string
	seen := make(map[string]struct{})
	d.Walk(func(n *doc.Node) bool {
		if n.Kind == doc.Func {
			if _, dup := seen[n.Label]; !dup {
				seen[n.Label] = struct{}{}
				names = append(names, n.Label)
			}
		}
		return true
	})
	sort.Strings(names)
	return names
}

// SeedDir loads every *.xml file of dir into any DocStore, keyed by file
// base name, under the given conflict policy; it reports how many documents
// were stored. The Repository backends keep their policy-atomic LoadDirWith;
// this generic path checks-then-puts, which is exact for single-writer
// seeding (daemon boot).
func SeedDir(s DocStore, dir string, policy ConflictPolicy) (int, error) {
	if r, ok := s.(*Repository); ok {
		return r.LoadDirWith(dir, policy)
	}
	if d, ok := s.(*DurableRepository); ok {
		return d.LoadDirWith(dir, policy)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	loaded := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".xml") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".xml")
		if _, exists := s.Get(name); exists {
			switch policy {
			case KeepExisting:
				continue
			case FailOnConflict:
				return loaded, fmt.Errorf("store: document %q already exists", name)
			}
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return loaded, fmt.Errorf("store: %w", err)
		}
		d, err := xmlio.ParseBytes(data)
		if err != nil {
			return loaded, fmt.Errorf("store: parsing %s: %w", e.Name(), err)
		}
		if err := s.Put(name, d); err != nil {
			return loaded, err
		}
		loaded++
	}
	return loaded, nil
}
