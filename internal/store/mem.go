package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"axml/internal/doc"
	"axml/internal/wal"
	"axml/internal/xmlio"
)

// Repository is the in-memory DocStore: a map of named intensional
// documents. It is safe for concurrent use. Documents are cloned on the way
// in, so callers can never mutate stored state behind the lock, and stored
// nodes are immutable once the mutating call returns: Get hands out the
// stored tree itself, and DurableRepository snapshots the map with a
// shallow copy.
//
// Every mutation also maintains the function index (see FunctionIndex):
// which documents embed which function labels.
type Repository struct {
	mu     sync.RWMutex
	docs   map[string]*doc.Node
	closed bool
	// journal, when set, observes every mutation under the write lock,
	// before it commits: a journal error aborts the mutation, so an
	// acknowledged mutation is exactly a logged one. d is the node the
	// repository is about to own (nil for deletes); the journal must not
	// retain or mutate it. Installed by DurableRepository.
	journal func(name string, d *doc.Node) error

	// Function index, maintained at the commit point of every mutation:
	// docFuncs records each document's distinct function labels, byFunc is
	// the inverted map answering DocsWithFunction.
	docFuncs map[string][]string
	byFunc   map[string]map[string]struct{}

	// renders holds the rendering slots of the renderedVersions documents
	// most recently asked for by GetRendered, current versions only: every
	// mutation of a name drops its slot. It is guarded by rmu, taken under
	// mu.
	rmu     sync.Mutex
	renders *lruCache
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{
		docs:     make(map[string]*doc.Node),
		docFuncs: make(map[string][]string),
		byFunc:   make(map[string]map[string]struct{}),
		renders:  newLRUCache(renderedVersions),
	}
}

// ValidateDocName rejects names that cannot safely become file names:
// empty, "." / "..", or anything containing a path separator. SaveDir and
// the disk backend join names onto a directory, so an unchecked "../evil"
// would escape it.
func ValidateDocName(name string) error {
	switch {
	case name == "":
		return fmt.Errorf("store: document name must not be empty")
	case name == "." || name == "..":
		return fmt.Errorf("store: %q is not a valid document name", name)
	case strings.ContainsAny(name, `/\`):
		return fmt.Errorf("store: document name %q must not contain path separators", name)
	}
	return nil
}

// indexLocked records name's function labels at the commit point of a
// mutation; funcs == nil (a delete) drops the document from the index. The
// replaced version's rendering slot goes too. Caller holds the write lock.
func (r *Repository) indexLocked(name string, d *doc.Node) {
	r.rmu.Lock()
	r.renders.remove(name)
	r.rmu.Unlock()
	for _, fn := range r.docFuncs[name] {
		if docs := r.byFunc[fn]; docs != nil {
			delete(docs, name)
			if len(docs) == 0 {
				delete(r.byFunc, fn)
			}
		}
	}
	if d == nil {
		delete(r.docFuncs, name)
		return
	}
	funcs := FuncNames(d)
	if len(funcs) == 0 {
		delete(r.docFuncs, name)
		return
	}
	r.docFuncs[name] = funcs
	for _, fn := range funcs {
		docs := r.byFunc[fn]
		if docs == nil {
			docs = make(map[string]struct{})
			r.byFunc[fn] = docs
		}
		docs[name] = struct{}{}
	}
}

// Put stores a document under a name (cloned). Names containing path
// separators are rejected — they would let SaveDir write outside its
// directory.
func (r *Repository) Put(name string, d *doc.Node) error {
	if err := ValidateDocName(name); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("store: put %q: %w", name, ErrClosed)
	}
	c := d.Clone()
	if r.journal != nil {
		if err := r.journal(name, c); err != nil {
			return err
		}
	}
	r.docs[name] = c
	r.indexLocked(name, c)
	return nil
}

// Get returns the named document's stored tree, shared and read-only.
func (r *Repository) Get(name string) (*doc.Node, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.docs[name]
	return d, ok
}

// GetRendered returns the named document's stored tree and the rendering
// of that version: nil on the version's first call, built on its second.
func (r *Repository) GetRendered(name string) (*doc.Node, *xmlio.Rendering, bool) {
	r.mu.RLock()
	d, ok := r.docs[name]
	var slot *renderSlot
	if ok {
		// A slot is dropped whenever its name's document changes, so a
		// cached slot belongs to d.
		r.rmu.Lock()
		if _, hit := r.renders.get(name); !hit {
			r.renders.add(name, d)
		}
		slot = r.renders.slot(name)
		r.rmu.Unlock()
	}
	r.mu.RUnlock()
	if !ok {
		return nil, nil, false
	}
	return d, slot.rendering(), true
}

// Update applies fn to a clone of the stored document under the write lock;
// fn may return a replacement (or the mutated clone). The returned node is
// owned by the repository from that point on: fn must not retain a
// reference to either its argument or its return value, and mutating one
// after Update returns is a contract violation. The clone on the way in is
// what makes retaining the *argument* harmless — it can never alias stored
// state. A miss reports ErrNotFound (wrapped).
func (r *Repository) Update(name string, fn func(*doc.Node) (*doc.Node, error)) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("store: update %q: %w", name, ErrClosed)
	}
	d, ok := r.docs[name]
	if !ok {
		return fmt.Errorf("store: no document %q: %w", name, ErrNotFound)
	}
	next, err := fn(d.Clone())
	if err != nil {
		return err
	}
	if r.journal != nil {
		if err := r.journal(name, next); err != nil {
			return err
		}
	}
	r.docs[name] = next
	r.indexLocked(name, next)
	return nil
}

// Delete removes a document. Deleting an absent name is a no-op. The error
// is always nil for a plain repository; with a durability journal installed
// it reports a failed WAL append, in which case the document is retained.
func (r *Repository) Delete(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("store: delete %q: %w", name, ErrClosed)
	}
	if _, ok := r.docs[name]; !ok {
		return nil
	}
	if r.journal != nil {
		if err := r.journal(name, nil); err != nil {
			return err
		}
	}
	delete(r.docs, name)
	r.indexLocked(name, nil)
	return nil
}

// Names lists stored document names, sorted.
func (r *Repository) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.docs))
	for name := range r.docs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of stored documents.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.docs)
}

// Scan lists up to limit names lexicographically after the cursor.
func (r *Repository) Scan(after string, limit int) ([]string, bool, error) {
	if limit <= 0 {
		limit = DefaultScanLimit
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.docs))
	for name := range r.docs {
		if name > after {
			names = append(names, name)
		}
	}
	r.mu.RUnlock()
	sort.Strings(names)
	more := len(names) > limit
	if more {
		names = names[:limit]
	}
	return names, more, nil
}

// DocsWithFunction returns the sorted names of documents embedding at least
// one function node labeled fn — answered from the maintained index, not by
// walking documents.
func (r *Repository) DocsWithFunction(fn string) ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	docs := r.byFunc[fn]
	out := make([]string, 0, len(docs))
	for name := range docs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// Stats reports the in-memory backend counters.
func (r *Repository) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return Stats{Backend: BackendMem, Documents: len(r.docs), Functions: len(r.byFunc)}
}

// Close retires the repository: subsequent mutations fail with ErrClosed,
// reads keep serving the last committed state. Idempotent.
func (r *Repository) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	return nil
}

// SaveDir persists every document as <name>.xml in dir (created if needed)
// and reconciles the directory against the repository: each file is written
// atomically (temp file, fsync, rename — a crash mid-save never leaves a
// truncated .xml to poison the next LoadDir), and managed files whose
// document no longer exists are removed, so deleted documents do not
// resurrect on the next load. SaveDir owns dir: any *.xml file whose base
// name is a valid document name is considered managed.
func (r *Repository) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, d := range r.docs {
		if err := ValidateDocName(name); err != nil {
			return err // defense in depth: Put already rejects these
		}
		if err := writeDocFile(filepath.Join(dir, name+".xml"), d); err != nil {
			return err
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		// Crashed atomic writes leave temp files; they are never loadable
		// and safe to drop.
		if strings.HasPrefix(e.Name(), wal.TempPrefix) {
			os.Remove(filepath.Join(dir, e.Name()))
			continue
		}
		base, isXML := strings.CutSuffix(e.Name(), ".xml")
		if !isXML || ValidateDocName(base) != nil {
			continue // not a file SaveDir could have written
		}
		if _, ok := r.docs[base]; !ok {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("store: reconciling %s: %w", e.Name(), err)
			}
		}
	}
	return nil
}

// writeDocFile atomically replaces path with n's serialization, streamed
// to the temp file through xmlio.WriteTo's pooled window rather than
// rendered whole first.
func writeDocFile(path string, n *doc.Node) error {
	err := wal.WriteFileAtomicFunc(path, 0o644, func(w io.Writer) error { return xmlio.WriteTo(w, n) })
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// ConflictPolicy decides what LoadDir does when a file's name collides with
// a document already in memory.
type ConflictPolicy int

const (
	// KeepExisting keeps the in-memory document and skips the file — the
	// safe default: recovered (WAL-replayed) state must not be clobbered
	// by a seed directory.
	KeepExisting ConflictPolicy = iota
	// Overwrite replaces the in-memory document with the file's.
	Overwrite
	// FailOnConflict reports the first collision as an error.
	FailOnConflict
)

func (p ConflictPolicy) String() string {
	switch p {
	case KeepExisting:
		return "keep-existing"
	case Overwrite:
		return "overwrite"
	case FailOnConflict:
		return "fail"
	default:
		return fmt.Sprintf("ConflictPolicy(%d)", int(p))
	}
}

// LoadDir loads every *.xml file of dir into the repository, keyed by file
// base name, keeping existing in-memory documents on name collision
// (KeepExisting). Use LoadDirWith to choose another policy.
func (r *Repository) LoadDir(dir string) error {
	_, err := r.LoadDirWith(dir, KeepExisting)
	return err
}

// LoadDirWith is LoadDir under an explicit conflict policy; it reports how
// many documents were actually stored (files skipped by KeepExisting do not
// count).
func (r *Repository) LoadDirWith(dir string, policy ConflictPolicy) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	loaded := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".xml") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return loaded, fmt.Errorf("store: %w", err)
		}
		d, err := xmlio.ParseBytes(data)
		if err != nil {
			return loaded, fmt.Errorf("store: parsing %s: %w", e.Name(), err)
		}
		stored, err := r.putWith(strings.TrimSuffix(e.Name(), ".xml"), d, policy)
		if err != nil {
			return loaded, err
		}
		if stored {
			loaded++
		}
	}
	return loaded, nil
}

// putWith is Put under a conflict policy, atomic with respect to the
// collision check.
func (r *Repository) putWith(name string, d *doc.Node, policy ConflictPolicy) (bool, error) {
	if err := ValidateDocName(name); err != nil {
		return false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false, fmt.Errorf("store: put %q: %w", name, ErrClosed)
	}
	if _, exists := r.docs[name]; exists {
		switch policy {
		case KeepExisting:
			return false, nil
		case FailOnConflict:
			return false, fmt.Errorf("store: document %q already exists", name)
		}
	}
	c := d.Clone()
	if r.journal != nil {
		if err := r.journal(name, c); err != nil {
			return false, err
		}
	}
	r.docs[name] = c
	r.indexLocked(name, c)
	return true, nil
}
