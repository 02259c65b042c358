package store_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"axml/internal/doc"
	"axml/internal/store"
	"axml/internal/store/storetest"
	"axml/internal/wal"
	"axml/internal/xmlio"
)

// TestConformance runs the shared storetest contract against every backend.
func TestConformance(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		storetest.Run(t, storetest.Factory{
			Name: "mem",
			Open: func(t *testing.T) store.DocStore { return store.NewRepository() },
		})
	})

	t.Run("wal", func(t *testing.T) {
		var dir string
		open := func(t *testing.T) store.DocStore {
			d, err := store.Open(store.Options{Backend: store.BackendWAL, Dir: dir, Sync: wal.SyncNone})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			return d
		}
		storetest.Run(t, storetest.Factory{
			Name: "wal",
			Open: func(t *testing.T) store.DocStore {
				dir = t.TempDir()
				return open(t)
			},
			Reopen: open,
		})
	})

	t.Run("disk", func(t *testing.T) {
		var dir string
		// A deliberately tiny hot cache: the conformance corpus exceeds
		// it, so every subtest also exercises faulting and eviction.
		open := func(t *testing.T) store.DocStore {
			d, err := store.OpenDisk(dir, store.DiskOptions{HotCache: 3, Shards: 4})
			if err != nil {
				t.Fatalf("OpenDisk: %v", err)
			}
			return d
		}
		storetest.Run(t, storetest.Factory{
			Name: "disk",
			Open: func(t *testing.T) store.DocStore {
				dir = t.TempDir()
				return open(t)
			},
			Reopen: open,
		})
	})
}

// TestOpenSelectsBackend pins the constructor's dispatch and validation.
func TestOpenSelectsBackend(t *testing.T) {
	s, err := store.Open(store.Options{})
	if err != nil || s.Stats().Backend != store.BackendMem {
		t.Errorf("Open default = %v backend %q, want mem", err, s.Stats().Backend)
	}
	dir := t.TempDir()
	for _, backend := range []string{store.BackendWAL, store.BackendDisk} {
		s, err := store.Open(store.Options{Backend: backend, Dir: filepath.Join(dir, backend), Sync: wal.SyncNone})
		if err != nil {
			t.Fatalf("Open(%s) = %v", backend, err)
		}
		if got := s.Stats().Backend; got != backend {
			t.Errorf("Stats().Backend = %q, want %q", got, backend)
		}
		s.Close()
		if _, err := store.Open(store.Options{Backend: backend}); err == nil {
			t.Errorf("Open(%s) without Dir should fail", backend)
		}
	}
	if _, err := store.Open(store.Options{Backend: "ramdisk"}); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("Open(ramdisk) = %v", err)
	}
}

func putCorpus(t *testing.T, s store.DocStore, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		d := doc.Elem("page",
			doc.TextNode(fmt.Sprintf("body %d", i)),
			doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))))
		if err := s.Put(fmt.Sprintf("doc-%03d", i), d); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiskTiering drives a population well past the hot-cache budget and
// watches the tiering counters: cold reads fault document files in on
// demand, hot reads hit, and the cache never exceeds its cap.
func TestDiskTiering(t *testing.T) {
	d, err := store.OpenDisk(t.TempDir(), store.DiskOptions{HotCache: 4, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 24
	putCorpus(t, d, n)

	st := d.Stats().Disk
	if st.Evictions == 0 {
		t.Errorf("writing %d docs through a 4-doc cache evicted nothing: %+v", n, st)
	}
	if st.HotCached > 4 {
		t.Errorf("hot cache over budget: %d > 4", st.HotCached)
	}

	// A full sweep must fault in at least the cold majority...
	for i := 0; i < n; i++ {
		if _, ok := d.Get(fmt.Sprintf("doc-%03d", i)); !ok {
			t.Fatalf("doc-%03d missing", i)
		}
	}
	st = d.Stats().Disk
	if st.Faults < n-4 {
		t.Errorf("full sweep faulted %d times, want >= %d", st.Faults, n-4)
	}
	// ...while re-reading the most recent resident stays in memory.
	before := st.Hits
	last := fmt.Sprintf("doc-%03d", n-1)
	for i := 0; i < 3; i++ {
		d.Get(last)
	}
	if st = d.Stats().Disk; st.Hits < before+3 {
		t.Errorf("hot re-reads: hits %d -> %d, want +3", before, st.Hits)
	}

	sizes := d.ShardSizes()
	total := 0
	for _, c := range sizes {
		total += c
	}
	if total != n || len(sizes) < 2 {
		t.Errorf("ShardSizes = %v (total %d), want %d docs spread over shards", sizes, total, n)
	}
}

// TestDiskIndexSelfHeal corrupts the persisted per-shard index in the two
// ways a crash can (stale entry for a changed file; index missing entirely)
// and proves Open notices, re-parses exactly the disagreeing documents, and
// serves correct answers from the repaired index.
func TestDiskIndexSelfHeal(t *testing.T) {
	dir := t.TempDir()
	d, err := store.OpenDisk(dir, store.DiskOptions{HotCache: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	putCorpus(t, d, 6)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite one document file behind the store's back, swapping its
	// function call: the index entry's (size, mtime) no longer match.
	var victim string
	err = filepath.WalkDir(dir, func(path string, de os.DirEntry, err error) error {
		if err == nil && !de.IsDir() && strings.HasSuffix(path, "doc-002.xml") {
			victim = path
		}
		return err
	})
	if err != nil || victim == "" {
		t.Fatalf("victim file not found under %s: %v", dir, err)
	}
	swapped := xmlio.MustString(doc.Elem("page", doc.Call("Get_Time")))
	if err := os.WriteFile(victim, []byte(swapped), 0o644); err != nil {
		t.Fatal(err)
	}
	// And delete another shard's index outright.
	var droppedIndex string
	filepath.WalkDir(dir, func(path string, de os.DirEntry, _ error) error {
		if !de.IsDir() && filepath.Base(path) == "index.json" && !strings.Contains(path, filepath.Dir(victim)) {
			droppedIndex = path
		}
		return nil
	})
	if droppedIndex == "" {
		t.Fatal("no second shard index to drop")
	}
	if err := os.Remove(droppedIndex); err != nil {
		t.Fatal(err)
	}

	d2, err := store.OpenDisk(dir, store.DiskOptions{HotCache: 8, Shards: 2})
	if err != nil {
		t.Fatalf("reopen over a damaged index: %v", err)
	}
	defer d2.Close()
	if got := d2.Stats().Disk.IndexRepairs; got < 2 {
		t.Errorf("IndexRepairs = %d, want >= 2 (rewritten file + dropped index)", got)
	}
	if got := d2.Len(); got != 6 {
		t.Errorf("Len after heal = %d, want 6", got)
	}
	if node, ok := d2.Get("doc-002"); !ok || node.Children[0].Kind != doc.Func || node.Children[0].Label != "Get_Time" {
		t.Errorf("rewritten document not re-read: %v, %v", node, ok)
	}
	docs, err := d2.DocsWithFunction("Get_Time")
	if err != nil || fmt.Sprint(docs) != fmt.Sprint([]string{"doc-002"}) {
		t.Errorf("healed index: Get_Time in %v (%v), want [doc-002]", docs, err)
	}
	if docs, _ := d2.DocsWithFunction("Get_Temp"); len(docs) != 5 {
		t.Errorf("healed index: Get_Temp in %d docs, want 5", len(docs))
	}
}

// indexedDocs sums the entries across every shard index.json under dir.
func indexedDocs(t *testing.T, dir string) int {
	t.Helper()
	total := 0
	filepath.WalkDir(dir, func(path string, de os.DirEntry, _ error) error {
		if de.IsDir() || filepath.Base(path) != "index.json" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var idx map[string]json.RawMessage
		if err := json.Unmarshal(data, &idx); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		total += len(idx)
		return nil
	})
	return total
}

// TestDiskIndexDebounce: mutations defer the shard-index rewrite; Scan and
// Close are flush points; a crash (reopen without Close) in the deferral
// window is absorbed by the (size, mtime) self-heal.
func TestDiskIndexDebounce(t *testing.T) {
	dir := t.TempDir()
	d, err := store.OpenDisk(dir, store.DiskOptions{HotCache: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	putCorpus(t, d, 6)
	if got := indexedDocs(t, dir); got != 0 {
		t.Errorf("after 6 Puts, %d docs indexed on disk; the rewrite must be deferred", got)
	}
	if got := d.Stats().Disk.IndexFlushes; got != 0 {
		t.Errorf("IndexFlushes = %d before any flush point", got)
	}

	// Scan is a flush point: the on-disk index catches up.
	if _, _, err := d.Scan("", 100); err != nil {
		t.Fatal(err)
	}
	if got := indexedDocs(t, dir); got != 6 {
		t.Errorf("after Scan, %d docs indexed on disk, want 6", got)
	}
	if got := d.Stats().Disk.IndexFlushes; got == 0 {
		t.Error("Scan flushed no shard index")
	}

	// Mutate past the flush and crash: drop the handle without Close. The
	// on-disk index now lags (one new doc, one deleted doc).
	if err := d.Put("doc-new", doc.Elem("page", doc.Call("Get_Time"))); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("doc-000"); err != nil {
		t.Fatal(err)
	}
	if got := indexedDocs(t, dir); got != 6 {
		t.Errorf("deferral window: %d docs indexed on disk, want the stale 6", got)
	}

	d2, err := store.OpenDisk(dir, store.DiskOptions{HotCache: 8, Shards: 2})
	if err != nil {
		t.Fatalf("reopen over a stale index: %v", err)
	}
	defer d2.Close()
	if got := d2.Len(); got != 6 {
		t.Errorf("Len after crash-reopen = %d, want 6 (doc-new in, doc-000 out)", got)
	}
	if got := d2.Stats().Disk.IndexRepairs; got < 1 {
		t.Errorf("IndexRepairs = %d, want >= 1 (doc-new was never indexed)", got)
	}
	if docs, err := d2.DocsWithFunction("Get_Time"); err != nil || fmt.Sprint(docs) != fmt.Sprint([]string{"doc-new"}) {
		t.Errorf("healed index: Get_Time in %v (%v), want [doc-new]", docs, err)
	}
	if _, ok := d2.Get("doc-000"); ok {
		t.Error("deleted document resurrected by the stale index")
	}
	// loadShard pruned and repaired: the reopened directory is fully
	// indexed again without any explicit flush.
	if got := indexedDocs(t, dir); got != 6 {
		t.Errorf("after self-heal, %d docs indexed on disk, want 6", got)
	}

	// Close is the other flush point.
	if err := d2.Put("doc-final", doc.Elem("page", doc.TextNode("bye"))); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := indexedDocs(t, dir); got != 7 {
		t.Errorf("after Close, %d docs indexed on disk, want 7", got)
	}
	d3, err := store.OpenDisk(dir, store.DiskOptions{HotCache: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if got := d3.Stats().Disk.IndexRepairs; got != 0 {
		t.Errorf("clean Close then reopen repaired %d entries, want 0", got)
	}
}

// TestDiskSweepsTempFiles: an interrupted atomic write leaves a temp file;
// reopening the shard removes it and ignores it as a document.
func TestDiskSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	d, err := store.OpenDisk(dir, store.DiskOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	putCorpus(t, d, 2)
	d.Close()

	shard := filepath.Join(dir, "shard-00")
	stray := filepath.Join(shard, wal.TempPrefix+"doc-xyz.xml")
	if err := os.WriteFile(stray, []byte("<torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := store.OpenDisk(dir, store.DiskOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != 2 {
		t.Errorf("Len = %d, want 2 (temp file must not count)", d2.Len())
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("temp file not swept: %v", err)
	}
}

// TestDiskReshard reopens a populated directory with a different shard
// count: existing files stay readable under their original shards.
func TestDiskReshard(t *testing.T) {
	dir := t.TempDir()
	d, err := store.OpenDisk(dir, store.DiskOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	putCorpus(t, d, 10)
	d.Close()

	d2, err := store.OpenDisk(dir, store.DiskOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != 10 {
		t.Fatalf("Len after reshard = %d, want 10", d2.Len())
	}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("doc-%03d", i)
		if _, ok := d2.Get(name); !ok {
			t.Errorf("%s lost after reshard", name)
		}
		// Overwrites must land on the document's existing shard, not
		// strand a second copy under the new hash.
		if err := d2.Put(name, doc.Elem("page", doc.TextNode("v2"))); err != nil {
			t.Fatal(err)
		}
	}
	files := 0
	filepath.WalkDir(dir, func(path string, de os.DirEntry, _ error) error {
		if !de.IsDir() && strings.HasSuffix(path, ".xml") {
			files++
		}
		return nil
	})
	if files != 10 {
		t.Errorf("%d document files on disk, want 10 (no strands)", files)
	}
}

// TestUnrepresentableTextSurvivesReopen: text XML cannot carry verbatim —
// control characters, invalid UTF-8 — reaches a durable backend from local
// services and Go callers. The stored form must parse back at recovery, and
// reads must serve the same bytes before and after a reopen.
func TestUnrepresentableTextSurvivesReopen(t *testing.T) {
	texts := map[string]string{
		"memo":  "tab\x01bed",
		"ctl":   "a\x00b\x1fc",
		"utf8":  "bad\xffutf8",
		"nonch": "x\uFFFEy\uFFFF",
	}
	for _, backend := range []string{store.BackendWAL, store.BackendDisk} {
		t.Run(backend, func(t *testing.T) {
			opts := store.Options{Backend: backend, Dir: t.TempDir(), Sync: wal.SyncNone}
			s, err := store.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			before := map[string]string{}
			for name, text := range texts {
				if err := s.Put(name, doc.Elem(name, doc.TextNode(text), doc.Call("f", doc.TextNode(text)))); err != nil {
					t.Fatalf("Put %s: %v", name, err)
				}
				d, ok := s.Get(name)
				if !ok {
					t.Fatalf("Get %s: miss", name)
				}
				before[name] = xmlio.MustString(d)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, err = store.Open(opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer s.Close()
			for name := range texts {
				d, ok := s.Get(name)
				if !ok {
					t.Fatalf("Get %s after reopen: miss", name)
				}
				if got := xmlio.MustString(d); got != before[name] {
					t.Errorf("%s: bytes changed across reopen:\nbefore %q\nafter  %q", name, before[name], got)
				}
			}
		})
	}
}
