package peer

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"axml/internal/doc"
	"axml/internal/store"
	"axml/internal/wal"
)

// openWAL opens the wal backend in dir through store.Open.
func openWAL(dir string, opts store.Options) (*store.DurableRepository, error) {
	opts.Backend, opts.Dir = store.BackendWAL, dir
	st, err := store.Open(opts)
	if err != nil {
		return nil, err
	}
	return st.(*store.DurableRepository), nil
}

func openDurable(t *testing.T, dir string, opts store.Options) *store.DurableRepository {
	t.Helper()
	d, err := openWAL(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, store.Options{})
	if err := d.Put("news", doc.Elem("news", doc.TextNode("day1"))); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("weather", doc.Elem("weather")); err != nil {
		t.Fatal(err)
	}
	if err := d.Update("news", func(n *doc.Node) (*doc.Node, error) {
		n.Children[0].Value = "day2"
		return n, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("weather"); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openDurable(t, dir, store.Options{})
	if d2.Len() != 1 {
		t.Fatalf("recovered %d docs (%v), want 1", d2.Len(), d2.Names())
	}
	got, ok := d2.Get("news")
	if !ok || got.Children[0].Value != "day2" {
		t.Errorf("recovered news = %v, %v", got, ok)
	}
	if _, ok := d2.Get("weather"); ok {
		t.Error("deleted document resurrected after restart")
	}
	if st := d2.Stats(); st.RecoveredDocuments != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// Recovery with no snapshot at all (a crash before the first compaction):
// the WAL tail alone must reconstruct everything acknowledged.
func TestDurableRecoveryFromWALTailOnly(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		rec := fmt.Sprintf("<d>%d</d>", i)
		if err := l.Append(wal.OpPut, fmt.Sprintf("doc%02d", i), []byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Append(wal.OpDelete, "doc05", nil); err != nil {
		t.Fatal(err)
	}
	l.Close() // closes the file but writes no snapshot, like a crash would

	d := openDurable(t, dir, store.Options{})
	if d.Len() != 19 {
		t.Fatalf("recovered %d docs, want 19", d.Len())
	}
	if _, ok := d.Get("doc05"); ok {
		t.Error("deleted document resurrected")
	}
	if st := d.Stats(); st.WAL.RecoveryReplayed != 21 || st.WAL.RecoveryTruncated != 0 {
		t.Errorf("recovery stats = %+v", st)
	}
}

func TestDurableAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, store.Options{SnapshotEvery: 8, Sync: wal.SyncNone})
	for i := 0; i < 50; i++ {
		if err := d.Put(fmt.Sprintf("doc%02d", i%10), doc.Elem("d", doc.TextNode(fmt.Sprint(i)))); err != nil {
			t.Fatal(err)
		}
	}
	// The compactor runs off the mutation path; give it time to take the
	// kick before Close writes the final snapshot.
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().WAL.Snapshots == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if st := d.Stats(); st.WAL.Snapshots == 0 {
		t.Errorf("no automatic compaction after 50 mutations with SnapshotEvery=8 (stats %+v)", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.WAL.Snapshots < 2 {
		t.Errorf("expected automatic + final compactions, got %d snapshots (stats %+v)", st.WAL.Snapshots, st)
	}
	d2 := openDurable(t, dir, store.Options{})
	if d2.Len() != 10 {
		t.Errorf("recovered %d docs, want 10", d2.Len())
	}
}

func TestDurableClosedRejectsMutations(t *testing.T) {
	d := openDurable(t, t.TempDir(), store.Options{})
	if err := d.Put("a", doc.Elem("a")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("b", doc.Elem("b")); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("put after close = %v", err)
	}
	if err := d.Delete("a"); err == nil {
		t.Error("delete after close accepted")
	}
	if err := d.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	// Reads still work: the in-memory state is intact.
	if _, ok := d.Get("a"); !ok {
		t.Error("read after close lost the document")
	}
}

// TestDurableSeedDoesNotClobberRecovery: the LoadDir conflict policy must
// keep WAL-recovered state when a seed directory collides.
func TestDurableSeedDoesNotClobberRecovery(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, store.Options{})
	if err := d.Put("a", doc.Elem("a", doc.TextNode("recovered"))); err != nil {
		t.Fatal(err)
	}
	d.Close()

	seed := t.TempDir()
	for name, content := range map[string]string{"a.xml": "<a>seed</a>", "b.xml": "<b>seed</b>"} {
		if err := os.WriteFile(filepath.Join(seed, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d2 := openDurable(t, dir, store.Options{})
	n, err := d2.LoadDirWith(seed, store.KeepExisting)
	if err != nil || n != 1 {
		t.Fatalf("seed load = %d, %v; want 1", n, err)
	}
	got, _ := d2.Get("a")
	if got.Children[0].Value != "recovered" {
		t.Errorf("seed clobbered recovered state: %v", got.Children[0].Value)
	}
	d2.Close()

	// The seeded document was journaled and survives the next restart.
	d3 := openDurable(t, dir, store.Options{})
	if _, ok := d3.Get("b"); !ok {
		t.Error("seeded document not persisted")
	}
}

// TestDurableConcurrentHammer drives concurrent Put/Update/Delete against
// the WAL writer (run under -race in CI) and checks the recovered state
// equals the final in-memory state exactly.
func TestDurableConcurrentHammer(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, store.Options{Sync: wal.SyncNone, SnapshotEvery: 64})
	const workers = 8
	const opsPerWorker = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				name := fmt.Sprintf("doc%d", (w*7+i)%20)
				switch i % 5 {
				case 0, 1, 2:
					if err := d.Put(name, doc.Elem("d", doc.TextNode(fmt.Sprintf("%d-%d", w, i)))); err != nil {
						t.Error(err)
						return
					}
				case 3:
					_ = d.Update(name, func(n *doc.Node) (*doc.Node, error) {
						n.Children = append(n.Children, doc.Elem("upd"))
						return n, nil
					}) // may fail on absent name; fine
				case 4:
					if err := d.Delete(name); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	final := map[string]string{}
	for _, name := range d.Names() {
		n, _ := d.Get(name)
		final[name] = n.String()
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openDurable(t, dir, store.Options{})
	if d2.Len() != len(final) {
		t.Fatalf("recovered %d docs, want %d", d2.Len(), len(final))
	}
	for name, want := range final {
		n, ok := d2.Get(name)
		if !ok || n.String() != want {
			t.Errorf("doc %q: recovered %v (present=%v), want %v", name, n, ok, want)
		}
	}
}

func TestOpenDurableRejectsUnparseableState(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(wal.OpPut, "bad", []byte("<unclosed>")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := openWAL(dir, store.Options{}); err == nil {
		t.Error("unparseable logged document silently accepted")
	}
}
