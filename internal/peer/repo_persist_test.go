package peer

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"axml/internal/doc"
	"axml/internal/store"
	"axml/internal/wal"
	"axml/internal/xmlio"
)

// TestSaveDirAtomicReplace: SaveDir must replace files whole. A corrupted
// (crash-truncated) file from an earlier run is healed by the next save,
// and no temp files are ever left for LoadDir to trip on.
func TestSaveDirAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	r := store.NewRepository()
	if err := r.Put("a", doc.Elem("a", doc.TextNode("v1"))); err != nil {
		t.Fatal(err)
	}
	if err := r.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	// Simulate the pre-atomic-write failure mode: a truncated .xml.
	if err := os.WriteFile(filepath.Join(dir, "a.xml"), []byte("<?xml ver"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := store.NewRepository().LoadDir(dir); err == nil {
		t.Fatal("sanity: the truncated file should poison LoadDir")
	}
	if err := r.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	r2 := store.NewRepository()
	if err := r2.LoadDir(dir); err != nil {
		t.Fatalf("save did not heal the truncated file: %v", err)
	}
	if d, ok := r2.Get("a"); !ok || d.Children[0].Value != "v1" {
		t.Errorf("reloaded doc = %v, %v", d, ok)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), wal.TempPrefix) {
			t.Errorf("temp file %s observed after SaveDir", e.Name())
		}
	}
}

// TestSaveDirCleansCrashedTemp: a temp file left by a crash mid-save is
// invisible to LoadDir and removed by the next SaveDir.
func TestSaveDirCleansCrashedTemp(t *testing.T) {
	dir := t.TempDir()
	crashed := filepath.Join(dir, wal.TempPrefix+"42")
	if err := os.WriteFile(crashed, []byte("<a>half a docu"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := store.NewRepository()
	if err := r.LoadDir(dir); err != nil {
		t.Fatalf("LoadDir observed a partially-written temp file: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("loaded %d docs from a temp file", r.Len())
	}
	if err := r.Put("a", doc.Elem("a")); err != nil {
		t.Fatal(err)
	}
	if err := r.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(crashed); !os.IsNotExist(err) {
		t.Error("SaveDir left the crashed temp file in place")
	}
}

// TestSaveDirReconcilesDeletes is the delete→save→load regression: a
// document deleted since the previous save must not resurrect.
func TestSaveDirReconcilesDeletes(t *testing.T) {
	dir := t.TempDir()
	r := store.NewRepository()
	for _, name := range []string{"keep", "drop"} {
		if err := r.Put(name, doc.Elem(name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	// An unmanaged file must survive reconciliation.
	notes := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(notes, []byte("mine"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("drop"); err != nil {
		t.Fatal(err)
	}
	if err := r.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	r2 := store.NewRepository()
	if err := r2.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, ok := r2.Get("drop"); ok {
		t.Error("deleted document resurrected after save/load")
	}
	if _, ok := r2.Get("keep"); !ok {
		t.Error("surviving document lost")
	}
	if _, err := os.Stat(notes); err != nil {
		t.Errorf("unmanaged file removed by reconciliation: %v", err)
	}
}

// TestUpdateClonesOnTheWayIn: a callback that retains its argument must not
// be able to mutate repository state after the lock is released.
func TestUpdateClonesOnTheWayIn(t *testing.T) {
	r := store.NewRepository()
	if err := r.Put("d", doc.Elem("d", doc.TextNode("before"))); err != nil {
		t.Fatal(err)
	}
	var retained *doc.Node
	err := r.Update("d", func(n *doc.Node) (*doc.Node, error) {
		retained = n
		return doc.Elem("d", doc.TextNode("after")), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	retained.Children[0].Value = "MUTATED"
	retained.Children = append(retained.Children, doc.Elem("extra"))
	got, _ := r.Get("d")
	if s := xmlio.MustString(got); strings.Contains(s, "MUTATED") || strings.Contains(s, "extra") {
		t.Errorf("retained callback argument mutated stored state:\n%s", s)
	}
	if got.Children[0].Value != "after" {
		t.Errorf("replacement lost: %v", got.Children[0].Value)
	}
}

func TestLoadDirConflictPolicies(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"a.xml": "<a>from-disk</a>",
		"b.xml": "<b>from-disk</b>",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	inMemory := func() *store.Repository {
		r := store.NewRepository()
		if err := r.Put("a", doc.Elem("a", doc.TextNode("in-memory"))); err != nil {
			t.Fatal(err)
		}
		return r
	}
	text := func(r *store.Repository, name string) string {
		d, ok := r.Get(name)
		if !ok {
			t.Fatalf("doc %q missing", name)
		}
		return d.Children[0].Value
	}

	r := inMemory()
	n, err := r.LoadDirWith(dir, store.KeepExisting)
	if err != nil || n != 1 {
		t.Fatalf("KeepExisting loaded %d, %v; want 1 (only b)", n, err)
	}
	if text(r, "a") != "in-memory" || text(r, "b") != "from-disk" {
		t.Errorf("KeepExisting clobbered in-memory state: a=%q b=%q", text(r, "a"), text(r, "b"))
	}

	r = inMemory()
	n, err = r.LoadDirWith(dir, store.Overwrite)
	if err != nil || n != 2 {
		t.Fatalf("Overwrite loaded %d, %v; want 2", n, err)
	}
	if text(r, "a") != "from-disk" {
		t.Errorf("Overwrite kept the in-memory doc: a=%q", text(r, "a"))
	}

	if _, err := inMemory().LoadDirWith(dir, store.FailOnConflict); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("FailOnConflict error = %v", err)
	}

	// The plain LoadDir default is the safe one.
	r = inMemory()
	if err := r.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if text(r, "a") != "in-memory" {
		t.Error("LoadDir default must keep existing documents")
	}
}
