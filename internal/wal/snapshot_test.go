package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// docset appends n put records and returns the expected state.
func docset(t *testing.T, l *Log, n int, gen string) map[string]string {
	t.Helper()
	want := make(map[string]string, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("d%d", i)
		data := fmt.Sprintf("<d gen=%q>%d</d>", gen, i)
		if err := l.Append(OpPut, name, []byte(data)); err != nil {
			t.Fatal(err)
		}
		want[name] = data
	}
	return want
}

func assertState(t *testing.T, got map[string][]byte, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d docs, want %d (%v)", len(got), len(want), keys(got))
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || string(g) != v {
			t.Errorf("doc %q = %q (present=%v), want %q", k, g, ok, v)
		}
	}
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// compact runs the full rotate-then-snapshot protocol on the current docs.
func compact(t *testing.T, l *Log, docs map[string]string) uint64 {
	t.Helper()
	seq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(seq, writeDocs(docs)); err != nil {
		t.Fatal(err)
	}
	return seq
}

// writeString writes one OpPut frame carrying data.
func writeString(fw *FrameWriter, name, data string) error {
	return fw.WriteFunc(OpPut, name, func(b []byte) []byte { return append(b, data...) })
}

// writeDocs returns a snapshot writer emitting docs as OpPut frames in
// name order.
func writeDocs(docs map[string]string) func(*FrameWriter) error {
	return func(fw *FrameWriter) error {
		names := make([]string, 0, len(docs))
		for name := range docs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := writeString(fw, name, docs[name]); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestSnapshotCompactionAndRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	want := docset(t, l, 8, "g0")
	seq := compact(t, l, want)
	if seq != 1 {
		t.Fatalf("first rotation seq = %d, want 1", seq)
	}
	// Mutations after the snapshot go to the new generation's WAL.
	if err := l.Append(OpDelete, "d0", nil); err != nil {
		t.Fatal(err)
	}
	delete(want, "d0")
	if err := l.Append(OpPut, "d1", []byte("<d>post-snap</d>")); err != nil {
		t.Fatal(err)
	}
	want["d1"] = "<d>post-snap</d>"
	l.Close()

	// Compaction removed the generation-0 WAL.
	if _, err := os.Stat(filepath.Join(dir, walName(0))); !os.IsNotExist(err) {
		t.Errorf("superseded wal-0 still present: %v", err)
	}

	_, state := mustOpen(t, dir, Options{})
	if state.SnapshotSeq != 1 {
		t.Errorf("recovered from snapshot seq %d, want 1", state.SnapshotSeq)
	}
	if state.ReplayedRecords != 2 {
		t.Errorf("replayed %d, want 2 (only the post-snapshot tail)", state.ReplayedRecords)
	}
	assertState(t, state.Docs, want)
}

// Crash window 1: rotation happened, snapshot never landed. Recovery must
// replay BOTH generations' WALs over the previous snapshot, in order.
func TestCrashBetweenRotateAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	want := docset(t, l, 4, "g0")
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	// "Crash": no WriteSnapshot. Post-rotation mutations still happen.
	if err := l.Append(OpPut, "late", []byte("<late/>")); err != nil {
		t.Fatal(err)
	}
	want["late"] = "<late/>"
	l.Close()

	_, state := mustOpen(t, dir, Options{})
	if state.SnapshotSeq != 0 {
		t.Errorf("snapshot seq %d, want 0 (none written)", state.SnapshotSeq)
	}
	if state.ReplayedRecords != 5 {
		t.Errorf("replayed %d, want 5 (both generations)", state.ReplayedRecords)
	}
	assertState(t, state.Docs, want)
}

// Crash window 2: snapshot landed but the superseded files were not yet
// removed. Replaying must start at the snapshot — the stale older WAL must
// not clobber newer state — and recovery cleans the stale files up.
func TestStaleWalIgnoredAfterSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	docset(t, l, 4, "g0")
	// Manually run the protocol so we can resurrect the stale WAL after
	// WriteSnapshot's cleanup (simulating a crash before cleanup).
	stale, err := os.ReadFile(filepath.Join(dir, walName(0)))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"d0": "<d>only</d>"}
	compact(t, l, want) // snapshot pretends d1..d3 were deleted
	if err := os.WriteFile(filepath.Join(dir, walName(0)), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, state := mustOpen(t, dir, Options{})
	assertState(t, state.Docs, want)
	if state.ReplayedRecords != 0 {
		t.Errorf("replayed %d stale records, want 0", state.ReplayedRecords)
	}
	if _, err := os.Stat(filepath.Join(dir, walName(0))); !os.IsNotExist(err) {
		t.Error("recovery did not remove the stale generation-0 WAL")
	}
}

// Crash window 3: a torn snapshot temp file is ignored; a corrupt *.snap
// falls back to the previous valid generation.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	want := docset(t, l, 3, "g0")
	compact(t, l, want)
	l.Close()

	// A half-written temp file from a crashed atomic write.
	if err := os.WriteFile(filepath.Join(dir, TempPrefix+"123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A later snapshot whose bytes rotted.
	bad := append([]byte(snapMagic), []byte("garbage-frame")...)
	if err := os.WriteFile(filepath.Join(dir, snapName(5)), bad, 0o644); err != nil {
		t.Fatal(err)
	}

	_, state := mustOpen(t, dir, Options{})
	if state.SkippedSnapshots != 1 {
		t.Errorf("skipped %d snapshots, want 1", state.SkippedSnapshots)
	}
	if state.SnapshotSeq != 1 {
		t.Errorf("fell back to seq %d, want 1", state.SnapshotSeq)
	}
	assertState(t, state.Docs, want)
	if _, err := os.Stat(filepath.Join(dir, TempPrefix+"123")); !os.IsNotExist(err) {
		t.Error("crashed temp file not cleaned up")
	}
}

// A snapshot whose state writer fails partway — after some frames reached
// the temp file — leaves no temp file and no snapshot behind, and recovery
// still reconstructs the state from before the compaction.
func TestFailedSnapshotWriteLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	want := docset(t, l, 6, "g0")
	compact(t, l, want)
	want = docset(t, l, 6, "g1")
	seq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	encoderErr := errors.New("encoder failed")
	frames := 0
	err = l.WriteSnapshot(seq, func(fw *FrameWriter) error {
		for name, data := range want {
			if frames == 3 {
				return encoderErr
			}
			if err := writeString(fw, name, data); err != nil {
				return err
			}
			frames++
		}
		return nil
	})
	if !errors.Is(err, encoderErr) {
		t.Fatalf("WriteSnapshot = %v, want the writer's error", err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), TempPrefix) || e.Name() == snapName(seq) {
			t.Errorf("failed snapshot left %s behind", e.Name())
		}
	}
	if st := l.Stats(); st.Snapshots != 1 {
		t.Errorf("snapshots = %d, want 1 (the failed one does not count)", st.Snapshots)
	}
	l.Close()

	_, state := mustOpen(t, dir, Options{})
	if state.SnapshotSeq != 1 {
		t.Errorf("recovered from snapshot %d, want 1", state.SnapshotSeq)
	}
	assertState(t, state.Docs, want)
}

func TestSnapshotMagicRequired(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName(1)), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, state := mustOpen(t, dir, Options{})
	if state.SkippedSnapshots != 1 || state.SnapshotSeq != 0 {
		t.Errorf("state = %+v, want the bogus snapshot skipped", state)
	}
}

func TestRepeatedCompactionsAdvanceGenerations(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	var want map[string]string
	for round := 0; round < 3; round++ {
		want = docset(t, l, 4, fmt.Sprintf("g%d", round))
		compact(t, l, want)
	}
	if st := l.Stats(); st.Generation != 3 || st.Snapshots != 3 {
		t.Errorf("stats after 3 compactions: %+v", st)
	}
	l.Close()
	walSeqs, snapSeqs, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(walSeqs) != 1 || walSeqs[0] != 3 || len(snapSeqs) != 1 || snapSeqs[0] != 3 {
		t.Errorf("leftover files: wals=%v snaps=%v, want only generation 3", walSeqs, snapSeqs)
	}
	_, state := mustOpen(t, dir, Options{})
	assertState(t, state.Docs, want)
}

func TestWriteFileAtomicReplacesWholeFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.xml")
	if err := WriteFileAtomic(path, []byte("first version"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2"), 0o600); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "v2" {
		t.Fatalf("read back %q, %v", data, err)
	}
	info, _ := os.Stat(path)
	if info.Mode().Perm() != 0o600 {
		t.Errorf("perm = %v, want 0600", info.Mode().Perm())
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), TempPrefix) {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

func TestWriteFileAtomicMissingDir(t *testing.T) {
	err := WriteFileAtomic(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), []byte("x"), 0o644)
	if err == nil {
		t.Error("write into missing directory should fail")
	}
}
