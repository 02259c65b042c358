package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"axml/internal/doc"
	"axml/internal/wal"
	"axml/internal/xmlio"
)

// snapshotFile returns the bytes of the one snapshot file in dir.
func snapshotFile(t *testing.T, dir string) []byte {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("snapshot files in %s: %v, %v", dir, matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// wantFrames is the reference encoding of a state: one OpPut frame per
// document, in name order, carrying xmlio.String's rendering.
func wantFrames(t *testing.T, docs map[string]*doc.Node) []byte {
	t.Helper()
	names := make([]string, 0, len(docs))
	for name := range docs {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf []byte
	for _, name := range names {
		s, err := xmlio.String(docs[name])
		if err != nil {
			t.Fatal(err)
		}
		buf = wal.EncodeFrame(buf, wal.Record{Op: wal.OpPut, Name: name, Data: []byte(s)})
	}
	return buf
}

// The streamed snapshot file is the magic string followed by EncodeFrame's
// frames in name order, and an exported state writes exactly those frames:
// compaction and bootstrap share one format.
func TestSnapshotStreamsNameOrderedFrames(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	docs := map[string]*doc.Node{
		"zeta":  doc.Elem("z", doc.TextNode("last & <escaped>")),
		"alpha": doc.Elem("a", doc.Elem("b", doc.TextNode("x")), doc.Elem("c")),
		"mid":   doc.Elem("m", doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris")))),
		"Upper": doc.Elem("u"),
	}
	for _, name := range []string{"zeta", "mid", "Upper", "alpha"} {
		if err := d.Put(name, docs[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	frames := wantFrames(t, docs)
	if got, want := snapshotFile(t, dir), append([]byte("AXSNAP1\n"), frames...); !bytes.Equal(got, want) {
		t.Fatalf("snapshot file differs from magic + name-ordered frames:\n got %q\nwant %q", got, want)
	}
	if st := d.Stats().WAL; st.LastSnapshotBytes != uint64(len(frames)+len("AXSNAP1\n")) {
		t.Errorf("last snapshot bytes = %d, want %d", st.LastSnapshotBytes, len(frames)+len("AXSNAP1\n"))
	}

	state, seq := d.ExportState()
	if seq != 4 || len(state.docs) != 4 {
		t.Fatalf("export: seq %d, %d documents; want 4, 4", seq, len(state.docs))
	}
	var body bytes.Buffer
	if err := state.WriteFrames(wal.NewFrameWriter(&body)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body.Bytes(), frames) {
		t.Fatalf("exported frames differ from the snapshot's:\n got %q\nwant %q", body.Bytes(), frames)
	}
}

// largeDoc builds a document that serializes to about size bytes.
func largeDoc(i, size int) *doc.Node {
	para := strings.Repeat(fmt.Sprintf("paragraph text of document %d ", i), 4)
	kids := make([]*doc.Node, 0, size/(len(para)+12))
	for n := 0; n < size; n += len(para) + 12 {
		kids = append(kids, doc.Elem("p", doc.TextNode(para)))
	}
	return doc.Elem("doc", kids...)
}

// Compaction holds one rendered document at a time: compacting a 16 MiB
// store of 64 KiB documents allocates a small fraction of the store, not
// several copies of it.
func TestSnapshotAllocationIsBounded(t *testing.T) {
	const docSize, ndocs = 64 << 10, 256
	d, err := OpenDurable(t.TempDir(), DurableOptions{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < ndocs; i++ {
		if err := d.Put(fmt.Sprintf("doc-%03d", i), largeDoc(i, docSize)); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	size := d.Stats().WAL.LastSnapshotBytes
	if size < ndocs*docSize*9/10 {
		t.Fatalf("snapshot is %d bytes; the fixture should be about %d", size, ndocs*docSize)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("compacting %.1f MiB allocated %.2f MiB", float64(size)/(1<<20), float64(alloc)/(1<<20))
	if alloc >= 2<<20 {
		t.Errorf("compacting a %.1f MiB store allocated %.1f MiB, want < 2 MiB",
			float64(size)/(1<<20), float64(alloc)/(1<<20))
	}
}

// BenchmarkSnapshot compacts stores of 64 KiB documents, and one of 1 KiB
// documents where per-frame write cost dominates; B/op is what one
// compaction allocates (EXPERIMENTS.md E-D1).
func BenchmarkSnapshot(b *testing.B) {
	for _, c := range []struct{ mib, docKiB int }{{1, 64}, {4, 64}, {16, 64}, {16, 1}} {
		b.Run(fmt.Sprintf("store=%dMiB/doc=%dKiB", c.mib, c.docKiB), func(b *testing.B) {
			d, err := OpenDurable(b.TempDir(), DurableOptions{Sync: wal.SyncNone})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			for i := 0; i < c.mib<<10/c.docKiB; i++ {
				if err := d.Put(fmt.Sprintf("doc-%05d", i), largeDoc(i, c.docKiB<<10)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
