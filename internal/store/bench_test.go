package store_test

import (
	"fmt"
	"strings"
	"testing"

	"axml/internal/doc"
	"axml/internal/store"
	"axml/internal/wal"
)

// benchPayload is the ~330-byte document the store benchmarks write.
func benchPayload() *doc.Node {
	return doc.Elem("page",
		doc.Elem("title", doc.TextNode("bench")),
		doc.Elem("body", doc.TextNode(strings.Repeat("intensional ", 24))))
}

// BenchmarkDurablePut prices durability on the Put path (EXPERIMENTS.md
// E-D1): the payload over 128 rotating names, snapshot every 4096
// mutations, against the in-memory repository (the no-durability
// baseline) and the WAL backend in each sync mode. "always" pays one fsync
// per acknowledged mutation, so its gap to "none" is the disk's flush
// latency; "interval" moves the flush to a background tick.
func BenchmarkDurablePut(b *testing.B) {
	payload := benchPayload()
	put := func(b *testing.B, s store.DocStore) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Put(fmt.Sprintf("doc%03d", i%128), payload); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if st := s.Stats().WAL; st != nil {
			b.ReportMetric(float64(st.Fsyncs)/float64(b.N), "fsyncs/op")
		}
	}
	b.Run("mem", func(b *testing.B) { put(b, store.NewRepository()) })
	for _, mode := range []wal.SyncMode{wal.SyncNone, wal.SyncInterval, wal.SyncAlways} {
		b.Run("wal/sync="+mode.String(), func(b *testing.B) {
			s, err := store.Open(store.Options{Backend: store.BackendWAL, Dir: b.TempDir(), Sync: mode, SnapshotEvery: 4096})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			put(b, s)
		})
	}
}

// BenchmarkStoreBackends prices Put and Get on each storage backend
// (EXPERIMENTS.md E-S1): the payload over 512 rotating names on the
// in-memory map, the WAL backend with sync none (so the gap is
// serialization and journalling, not flush latency) and the disk backend
// holding 64 of the 512 documents hot. Its Get sweeps the names in order,
// an LRU's worst case, and reports the share of reads that faulted.
func BenchmarkStoreBackends(b *testing.B) {
	const names = 512
	payload := benchPayload()
	name := func(i int) string { return fmt.Sprintf("doc%03d", i%names) }
	for _, backend := range []struct {
		name string
		open func(dir string) (store.DocStore, error)
	}{
		{store.BackendMem, func(string) (store.DocStore, error) { return store.NewRepository(), nil }},
		{store.BackendWAL, func(dir string) (store.DocStore, error) {
			return store.Open(store.Options{Backend: store.BackendWAL, Dir: dir, Sync: wal.SyncNone, SnapshotEvery: 4096})
		}},
		{store.BackendDisk, func(dir string) (store.DocStore, error) {
			return store.OpenDisk(dir, store.DiskOptions{HotCache: 64, Shards: 16})
		}},
	} {
		b.Run(backend.name+"/put", func(b *testing.B) {
			s, err := backend.open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.Put(name(i), payload); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(backend.name+"/get", func(b *testing.B) {
			s, err := backend.open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < names; i++ {
				if err := s.Put(name(i), payload); err != nil {
					b.Fatal(err)
				}
			}
			before := s.Stats().Disk
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Get(name(i)); !ok {
					b.Fatalf("%s vanished", name(i))
				}
			}
			b.StopTimer()
			if st := s.Stats().Disk; st != nil {
				b.ReportMetric(float64(st.Faults-before.Faults)/float64(b.N), "faults/op")
			}
		})
	}
}
