package store

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"axml/internal/doc"
	"axml/internal/wal"
)

// ExportState is the replication bootstrap: its document capture and its
// sequence number must agree exactly — a record with seq <= the export's seq
// is in the capture, one with seq > it is not. This hammers exports against
// concurrent mutations and replays each export's capture forward through
// the WAL tail, expecting convergence with the final repository state.
func TestExportStateConsistentUnderMutation(t *testing.T) {
	d, err := openDurable(Options{Dir: t.TempDir(), Sync: wal.SyncNone, ReplicaTail: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("w%d-%d", g, i%10)
				if i%7 == 6 {
					if err := d.Delete(name); err != nil {
						t.Errorf("delete %s: %v", name, err)
					}
					continue
				}
				if err := d.Put(name, doc.Elem("d", doc.TextNode(fmt.Sprintf("%d-%d", g, i)))); err != nil {
					t.Errorf("put %s: %v", name, err)
				}
			}
		}(g)
	}

	var exports []struct {
		docs map[string][]byte
		seq  uint64
	}
	for i := 0; i < 20; i++ {
		state, seq := d.ExportState()
		docs := decodeState(t, state)
		exports = append(exports, struct {
			docs map[string][]byte
			seq  uint64
		}{docs, seq})
	}
	wg.Wait()

	finalState, head := d.ExportState()
	final := decodeState(t, finalState)
	if head != d.WAL().HeadSeq() {
		t.Fatalf("quiesced export seq %d != head %d", head, d.WAL().HeadSeq())
	}
	for i, ex := range exports {
		state := make(map[string][]byte, len(ex.docs))
		for k, v := range ex.docs {
			state[k] = v
		}
		recs, gap := d.WAL().ReadAfter(ex.seq, 0)
		if gap {
			t.Fatalf("export %d: tail evicted (enlarge TailRecords)", i)
		}
		for _, r := range recs {
			switch r.Op {
			case wal.OpPut:
				state[r.Name] = r.Data
			case wal.OpDelete:
				delete(state, r.Name)
			}
		}
		if len(state) != len(final) {
			t.Fatalf("export %d + tail: %d docs, want %d", i, len(state), len(final))
		}
		for name, want := range final {
			if string(state[name]) != string(want) {
				t.Fatalf("export %d + tail: %s = %q, want %q", i, name, state[name], want)
			}
		}
	}
}

// decodeState streams a captured state through the frame codec and returns
// the documents it carries.
func decodeState(t *testing.T, state State) map[string][]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := state.WriteFrames(wal.NewFrameWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	docs := make(map[string][]byte, len(state.docs))
	fr := wal.NewFrameReader(&buf)
	for {
		rec, err := fr.Next()
		if err == io.EOF {
			return docs
		}
		if err != nil {
			t.Fatal(err)
		}
		docs[rec.Name] = rec.Data
	}
}
