package replica

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"axml/internal/doc"
	"axml/internal/store"
	"axml/internal/wal"
	"axml/internal/xmlio"
)

// newLeader opens a durable repository with a replica tail and serves it
// the way a peer does: the source handler mounted under /replica/.
func newLeader(t *testing.T, tailRecords int) (*store.DurableRepository, *Source, *httptest.Server) {
	t.Helper()
	repo, err := store.OpenDurable(t.TempDir(), store.DurableOptions{
		Sync:        wal.SyncNone,
		TailRecords: tailRecords,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = repo.Close() })
	src := NewSource(repo, nil)
	mux := http.NewServeMux()
	mux.Handle("/replica/", http.StripPrefix("/replica", src.Handler()))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return repo, src, srv
}

func put(t *testing.T, s store.DocStore, name, text string) {
	t.Helper()
	if err := s.Put(name, doc.Elem("d", doc.TextNode(text))); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sameCorpus reports whether follower holds exactly the leader's documents,
// byte-identical after serialization.
func sameCorpus(t *testing.T, leader, follower store.DocStore) bool {
	t.Helper()
	ln, fn := leader.Names(), follower.Names()
	if len(ln) != len(fn) {
		return false
	}
	for _, name := range ln {
		ld, ok1 := leader.Get(name)
		fd, ok2 := follower.Get(name)
		if !ok1 || !ok2 {
			return false
		}
		ls, err := xmlio.String(ld)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := xmlio.String(fd)
		if err != nil {
			t.Fatal(err)
		}
		if ls != fs {
			return false
		}
	}
	return true
}

// TestFollowerConvergence is the end-to-end tentpole check: a follower
// bootstraps from the snapshot, then applies puts and deletes streamed from
// the leader's WAL tail until its corpus is byte-identical.
func TestFollowerConvergence(t *testing.T) {
	repo, _, srv := newLeader(t, 128)

	// Pre-bootstrap state: the snapshot path must carry these.
	put(t, repo, "seed-a", "1")
	put(t, repo, "seed-b", "2")

	local := store.NewRepository()
	// State that the leader does not hold must not survive a bootstrap.
	put(t, local, "stale", "gone")

	f := NewFollower(FollowerOptions{
		Leader:   srv.URL,
		Store:    local,
		PollWait: 250 * time.Millisecond,
		Backoff:  10 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = f.Run(ctx) }()

	waitFor(t, "bootstrap", func() bool { return f.Stats().Bootstraps == 1 })
	if _, ok := local.Get("stale"); ok {
		t.Fatal("bootstrap kept a document the leader does not hold")
	}

	// Post-bootstrap mutations arrive via the stream: puts, an overwrite
	// and a delete.
	for i := 0; i < 20; i++ {
		put(t, repo, fmt.Sprintf("doc-%02d", i), fmt.Sprintf("v%d", i))
	}
	put(t, repo, "doc-03", "overwritten")
	if err := repo.Delete("seed-b"); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "convergence", func() bool { return sameCorpus(t, repo, local) })

	st := f.Stats()
	if st.Bootstraps != 1 {
		t.Fatalf("bootstraps = %d, want 1 (stream must not re-bootstrap)", st.Bootstraps)
	}
	if st.ApplyErrors != 0 {
		t.Fatalf("apply errors = %d, want 0", st.ApplyErrors)
	}
	if st.AppliedSeq != repo.WAL().HeadSeq() {
		t.Fatalf("applied seq %d != leader head %d", st.AppliedSeq, repo.WAL().HeadSeq())
	}
	cancel()
	<-done
}

// TestFollowerReBootstrapsAfterEviction wedges a caught-up follower's
// position out of the leader's tiny tail and checks it recovers via a
// second snapshot bootstrap rather than stalling.
func TestFollowerReBootstrapsAfterEviction(t *testing.T) {
	repo, _, srv := newLeader(t, 4)
	put(t, repo, "seed", "1")

	local := store.NewRepository()
	f := NewFollower(FollowerOptions{
		Leader:   srv.URL,
		Store:    local,
		PollWait: 100 * time.Millisecond,
		Backoff:  10 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = f.Run(ctx) }()
	waitFor(t, "first bootstrap", func() bool { return f.Stats().Bootstraps == 1 })

	// Cancel-free way to get the follower far behind: burst more records
	// than the 4-slot tail holds between its polls. A 100ms poll window is
	// plenty to land 64 records.
	for i := 0; i < 64; i++ {
		put(t, repo, fmt.Sprintf("burst-%02d", i%16), fmt.Sprintf("v%d", i))
	}
	waitFor(t, "convergence after eviction", func() bool { return sameCorpus(t, repo, local) })
	if st := f.Stats(); st.Bootstraps < 1 {
		t.Fatalf("bootstraps = %d", st.Bootstraps)
	}
}

// TestStreamGapGone checks the wire behavior directly: asking for an
// evicted position answers 410 Gone.
func TestStreamGapGone(t *testing.T) {
	repo, src, srv := newLeader(t, 4)
	for i := 0; i < 8; i++ {
		put(t, repo, fmt.Sprintf("d%d", i), "v")
	}
	resp, err := http.Get(fmt.Sprintf("%s/replica/stream?after=1&epoch=%s", srv.URL, src.Epoch()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted position: status %d, want 410", resp.StatusCode)
	}
}

// TestStreamEpochMismatchGone checks that a follower carrying a previous
// incarnation's epoch is told 410, never handed records.
func TestStreamEpochMismatchGone(t *testing.T) {
	repo, src, srv := newLeader(t, 16)
	put(t, repo, "d", "v")
	resp, err := http.Get(srv.URL + "/replica/stream?after=0&epoch=stale-epoch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("epoch mismatch: status %d, want 410", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderEpoch); got != src.Epoch() {
		t.Fatalf("410 must advertise the live epoch: got %q, want %q", got, src.Epoch())
	}
}

// TestStreamLongPoll204 checks an up-to-date reader gets 204 after the wait
// lapses, and that an append during the poll is delivered before it.
func TestStreamLongPoll204(t *testing.T) {
	repo, src, srv := newLeader(t, 16)
	put(t, repo, "d", "v")
	head := repo.WAL().HeadSeq()

	start := time.Now()
	resp, err := http.Get(fmt.Sprintf("%s/replica/stream?after=%d&epoch=%s&wait=100ms",
		srv.URL, head, src.Epoch()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("caught-up poll: status %d, want 204", resp.StatusCode)
	}
	if time.Since(start) < 100*time.Millisecond {
		t.Fatal("204 answered before the wait lapsed")
	}

	// An append mid-poll must cut the wait short with a 200.
	go func() {
		time.Sleep(30 * time.Millisecond)
		_ = repo.Put("late", doc.Elem("d", doc.TextNode("x")))
	}()
	resp, err = http.Get(fmt.Sprintf("%s/replica/stream?after=%d&epoch=%s&wait=5s",
		srv.URL, head, src.Epoch()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-poll append: status %d, want 200", resp.StatusCode)
	}
	fr := wal.NewFrameReader(resp.Body)
	rec, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Op != wal.OpPut || rec.Name != "late" {
		t.Fatalf("streamed record = %+v, want put late", rec)
	}
}

// TestSnapshotFramesVerify checks the snapshot body decodes through the
// CRC-verifying FrameReader and is consistent with the advertised sequence.
func TestSnapshotFramesVerify(t *testing.T) {
	repo, src, srv := newLeader(t, 16)
	put(t, repo, "a", "1")
	put(t, repo, "b", "2")
	resp, err := http.Get(srv.URL + "/replica/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	if resp.Header.Get(HeaderEpoch) != src.Epoch() {
		t.Fatal("snapshot missing epoch header")
	}
	if resp.Header.Get(HeaderHead) != "2" {
		t.Fatalf("snapshot head = %q, want 2", resp.Header.Get(HeaderHead))
	}
	fr := wal.NewFrameReader(resp.Body)
	got := map[string]bool{}
	for {
		rec, err := fr.Next()
		if err != nil {
			break
		}
		if rec.Op != wal.OpPut {
			t.Fatalf("snapshot frame op = %d", rec.Op)
		}
		got[rec.Name] = true
	}
	if !got["a"] || !got["b"] || len(got) != 2 {
		t.Fatalf("snapshot documents = %v", got)
	}
}

// TestSnapshotBodyIsNameOrderedFrames pins the bootstrap wire format: the
// body is exactly one EncodeFrame OpPut frame per document, in name order,
// the same frames a compaction writes after the snapshot magic.
func TestSnapshotBodyIsNameOrderedFrames(t *testing.T) {
	repo, _, srv := newLeader(t, 16)
	names := []string{"zeta", "alpha", "mid"}
	for i, name := range names {
		put(t, repo, name, strings.Repeat(fmt.Sprintf("v%d & <x> ", i), 1000))
	}
	resp, err := http.Get(srv.URL + "/replica/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var want []byte
	for _, name := range names {
		d, _ := repo.Get(name)
		s, err := xmlio.String(d)
		if err != nil {
			t.Fatal(err)
		}
		want = wal.EncodeFrame(want, wal.Record{Op: wal.OpPut, Name: name, Data: []byte(s)})
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("snapshot body (%d bytes) differs from name-ordered frames (%d bytes)", len(body), len(want))
	}
}

// truncatingWriter passes the first limit bytes of a response through,
// flushed so they reach the client, and fails every write after that: a
// leader whose connection breaks mid-snapshot.
type truncatingWriter struct {
	http.ResponseWriter
	limit int
}

func (w *truncatingWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		return 0, io.ErrClosedPipe
	}
	w.limit -= len(p)
	n, err := w.ResponseWriter.Write(p)
	w.ResponseWriter.(http.Flusher).Flush()
	return n, err
}

// TestTruncatedSnapshotFailsBootstrap: the streamed bootstrap has no
// Content-Length, so a leader that fails after sending a full frame must
// abort the connection. The follower then sees a torn stream, fails the
// bootstrap, and deletes nothing — had the body ended cleanly at the frame
// boundary, it would have accepted the one-document snapshot and dropped
// every other local document.
func TestTruncatedSnapshotFailsBootstrap(t *testing.T) {
	repo, err := store.OpenDurable(t.TempDir(), store.DurableOptions{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = repo.Close() })
	for _, name := range []string{"a", "b", "c"} {
		put(t, repo, name, strings.Repeat(name, 8<<10))
	}
	first, _ := repo.Get("a")
	s, err := xmlio.String(first)
	if err != nil {
		t.Fatal(err)
	}
	frameLen := len(wal.EncodeFrame(nil, wal.Record{Op: wal.OpPut, Name: "a", Data: []byte(s)}))
	src := NewSource(repo, nil)
	srv := httptest.NewServer(http.StripPrefix("/replica", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		src.Handler().ServeHTTP(&truncatingWriter{ResponseWriter: w, limit: frameLen}, r)
	})))
	t.Cleanup(srv.Close)

	local := store.NewRepository()
	put(t, local, "b", "local b")
	put(t, local, "local-only", "kept")
	f := NewFollower(FollowerOptions{Leader: srv.URL, Store: local})
	if err := f.bootstrap(context.Background()); err == nil {
		t.Fatal("bootstrap accepted a truncated snapshot")
	}
	for _, name := range []string{"b", "local-only"} {
		if _, ok := local.Get(name); !ok {
			t.Errorf("failed bootstrap deleted local document %q", name)
		}
	}
	if st := f.Stats(); st.Bootstraps != 0 || st.AppliedSeq != 0 {
		t.Errorf("failed bootstrap recorded progress: %+v", st)
	}
	if n := src.Stats().SnapshotsServed; n != 0 {
		t.Errorf("leader counted %d aborted bootstraps as served", n)
	}
}
