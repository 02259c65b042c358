package peer

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"axml/internal/store"
	"axml/internal/wal"
)

func doReq(t *testing.T, method, url, body string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPDocMutations(t *testing.T) {
	p := newsPeer(t)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	if resp := doReq(t, http.MethodPut, ts.URL+"/doc/memo", "<memo>ship it</memo>"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT = %d", resp.StatusCode)
	}
	resp := doReq(t, http.MethodGet, ts.URL+"/doc/memo", "")
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(got), "ship it") {
		t.Errorf("GET after PUT = %d %q", resp.StatusCode, got)
	}

	// ".." would be cleaned away by the mux before reaching the handler;
	// an escaped backslash exercises the name validation instead.
	if resp := doReq(t, http.MethodPut, ts.URL+"/doc/evil%5Cname", "<x/>"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT with bad name = %d, want 400", resp.StatusCode)
	}
	if resp := doReq(t, http.MethodPut, ts.URL+"/doc/broken", "<unclosed>"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT with bad XML = %d, want 400", resp.StatusCode)
	}

	if resp := doReq(t, http.MethodDelete, ts.URL+"/doc/memo", ""); resp.StatusCode != http.StatusNoContent {
		t.Errorf("DELETE = %d", resp.StatusCode)
	}
	if resp := doReq(t, http.MethodGet, ts.URL+"/doc/memo", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET after DELETE = %d, want 404", resp.StatusCode)
	}
	// Deletes are idempotent over HTTP, like the repository call.
	if resp := doReq(t, http.MethodDelete, ts.URL+"/doc/memo", ""); resp.StatusCode != http.StatusNoContent {
		t.Errorf("repeat DELETE = %d", resp.StatusCode)
	}
	if resp := doReq(t, http.MethodPost, ts.URL+"/doc/memo", "<x/>"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d, want 405", resp.StatusCode)
	}
}

// A durable peer driven purely over HTTP: mutations survive a restart, and
// /stats exposes the WAL counters.
func TestHTTPDurablePeer(t *testing.T) {
	dir := t.TempDir()
	d, err := openWAL(dir, store.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	p := newsPeer(t)
	p.Repo = d.Repository
	p.Durable = d
	ts := httptest.NewServer(p.Handler())

	if resp := doReq(t, http.MethodPut, ts.URL+"/doc/memo", "<memo>durable</memo>"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT = %d", resp.StatusCode)
	}
	if resp := doReq(t, http.MethodPut, ts.URL+"/doc/gone", "<gone/>"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT = %d", resp.StatusCode)
	}
	if resp := doReq(t, http.MethodDelete, ts.URL+"/doc/gone", ""); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}

	resp := doReq(t, http.MethodGet, ts.URL+"/stats", "")
	var stats struct {
		// The "wal" object keeps the historical flat shape: wal.Stats
		// fields plus recovery facts at the top level.
		WAL   *wal.Stats `json:"wal"`
		Store *struct {
			Backend   string `json:"backend"`
			Documents int    `json:"documents"`
		} `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.WAL == nil || stats.WAL.Appends != 3 {
		t.Errorf("/stats wal = %+v, want 3 appends", stats.WAL)
	}
	if stats.Store == nil || stats.Store.Backend != "wal" || stats.Store.Documents != 1 {
		t.Errorf("/stats store = %+v, want wal backend with 1 document", stats.Store)
	}
	ts.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := openWAL(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got, ok := d2.Get("memo"); !ok || got.Children[0].Value != "durable" {
		t.Errorf("memo after restart = %v, %v", got, ok)
	}
	if _, ok := d2.Get("gone"); ok {
		t.Error("deleted document resurrected after restart")
	}
}

// A mutation after Close must not be acknowledged over HTTP either.
func TestHTTPDurableClosedSurfacesError(t *testing.T) {
	d, err := openWAL(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := newsPeer(t)
	p.Repo = d.Repository
	p.Durable = d
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if resp := doReq(t, http.MethodPut, ts.URL+"/doc/late", "<late/>"); resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("PUT after close = %d, want 500", resp.StatusCode)
	}
}
