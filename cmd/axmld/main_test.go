package main

import (
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"axml/internal/doc"
	"axml/internal/store"
)

func writeSchema(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "peer.axs")
	err := os.WriteFile(path, []byte(`
root page
elem page = Get_Temp|temp
elem temp = data
elem city = data
func Get_Temp = city -> temp
`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestConfigureRejectsBadFlags(t *testing.T) {
	sp := writeSchema(t)
	dd := t.TempDir()
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no schema", nil, "-schema is required"},
		{"zero cache", []string{"-schema", sp, "-cache", "0"}, "-cache must be positive"},
		{"negative cache", []string{"-schema", sp, "-cache", "-3"}, "-cache must be positive"},
		{"zero word cache", []string{"-schema", sp, "-word-cache", "0"}, "-word-cache must be positive"},
		{"zero max request", []string{"-schema", sp, "-max-request", "0"}, "-max-request must be positive"},
		{"negative max request", []string{"-schema", sp, "-max-request", "-1"}, "-max-request must be positive"},
		{"zero retries", []string{"-schema", sp, "-retries", "0"}, "-retries must be at least 1"},
		{"negative timeout", []string{"-schema", sp, "-call-timeout", "-1s"}, "-call-timeout must not be negative"},
		{"negative breaker", []string{"-schema", sp, "-breaker-failures", "-1"}, "-breaker-failures must not be negative"},
		{"bad mode", []string{"-schema", sp, "-mode", "yolo"}, "bad -mode"},
		{"pprof no port", []string{"-schema", sp, "-pprof", "6060"}, "-pprof"},
		{"pprof public", []string{"-schema", sp, "-pprof", "0.0.0.0:6060"}, "loopback"},
		{"pprof hostname", []string{"-schema", sp, "-pprof", "example.com:6060"}, "loopback"},
		{"bad wal sync", []string{"-schema", sp, "-wal-sync", "sometimes"}, "-wal-sync"},
		{"zero sync interval", []string{"-schema", sp, "-wal-sync-interval", "0s"}, "-wal-sync-interval must be positive"},
		{"negative snapshot every", []string{"-schema", sp, "-snapshot-every", "-1"}, "-snapshot-every must not be negative"},
		{"bad log format", []string{"-schema", sp, "-log-format", "xml"}, "-log-format"},
		{"bad log level", []string{"-schema", sp, "-log-level", "verbose"}, "-log-level"},
		{"loud log level", []string{"-schema", sp, "-log-level", "loud"}, "-log-level"},
		{"negative depth", []string{"-schema", sp, "-k", "-1"}, "-k must not be negative"},
		{"negative slow requests", []string{"-schema", sp, "-slow-requests", "-1"}, "-slow-requests must not be negative"},
		{"bad role", []string{"-schema", sp, "-role", "observer"}, "bad -role"},
		{"leader without wal", []string{"-schema", sp, "-role", "leader"}, "-role leader requires -store wal"},
		{"leader zero tail", []string{"-schema", sp, "-role", "leader", "-store", "wal", "-data-dir", dd, "-replica-tail", "0"}, "-replica-tail must be positive"},
		{"follower without leader", []string{"-schema", sp, "-role", "follower"}, "-role follower requires -leader"},
		{"leader url on single", []string{"-schema", sp, "-leader", "http://x:8080"}, "-leader requires -role follower"},
		{"leader url on leader", []string{"-schema", sp, "-role", "leader", "-store", "wal", "-data-dir", dd, "-leader", "http://x:8080"}, "-leader requires -role follower"},
		{"bad peers", []string{"-schema", sp, "-peers", "nourl"}, "-peers"},
		{"duplicate peers", []string{"-schema", sp, "-peers", "a=http://x,a=http://y"}, "-peers"},
		{"removed stream flag", []string{"-schema", sp, "-stream"}, "flag provided but not defined: -stream"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := configure(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("configure(%v) error = %v, want substring %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestConfigureBuildsPeer(t *testing.T) {
	sp := writeSchema(t)
	p, opts, err := configure([]string{
		"-schema", sp, "-name", "news", "-addr", ":9999", "-mode", "possible",
		"-sim", "7",
		"-call-timeout", "2s", "-retries", "3", "-breaker-failures", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
	if opts.addr != ":9999" || p.Name != "news" {
		t.Errorf("addr=%q name=%q", opts.addr, p.Name)
	}
	if len(p.Policies) != 3 {
		t.Errorf("policies = %d, want 3 (breaker, retry, timeout)", len(p.Policies))
	}
	if _, ok := p.Services.Lookup("Get_Temp"); !ok {
		t.Error("simulated operation not registered")
	}
	if p.Telemetry == nil {
		t.Error("telemetry should default on")
	}
	if opts.pprof != "" {
		t.Errorf("pprof should default off, got %q", opts.pprof)
	}
	if p.Health == nil {
		t.Error("health lifecycle not installed")
	}
	if p.Health.Ready() {
		t.Error("peer must not report ready before the listener is up")
	}
	if p.Logger == nil {
		t.Error("structured logger not installed")
	}
	if p.Flight == nil {
		t.Error("flight recorder should default on")
	}
	if opts.logger == nil {
		t.Error("options.logger not set")
	}
	if opts.storeBackend != "mem" {
		t.Errorf("storeBackend = %q, want mem", opts.storeBackend)
	}
}

// TestConfigureLogFlags: every documented -log-format and -log-level value
// parses, "warning" included.
func TestConfigureLogFlags(t *testing.T) {
	sp := writeSchema(t)
	for _, format := range []string{"text", "json"} {
		for _, level := range []string{"debug", "info", "warn", "warning", "error"} {
			if _, _, err := configure([]string{"-schema", sp, "-log-format", format, "-log-level", level}); err != nil {
				t.Errorf("-log-format %s -log-level %s: %v", format, level, err)
			}
		}
	}
}

func TestConfigureSlowRequestsOff(t *testing.T) {
	p, _, err := configure([]string{"-schema", writeSchema(t), "-slow-requests", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Flight != nil {
		t.Error("-slow-requests 0 should disable the flight recorder")
	}
}

func TestConfigureTelemetryOff(t *testing.T) {
	p, _, err := configure([]string{"-schema", writeSchema(t), "-telemetry=false"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Telemetry != nil {
		t.Error("-telemetry=false should leave the registry nil")
	}
}

func TestConfigurePprofLoopback(t *testing.T) {
	cases := []struct{ in, want string }{
		{":6060", "127.0.0.1:6060"},
		{"localhost:6060", "localhost:6060"},
		{"127.0.0.1:7070", "127.0.0.1:7070"},
		{"[::1]:6060", "[::1]:6060"},
	}
	for _, tc := range cases {
		_, opts, err := configure([]string{"-schema", writeSchema(t), "-pprof", tc.in})
		if err != nil {
			t.Errorf("-pprof %s: %v", tc.in, err)
			continue
		}
		if opts.pprof != tc.want {
			t.Errorf("-pprof %s normalized to %q, want %q", tc.in, opts.pprof, tc.want)
		}
	}
}

// TestConfigureDurable boots a durable daemon twice over one data directory:
// state put through the first peer must be recovered by the second, and a
// -docs seed directory must not clobber what recovery restored.
func TestConfigureDurable(t *testing.T) {
	sp := writeSchema(t)
	dataDir := filepath.Join(t.TempDir(), "state")
	p, _, err := configure([]string{"-schema", sp, "-data-dir", dataDir, "-wal-sync", "none"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Durable == nil || p.Repo != store.DocStore(p.Durable) {
		t.Fatal("-data-dir did not install the durable repository")
	}
	if err := p.Repo.Put("note", doc.Elem("note", doc.TextNode("recovered"))); err != nil {
		t.Fatal(err)
	}
	if err := p.Durable.Close(); err != nil {
		t.Fatal(err)
	}

	seed := t.TempDir()
	for name, content := range map[string]string{"note.xml": "<note>seed</note>", "extra.xml": "<extra/>"} {
		if err := os.WriteFile(filepath.Join(seed, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p2, _, err := configure([]string{"-schema", sp, "-data-dir", dataDir, "-wal-sync", "none", "-docs", seed})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Durable.Close()
	got, ok := p2.Repo.Get("note")
	if !ok || got.Children[0].Value != "recovered" {
		t.Errorf("recovered note = %v, %v; the seed must not clobber it", got, ok)
	}
	if _, ok := p2.Repo.Get("extra"); !ok {
		t.Error("non-colliding seed document not loaded")
	}
}

// TestConfigureRoles wires each federation role and checks the peer comes
// out configured for it: a leader exposes the replication surface over its
// WAL-backed store, a follower is read-only with a replication loop for run
// to start, and both report replica stats.
func TestConfigureRoles(t *testing.T) {
	sp := writeSchema(t)

	leader, lopts, err := configure([]string{
		"-schema", sp, "-role", "leader",
		"-store", "wal", "-data-dir", filepath.Join(t.TempDir(), "l"), "-wal-sync", "none",
		"-peers", "west=http://w:8080",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Durable.Close()
	if leader.Replica == nil {
		t.Error("leader has no /replica handler")
	}
	if leader.ReplicaStats == nil {
		t.Error("leader has no replica stats")
	}
	if leader.ReadOnly {
		t.Error("leader must accept writes")
	}
	if lopts.role != "leader" || lopts.follower != nil {
		t.Errorf("leader options = role %q follower %v", lopts.role, lopts.follower)
	}
	if leader.Peers["west"] != "http://w:8080" {
		t.Errorf("roster = %v", leader.Peers)
	}

	follower, fopts, err := configure([]string{
		"-schema", sp, "-role", "follower", "-leader", "http://leader:8080/",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !follower.ReadOnly {
		t.Error("follower must be read-only")
	}
	if fopts.follower == nil {
		t.Fatal("follower options carry no replication loop")
	}
	if follower.ReplicaStats == nil {
		t.Error("follower has no replica stats")
	}
	if follower.Replica != nil {
		t.Error("follower must not serve the replication protocol")
	}
}

func TestConfigurePolicyFlagsOff(t *testing.T) {
	p, _, err := configure([]string{"-schema", writeSchema(t)})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Policies) != 0 {
		t.Errorf("default policies = %d, want 0", len(p.Policies))
	}
}

func TestConfigureServerTimeouts(t *testing.T) {
	sp := writeSchema(t)
	_, opts, err := configure([]string{"-schema", sp})
	if err != nil {
		t.Fatal(err)
	}
	if opts.readHeaderTimeout != defaultReadHeaderTimeout || opts.readTimeout != defaultReadTimeout ||
		opts.writeTimeout != defaultWriteTimeout || opts.idleTimeout != defaultIdleTimeout {
		t.Errorf("default timeouts = %v/%v/%v/%v", opts.readHeaderTimeout, opts.readTimeout, opts.writeTimeout, opts.idleTimeout)
	}
	_, opts, err = configure([]string{"-schema", sp,
		"-read-header-timeout", "1s", "-read-timeout", "0", "-write-timeout", "3s", "-idle-timeout", "4s"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.readHeaderTimeout != time.Second || opts.readTimeout != 0 ||
		opts.writeTimeout != 3*time.Second || opts.idleTimeout != 4*time.Second {
		t.Errorf("explicit timeouts = %v/%v/%v/%v", opts.readHeaderTimeout, opts.readTimeout, opts.writeTimeout, opts.idleTimeout)
	}
	for _, flag := range []string{"-read-header-timeout", "-read-timeout", "-write-timeout", "-idle-timeout"} {
		if _, _, err := configure([]string{"-schema", sp, flag, "-1s"}); err == nil ||
			!strings.Contains(err.Error(), flag+" must not be negative") {
			t.Errorf("%s -1s: error = %v", flag, err)
		}
	}
}

// TestServerDropsStalledClient proves the configured timeouts actually tear
// down a connection that sends nothing: before this fix axmld used a zero
// http.Server and a stalled client held its goroutine forever.
func TestServerDropsStalledClient(t *testing.T) {
	srv := newHTTPServer(http.NewServeMux(), options{readHeaderTimeout: 150 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Open the request line, then stall mid-headers.
	if _, err := conn.Write([]byte("GET /wsdl HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled connection not closed by the server: read err = %v", err)
	}
}
