// Command axml-bench regenerates the paper's figures and analytical claims
// as tables (the E-* experiment index of DESIGN.md / EXPERIMENTS.md).
//
//	axml-bench             # run everything
//	axml-bench -run lazy   # run experiments whose id contains "lazy"
//	axml-bench -list       # list experiment ids
//	axml-bench -invoke out.json  # benchmark the invocation policy chain
//	axml-bench -parallel out.json -min-speedup 2  # parallel-engine smoke gate
//	axml-bench -telemetry out.json -max-overhead 5  # telemetry overhead gate
//	axml-bench -wal out.json  # durable-repository put cost per WAL sync mode
//	axml-bench -store out.json  # Put/Get cost per storage backend (mem/wal/disk)
//
// Output is deterministic except for wall-clock timings.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/experiments"
	"axml/internal/invoke"
	"axml/internal/peer"
	"axml/internal/schema"
	"axml/internal/service"
	"axml/internal/soap"
	"axml/internal/store"
	"axml/internal/telemetry"
	"axml/internal/wal"
)

func main() {
	runFilter := flag.String("run", "", "only run experiments whose id contains this substring")
	list := flag.Bool("list", false, "list experiment ids and exit")
	invokeOut := flag.String("invoke", "", "benchmark the invocation policy chain and write ns/op JSON to this file")
	parallelOut := flag.String("parallel", "", "benchmark the parallel materialization engine and write the speedup JSON to this file")
	minSpeedup := flag.Float64("min-speedup", 0, "with -parallel: fail unless degree 4 beats the sequential engine by this factor (0 = no gate)")
	telemetryOut := flag.String("telemetry", "", "benchmark instrumented vs uninstrumented enforcement and write the overhead JSON to this file")
	maxOverhead := flag.Float64("max-overhead", 0, "with -telemetry: fail if the overhead exceeds this percentage (0 = no gate)")
	walOut := flag.String("wal", "", "benchmark durable-repository put throughput across WAL sync modes and write the JSON to this file")
	storeOut := flag.String("store", "", "benchmark Put/Get across storage backends (mem, wal, disk) and write the JSON to this file")
	flag.Parse()

	if *invokeOut != "" {
		if err := benchInvoke(*invokeOut); err != nil {
			fmt.Fprintln(os.Stderr, "axml-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *parallelOut != "" {
		if err := benchParallel(*parallelOut, *minSpeedup); err != nil {
			fmt.Fprintln(os.Stderr, "axml-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *telemetryOut != "" {
		if err := benchTelemetry(*telemetryOut, *maxOverhead); err != nil {
			fmt.Fprintln(os.Stderr, "axml-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *walOut != "" {
		if err := benchWAL(*walOut); err != nil {
			fmt.Fprintln(os.Stderr, "axml-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *storeOut != "" {
		if err := benchStore(*storeOut); err != nil {
			fmt.Fprintln(os.Stderr, "axml-bench:", err)
			os.Exit(1)
		}
		return
	}

	all := experiments.All()
	if *list {
		for _, t := range all {
			fmt.Printf("%-20s %s\n", t.ID, t.Title)
		}
		return
	}
	ran := 0
	for _, t := range all {
		if *runFilter != "" && !strings.Contains(t.ID, *runFilter) {
			continue
		}
		t.Fprint(os.Stdout)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "axml-bench: no experiment matches %q\n", *runFilter)
		os.Exit(1)
	}
}

// benchInvoke measures the per-call overhead of the policy chain on the
// success path: a bare in-process invoker vs the same invoker behind the full
// default chain (limit + breaker + retry + timeout). The JSON report feeds
// the CI bench-smoke step.
func benchInvoke(path string) error {
	service := core.ContextInvokerFunc(func(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
		return []*doc.Node{doc.Elem("temp", doc.TextNode("20"))}, nil
	})
	wrapped := invoke.Chain(service,
		invoke.WithConcurrencyLimit(64),
		invoke.WithBreaker(invoke.Breaker{}),
		invoke.WithRetry(invoke.Retry{Attempts: 3}),
		invoke.WithTimeout(time.Second),
	)
	call := doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris")))
	ctx := context.Background()

	measure := func(inv core.Invoker) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := inv.Invoke(ctx, call); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	bare := measure(service)
	chain := measure(wrapped)

	report := map[string]any{
		"benchmark":           "invoke-policy-chain",
		"bare_ns_per_op":      bare.NsPerOp(),
		"policy_ns_per_op":    chain.NsPerOp(),
		"overhead_ns_per_op":  chain.NsPerOp() - bare.NsPerOp(),
		"bare_iterations":     bare.N,
		"policy_iterations":   chain.N,
		"policy_allocs_op":    chain.AllocsPerOp(),
		"bare_allocs_op":      bare.AllocsPerOp(),
		"chain":               "limit(64) > breaker > retry(3) > timeout(1s)",
		"go_max_procs_note":   "single-goroutine success path; contention not measured here",
		"generated_by_flag":   "-invoke",
		"ns_per_op_unit_note": "lower is better; overhead is the policy tax per successful call",
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("invoke benchmark: bare %d ns/op, policy chain %d ns/op -> %s\n",
		bare.NsPerOp(), chain.NsPerOp(), path)
	return nil
}

// benchTelemetry measures what full instrumentation costs on the
// BenchmarkPeerEnforcement workload (E-C8): one SOAP call whose response
// enforcement materializes a nested service call, over HTTP. It runs the
// workload with no registry and with a live registry (metrics + spans +
// per-handler HTTP instrumentation) in paired rounds: each round times
// both configurations back to back, alternating which goes first, and
// the reported overhead is the median of the per-round ratios. Pairing
// means slow-machine phases (a neighbour's GC, frequency scaling)
// contaminate both sides of a round alike, and the median discards the
// rounds a load burst split; a min-vs-min comparison proved fragile here
// because a burst covering only one side's fastest round skews it by
// more than the effect being measured. The gate is the telemetry layer's
// budget: the no-op paths must keep uninstrumented peers free, and the
// instrumented path must stay within maxOverheadPct.
func benchTelemetry(path string, maxOverheadPct float64) error {
	const rounds = 11
	setup := func(reg *telemetry.Registry) (*soap.Client, func(), error) {
		p, err := benchPeer()
		if err != nil {
			return nil, nil, err
		}
		p.Telemetry = reg
		ts := httptest.NewServer(p.Handler())
		return &soap.Client{Endpoint: ts.URL + "/soap", Namespace: "urn:axml:bench"}, ts.Close, nil
	}
	round := func(client *soap.Client) (int64, error) {
		var callErr error
		res := testing.Benchmark(func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				out, err := client.Call(context.Background(), "Front", []*doc.Node{doc.TextNode("q")})
				if err != nil {
					callErr = err
					b.Fatal(err)
				}
				if len(out) != 1 || out[0].HasFuncs() {
					callErr = fmt.Errorf("enforcement did not materialize")
					b.Fatal(callErr)
				}
			}
		})
		return res.NsPerOp(), callErr
	}
	bareClient, bareClose, err := setup(nil)
	if err != nil {
		return err
	}
	defer bareClose()
	insClient, insClose, err := setup(telemetry.NewRegistry())
	if err != nil {
		return err
	}
	defer insClose()
	var bare, instrumented int64
	ratios := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		first, second := bareClient, insClient
		if i%2 == 1 {
			first, second = insClient, bareClient
		}
		f, err := round(first)
		if err != nil {
			return err
		}
		s, err := round(second)
		if err != nil {
			return err
		}
		b, n := f, s
		if i%2 == 1 {
			b, n = s, f
		}
		ratios = append(ratios, float64(n)/float64(b))
		if bare == 0 || b < bare {
			bare = b
		}
		if instrumented == 0 || n < instrumented {
			instrumented = n
		}
	}
	sort.Float64s(ratios)
	overheadPct := (ratios[len(ratios)/2] - 1) * 100
	report := map[string]any{
		"benchmark":            "telemetry-overhead",
		"workload":             "peer-enforcement (E-C8): SOAP Front call with enforced nested Get_Temp",
		"rounds":               rounds,
		"bare_ns_per_op":       bare,
		"telemetry_ns_per_op":  instrumented,
		"overhead_pct":         overheadPct,
		"max_overhead_pct":     maxOverheadPct,
		"generated_by_flag":    "-telemetry",
		"measurement_note":     "overhead_pct is the median of per-round instrumented/bare ratios (paired, order-alternated); ns/op fields are the fastest round of each side",
		"instrumented_surface": "pipeline metrics, spans, per-handler HTTP metrics, cache scrape series",
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("telemetry benchmark: bare %d ns/op, instrumented %d ns/op -> %.2f%% overhead -> %s\n",
		bare, instrumented, overheadPct, path)
	if maxOverheadPct > 0 && overheadPct > maxOverheadPct {
		return fmt.Errorf("telemetry overhead %.2f%% exceeds budget %.2f%%", overheadPct, maxOverheadPct)
	}
	return nil
}

// benchWAL measures what durability costs on the Put path (E-D1): the same
// 128-name put workload against a plain in-memory repository and against
// DurableRepository under each WAL sync mode. SyncAlways pays one fsync per
// acknowledged mutation, so the gap between it and "none" is essentially the
// disk's flush latency; "interval" amortizes the flush into a 100ms
// background tick and should sit near "none".
func benchWAL(path string) error {
	payload := doc.Elem("page",
		doc.Elem("title", doc.TextNode("bench")),
		doc.Elem("body", doc.TextNode(strings.Repeat("intensional ", 24))))
	measure := func(put func(i int) error) (testing.BenchmarkResult, error) {
		var putErr error
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := put(i); err != nil {
					putErr = err
					b.Fatal(err)
				}
			}
		})
		return res, putErr
	}

	mem := store.NewRepository()
	base, err := measure(func(i int) error {
		return mem.Put(fmt.Sprintf("doc%03d", i%128), payload)
	})
	if err != nil {
		return err
	}
	report := map[string]any{
		"benchmark":           "wal-put-throughput",
		"workload":            "Put of a ~330-byte document over 128 rotating names, snapshot every 4096",
		"memory_ns_per_op":    base.NsPerOp(),
		"generated_by_flag":   "-wal",
		"ns_per_op_unit_note": "lower is better; memory_ns_per_op is the no-durability baseline",
	}
	fmt.Printf("wal benchmark: in-memory %d ns/op\n", base.NsPerOp())
	for _, mode := range []wal.SyncMode{wal.SyncNone, wal.SyncInterval, wal.SyncAlways} {
		dir, err := os.MkdirTemp("", "axml-bench-wal-")
		if err != nil {
			return err
		}
		d, err := store.Open(store.Options{Backend: store.BackendWAL, Dir: dir, Sync: mode, SnapshotEvery: 4096})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		res, err := measure(func(i int) error {
			return d.Put(fmt.Sprintf("doc%03d", i%128), payload)
		})
		st := d.Stats().WAL
		d.Close()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		report[mode.String()+"_ns_per_op"] = res.NsPerOp()
		report[mode.String()+"_appended_bytes"] = st.AppendedBytes
		report[mode.String()+"_fsyncs"] = st.Fsyncs
		report[mode.String()+"_snapshots"] = st.Snapshots
		fmt.Printf("wal benchmark: sync=%s %d ns/op (%d appends, %d fsyncs, %d snapshots)\n",
			mode, res.NsPerOp(), st.Appends, st.Fsyncs, st.Snapshots)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wal benchmark -> %s\n", path)
	return nil
}

// benchStore measures what each storage backend charges on the Put and Get
// paths (E-S1): the same ~330-byte document over 512 rotating names against
// the in-memory map, the WAL-backed durable repository (sync=none, so the
// gap is serialization + journalling, not the disk's flush latency), and the
// disk-sharded backend with a 64-document hot cache — an 8x cold majority,
// so its Get number prices a realistic fault mix, reported alongside the
// measured fault rate.
func benchStore(path string) error {
	const names = 512
	payload := doc.Elem("page",
		doc.Elem("title", doc.TextNode("bench")),
		doc.Elem("body", doc.TextNode(strings.Repeat("intensional ", 24))))
	name := func(i int) string { return fmt.Sprintf("doc%03d", i%names) }
	measure := func(op func(i int) error) (testing.BenchmarkResult, error) {
		var opErr error
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := op(i); err != nil {
					opErr = err
					b.Fatal(err)
				}
			}
		})
		return res, opErr
	}

	backends := []struct {
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
	}
	report := map[string]any{
		"benchmark":           "store-backends",
		"workload":            fmt.Sprintf("Put then uniform Get of a ~330-byte document over %d rotating names", names),
		"disk_hot_cache":      64,
		"generated_by_flag":   "-store",
		"ns_per_op_unit_note": "lower is better; disk Get prices the fault mix of a 64/512 hot cache",
	}
	for _, b := range backends {
		dir, err := os.MkdirTemp("", "axml-bench-store-")
		if err != nil {
			return err
		}
		s, err := b.open(dir)
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		put, err := measure(func(i int) error { return s.Put(name(i), payload) })
		if err == nil {
			// Make sure every name exists before the read phase.
			for i := 0; i < names; i++ {
				if err = s.Put(name(i), payload); err != nil {
					break
				}
			}
		}
		var get testing.BenchmarkResult
		if err == nil {
			get, err = measure(func(i int) error {
				if _, ok := s.Get(name(i)); !ok {
					return fmt.Errorf("%s: %s vanished", b.name, name(i))
				}
				return nil
			})
		}
		st := s.Stats()
		s.Close()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		report[b.name+"_put_ns_per_op"] = put.NsPerOp()
		report[b.name+"_get_ns_per_op"] = get.NsPerOp()
		line := fmt.Sprintf("store benchmark: %-4s put %d ns/op, get %d ns/op", b.name, put.NsPerOp(), get.NsPerOp())
		if st.Disk != nil {
			faultRate := 0.0
			if total := st.Disk.Hits + st.Disk.Faults; total > 0 {
				faultRate = float64(st.Disk.Faults) / float64(total)
			}
			report["disk_fault_rate"] = faultRate
			report["disk_faults"] = st.Disk.Faults
			report["disk_hits"] = st.Disk.Hits
			report["disk_evictions"] = st.Disk.Evictions
			line += fmt.Sprintf(" (fault rate %.2f, %d evictions)", faultRate, st.Disk.Evictions)
		}
		fmt.Println(line)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("store benchmark -> %s\n", path)
	return nil
}

// benchPeer rebuilds the BenchmarkPeerEnforcement fixture: a peer whose
// Front operation returns a page holding an unmaterialized Get_Temp call
// that response enforcement must invoke.
func benchPeer() (*peer.Peer, error) {
	s := schema.MustParseText(`
root page
elem page = title.temp
elem title = data
elem temp = data
elem city = data
func Get_Temp = city -> temp
func Front = data -> page
`, nil)
	p := peer.New("bench", s)
	err := p.Services.Register(&service.Operation{
		Name: "Get_Temp", Def: s.Funcs["Get_Temp"],
		Handler: func([]*doc.Node) ([]*doc.Node, error) {
			return []*doc.Node{doc.Elem("temp", doc.TextNode("15"))}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	err = p.Services.Register(&service.Operation{
		Name: "Front", Def: s.Funcs["Front"],
		Handler: func([]*doc.Node) ([]*doc.Node, error) {
			return []*doc.Node{doc.Elem("page",
				doc.Elem("title", doc.TextNode("t")),
				doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))))}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// benchParallel measures the parallel materialization engine on the E-P1
// fixture — 16 independent calls behind 1ms of injected latency — at degree
// 1 (the sequential engine) and degree 4, and writes the speedup JSON the
// CI smoke step archives. With minSpeedup > 0 it fails unless degree 4 is
// at least that many times faster, guarding against regressions that
// silently serialize the batch.
func benchParallel(path string, minSpeedup float64) error {
	const (
		funcs   = 16
		latency = time.Millisecond
		reps    = 5
	)
	sender, target := experiments.ParallelPair()
	inv := invoke.Chain(experiments.ParallelInvoker(0), invoke.WithLatency(latency))
	measure := func(degree int) (time.Duration, error) {
		rw := core.NewRewriterWithConfig(sender, target, core.RewriterConfig{Depth: 2, Invoker: inv})
		rw.Parallelism = degree
		var total time.Duration
		for i := 0; i < reps; i++ {
			root := experiments.ParallelDoc(funcs)
			start := time.Now()
			if _, err := rw.RewriteDocument(context.Background(), root, core.Safe); err != nil {
				return 0, fmt.Errorf("degree %d: %w", degree, err)
			}
			total += time.Since(start)
		}
		return total / reps, nil
	}
	seq, err := measure(1)
	if err != nil {
		return err
	}
	par, err := measure(4)
	if err != nil {
		return err
	}
	speedup := float64(seq) / float64(par)
	report := map[string]any{
		"benchmark":          "parallel-materialize",
		"funcs":              funcs,
		"latency_ms":         latency.Milliseconds(),
		"reps":               reps,
		"degree1_ns":         seq.Nanoseconds(),
		"degree4_ns":         par.Nanoseconds(),
		"speedup":            speedup,
		"min_speedup":        minSpeedup,
		"speedup_unit_note":  "degree-1 wall clock over degree-4 wall clock; higher is better",
		"generated_by_flag":  "-parallel",
		"workload_unit_note": "16 independent calls, 1ms injected latency each (E-P1 fixture)",
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("parallel benchmark: degree 1 %v, degree 4 %v -> %.2fx speedup -> %s\n",
		seq, par, speedup, path)
	if minSpeedup > 0 && speedup < minSpeedup {
		return fmt.Errorf("parallel speedup %.2fx below required %.2fx", speedup, minSpeedup)
	}
	return nil
}
