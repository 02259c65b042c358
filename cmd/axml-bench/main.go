// Command axml-bench regenerates the paper's figures and analytical claims
// as tables (the E-* experiment index of DESIGN.md / EXPERIMENTS.md).
//
//	axml-bench             # run everything
//	axml-bench -run lazy   # run experiments whose id contains "lazy"
//	axml-bench -list       # list experiment ids
//	axml-bench -parallel out.json -min-speedup 2  # slot-pool speedup gate
//	axml-bench -telemetry out.json -max-overhead 5  # telemetry overhead gate
//
// Output is deterministic except for wall-clock timings. The policy-chain
// and storage costs are Go benchmarks: BenchmarkPolicyChain
// (internal/invoke), BenchmarkDurablePut and BenchmarkStoreBackends
// (internal/store).
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
	"axml/internal/telemetry"
)

func main() {
	runFilter := flag.String("run", "", "only run experiments whose id contains this substring")
	list := flag.Bool("list", false, "list experiment ids and exit")
	parallelOut := flag.String("parallel", "", "benchmark the executor at degree 1 and 4 and write the speedup JSON to this file")
	minSpeedup := flag.Float64("min-speedup", 0, "with -parallel: fail unless degree 4 beats degree 1 by this factor (0 = no gate)")
	telemetryOut := flag.String("telemetry", "", "benchmark instrumented vs uninstrumented enforcement and write the overhead JSON to this file")
	maxOverhead := flag.Float64("max-overhead", 0, "with -telemetry: fail if the overhead exceeds this percentage (0 = no gate)")
	flag.Parse()

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

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-20s %s\n", e.Head.ID, e.Head.Title)
		}
		return
	}
	ran := 0
	for _, e := range all {
		if *runFilter != "" && !strings.Contains(e.Head.ID, *runFilter) {
			continue
		}
		e.Run().Fprint(os.Stdout)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "axml-bench: no experiment matches %q\n", *runFilter)
		os.Exit(1)
	}
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

// benchParallel measures the executor on the E-P1 fixture — 16
// independent calls behind 1ms of injected latency — at degree 1 (every
// slot inline) and degree 4, and writes the speedup JSON the CI smoke step
// archives. With minSpeedup > 0 it fails unless degree 4 is at least that
// many times faster, guarding against regressions that silently serialize
// the slots.
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
