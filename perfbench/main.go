// Command perfbench is the repository's benchmark: it assembles Active XML
// peers in-process at the daemon's default settings, drives one named
// workload against them over loopback HTTP, checks every response, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer split).
//
//	perfbench --workload exchange-remote --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Run it through run.sh, which builds it from the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// numConns is the client's connection count: the machine's CPU count, at
// most two.
var numConns = min(2, runtime.NumCPU())

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wname := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traceOn := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer split")
	workdir := fs.String("workdir", ".bench_build", "directory for generated inputs, WAL data and span dumps")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	def := findWorkload(*wname)
	if def == nil || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	rng := rand.New(rand.NewSource(*seed))
	corpus, err := newCorpus(rng)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	inst, err := def.build(rng, corpus, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: generating inputs:", err)
		return 1
	}
	b := &bench{def: def, inst: inst, dir: dir, seed: *seed, seconds: *seconds, out: os.Stdout}
	if *traceOn == 1 {
		b.dumpPath = filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.jsonl", def.name, *seed))
		err = b.traced()
	} else {
		err = b.measured()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(b.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !b.result.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
