// Command axml-loadgen drives a live axmld peer with synthetic HTTP load and
// reports client-side latency distributions, optionally cross-checked against
// the peer's own /metrics histograms.
//
//	axml-loadgen -url http://127.0.0.1:8080 -mix mixed -duration 10s
//	axml-loadgen -url ... -mix all -out BENCH_load.json -check -max-non2xx 0
//	axml-loadgen -url ... -mix skewed -rate 500 -concurrency 16 -zipf 1.4
//
// The harness discovers the peer's schema over GET /wsdl, renders an identity
// exchange schema from it, installs a generated conforming document
// population under /doc/ldg-*, then runs the selected workload mix:
//
//	exchange  90% POST /exchange (safe mode), 10% GET /doc
//	mutation  40% PUT /doc, 30% DELETE /doc (worker-private keys), 30% GET /doc
//	mixed     45% exchange, 20% GET /doc, 15% PUT /doc, 10% /wsdl, 10% /stats
//	skewed    70% exchange, 30% GET /doc, documents Zipf-distributed (hot keys)
//	store     25% PUT /doc, 15% DELETE /doc, 30% GET /doc, 15% GET /docs,
//	          15% GET /docs/by-function — storage-engine churn for the
//	          disk backend's tiering and index paths
//	stream    90% POST /exchange, 10% GET /doc, recording time-to-first-byte
//	          alongside the full round trip — the peer enforces the whole
//	          document before it writes, so grow -doc-bytes (1KiB, 64KiB,
//	          1MiB) to separate enforcement from body transfer
//	replica   30% PUT probe documents, 45% read-your-writes GETs, 25%
//	          population GETs — set -write-url to the leader and -url to a
//	          follower; reads a lagging follower answers with a 404 or an
//	          older probe are tolerated and reported as stale_reads
//
// -write-url routes every mutation (including setup population PUTs) to a
// different peer than -url; the default sends everything to -url.
//
// -rate 0 (the default) runs closed-loop: each worker issues its next request
// as soon as the previous one completes. A positive -rate runs open-loop at
// that aggregate request rate, shedding (and counting) requests the workers
// cannot absorb.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"axml/internal/loadgen"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "base URL of the peer under load (reads)")
	writeURL := flag.String("write-url", "", "send mutations to this peer instead of -url (replicated pairs: the leader)")
	mix := flag.String("mix", "mixed", `workload mix: exchange, mutation, mixed, skewed, store, stream, replica, or "all"`)
	duration := flag.Duration("duration", 5*time.Second, "measured duration per mix (setup excluded)")
	concurrency := flag.Int("concurrency", 8, "number of workers")
	rate := flag.Float64("rate", 0, "aggregate open-loop request rate in req/s (0 = closed loop)")
	seed := flag.Int64("seed", 1, "seed for document generation and op sequencing")
	docs := flag.Int("docs", 32, "generated document population size")
	docBytes := flag.String("doc-bytes", "0", `pad each generated document to roughly this rendered size ("64KiB", "1MiB", plain bytes; 0 = natural size)`)
	zipf := flag.Float64("zipf", 1.2, "Zipf exponent for the skewed mix (> 1)")
	out := flag.String("out", "", "write the JSON report to this file (default stdout only)")
	check := flag.Bool("check", false, "cross-check client histograms against the peer's /metrics (requires telemetry, exclusive access)")
	maxNon2xx := flag.Int64("max-non2xx", -1, "fail if any mix sees more than this many non-2xx responses (-1 = no gate)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request HTTP client timeout")
	flag.Parse()

	targetBytes, err := parseSize(*docBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "axml-loadgen: -doc-bytes:", err)
		os.Exit(2)
	}

	mixes := []string{*mix}
	if *mix == "all" {
		mixes = loadgen.Mixes
	}

	client := &http.Client{Timeout: *timeout}
	reports := make([]*loadgen.Report, 0, len(mixes))
	failed := false
	for _, m := range mixes {
		r := loadgen.New(loadgen.Config{
			BaseURL:      *url,
			WriteURL:     *writeURL,
			Mix:          m,
			Duration:     *duration,
			Concurrency:  *concurrency,
			Rate:         *rate,
			Seed:         *seed,
			Docs:         *docs,
			DocBytes:     targetBytes,
			Zipf:         *zipf,
			Client:       client,
			CheckMetrics: *check,
		})
		rep, err := r.Run(context.Background())
		if err != nil {
			fmt.Fprintf(os.Stderr, "axml-loadgen: mix %s: %v\n", m, err)
			os.Exit(1)
		}
		reports = append(reports, rep)
		printSummary(rep)
		if *maxNon2xx >= 0 && int64(rep.Non2xx) > *maxNon2xx {
			fmt.Fprintf(os.Stderr, "axml-loadgen: mix %s: %d non-2xx responses exceed the budget of %d\n", m, rep.Non2xx, *maxNon2xx)
			failed = true
		}
		if rep.Errors > 0 {
			fmt.Fprintf(os.Stderr, "axml-loadgen: mix %s: %d transport errors\n", m, rep.Errors)
			failed = true
		}
		if *check && !rep.ChecksOK {
			for _, c := range rep.Checks {
				if !c.OK {
					fmt.Fprintf(os.Stderr, "axml-loadgen: mix %s: metrics cross-check failed for %s: %s\n", m, c.Handler, c.Reason)
				}
			}
			failed = true
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(map[string]any{"runs": reports}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "axml-loadgen:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "axml-loadgen:", err)
			os.Exit(1)
		}
		fmt.Printf("report -> %s\n", *out)
	}
	if failed {
		os.Exit(1)
	}
}

// parseSize reads a byte count with an optional KiB/MiB suffix.
func parseSize(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "MiB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MiB")
	case strings.HasSuffix(s, "KiB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KiB")
	}
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || n < 0 {
		return 0, fmt.Errorf("want a byte count like 65536, 64KiB, or 1MiB, got %q", s)
	}
	return n * mult, nil
}

func printSummary(rep *loadgen.Report) {
	loop := "closed"
	if rep.Rate > 0 {
		loop = fmt.Sprintf("open @ %.0f rps", rep.Rate)
	}
	fmt.Printf("mix %-9s %s loop, %d workers, %.1fs: %d reqs (%.0f rps), %d non-2xx, %d errors",
		rep.Mix, loop, rep.Concurrency, rep.Duration, rep.Requests, rep.Throughput, rep.Non2xx, rep.Errors)
	if rep.Dropped > 0 {
		fmt.Printf(", %d shed", rep.Dropped)
	}
	if rep.StaleReads > 0 {
		fmt.Printf(", %d stale reads", rep.StaleReads)
	}
	fmt.Println()
	for _, h := range []string{"exchange", "exchange_ttfb", "doc", "wsdl", "stats"} {
		hs, ok := rep.Handlers[h]
		if !ok {
			continue
		}
		fmt.Printf("  %-9s %7d reqs  p50 %8.3fms  p99 %8.3fms  p999 %8.3fms\n",
			h, hs.Count, hs.P50*1000, hs.P99*1000, hs.P999*1000)
	}
	for _, c := range rep.Checks {
		status := "ok"
		if !c.OK {
			status = "FAIL: " + c.Reason
		}
		fmt.Printf("  check %-9s client=%d server=%d %s\n", c.Handler, c.ClientCount, c.ServerCount, status)
	}
}
