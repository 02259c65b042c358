package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"axml/internal/core"
)

// setupReps is how many times a run boots its cluster; setup_s is the
// median, and the last cluster is the one measured.
const setupReps = 3

// Phase shares of --seconds. The measured run spends them on the open loop
// and the closed loop; the traced run on an untraced open loop and the
// sequential run that alternates traced and untraced requests.
const (
	openShare       = 0.7
	closedShare     = 0.3
	tracedOpenShare = 0.5
	tracedSeqShare  = 0.5
	// lateBoundMs bounds driver.late_p99_ms. With both CPUs busy serving,
	// a due request's goroutine can wait for the scheduler's 10 ms
	// preemption slice; beyond twice that the generator is not keeping its
	// schedule.
	lateBoundMs = 20.0
	// capacityWindows splits the closed loop; capacity_rps is the median
	// window's rate, so a brief stall elsewhere on the machine moves it less.
	capacityWindows  = 10
	largeMinResponse = 1 << 20
)

type bench struct {
	def      *workloadDef
	inst     *instance
	dir      string
	seed     int64
	seconds  float64
	dumpPath string
	out      io.Writer

	result result
	errs   []string
	guards []string // failed purpose guards
	boots  int

	settleAttempted, settleFailed int // discarded settle phases still count for correctness
}

func (b *bench) phaseDur(share float64) time.Duration {
	return time.Duration(b.seconds * share * float64(time.Second))
}

// boot assembles a fresh cluster for the instance.
func (b *bench) boot(tr *tracer) (*cluster, error) {
	spec := b.inst.spec
	spec.tracer = tr
	if b.inst.wal {
		spec.walDir = filepath.Join(b.dir, fmt.Sprintf("wal-%d", b.boots))
	}
	b.boots++
	spec.warmup = func(cl *cluster) error {
		c := newConn()
		defer c.tr.CloseIdleConnections()
		for _, o := range b.inst.warmOps {
			if _, _, err := b.inst.runner.do(c, cl.srvA.url, o); err != nil {
				return err
			}
		}
		return nil
	}
	return bootCluster(spec)
}

func (b *bench) newConns(n int) []*conn {
	conns := make([]*conn, n)
	for i := range conns {
		conns[i] = newConn()
		if b.inst.churn != nil {
			conns[i].state = b.inst.churn.newState(i)
		}
	}
	return conns
}

func closeConns(conns []*conn) {
	for _, c := range conns {
		c.tr.CloseIdleConnections()
	}
}

// settleSeconds of open-loop load at the workload's rate precede the
// measured phases and are discarded: the first seconds after boot run with
// fresh connections and a heap the collector has not yet sized.
const settleSeconds = 1.5

func (b *bench) settle(base string, conns []*conn) {
	res := runPhase(b.inst.runner, base, phase{conns: len(conns), openRate: b.def.rate, dur: time.Duration(settleSeconds * float64(time.Second)), seed: b.seed + 3}, conns)
	b.settleFailed += res.failed
	b.settleAttempted += res.attempted
	b.errs = append(b.errs, res.errs...)
}

// counters snapshots the program's own counters around a phase.
type counters struct {
	mem        runtime.MemStats
	compile    core.CacheStats
	words      core.CacheStats
	audit      int
	retryWaits int
	exchanges  int64
	calls      int64
	xsdBytes   int64
	walAppends uint64
	walBytes   uint64
	walFsyncs  uint64
	walSnaps   uint64
	writes     int64
	userBytes  int64
}

func (b *bench) snapshot(cl *cluster) counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	c.compile = cl.a.Enforcement.Stats()
	c.words = cl.a.Enforcement.WordStats()
	c.audit = cl.a.Audit.Len()
	c.retryWaits = cl.a.Audit.EventCount(core.EventRetryWait)
	if e := b.inst.exch; e != nil {
		c.exchanges, c.calls, c.xsdBytes = e.exchanges.Load(), e.expectedCalls.Load(), e.bodyBytes.Load()
	}
	if cl.durable != nil {
		ws := cl.durable.Stats().WAL
		c.walAppends, c.walBytes, c.walFsyncs, c.walSnaps = ws.Appends, ws.AppendedBytes, ws.Fsyncs, ws.Snapshots
		c.writes, c.userBytes = b.inst.churn.writes.Load(), b.inst.churn.userBytes.Load()
	}
	return c
}

// checkOutputs runs the oracles that need the whole run: exchange responses
// against their receivers, the invocation count against the forbidden calls,
// and for doc-churn the WAL reopened after the cluster closed. It closes the
// cluster.
func (b *bench) checkOutputs(cl *cluster, before, after counters, conns []*conn) int {
	wrong := 0
	if e := b.inst.exch; e != nil {
		n, errs := e.validate()
		wrong += n
		b.errs = append(b.errs, errs...)
		got, want := after.audit-before.audit, int(after.calls-before.calls)
		if got != want {
			wrong += max(1, abs(got-want))
			b.errs = append(b.errs, fmt.Sprintf("peer invoked %d calls, the exchanged documents held %d forbidden calls", got, want))
		}
	}
	if err := cl.close(); err != nil {
		wrong++
		b.errs = append(b.errs, "closing the cluster: "+err.Error())
	}
	if b.inst.churn != nil {
		n, errs := b.inst.churn.verifyDurable(cl.dataDir, conns)
		wrong += n
		b.errs = append(b.errs, errs...)
	}
	if err := cl.destroy(); err != nil {
		b.errs = append(b.errs, "removing the cluster: "+err.Error())
	}
	return wrong
}

// guard records a failed purpose guard.
func (b *bench) guard(ok bool, format string, args ...any) {
	if !ok {
		b.guards = append(b.guards, fmt.Sprintf(format, args...))
	}
}

// purposeGuards fail the run when the workload drifts away from the layer it
// exists to exercise.
func (b *bench) purposeGuards(open *phaseResult, before, after counters) {
	name := b.def.name
	hitRatio := ratio(float64(after.compile.Hits-before.compile.Hits), float64(after.compile.Hits-before.compile.Hits+after.compile.Misses-before.compile.Misses))
	switch name {
	case "exchange-remote":
		b.guard(hitRatio >= 0.99, "core.compile_hit_ratio %.4f < 0.99 on %s", hitRatio, name)
	case "exchange-cold":
		b.guard(hitRatio <= 0.5, "core.compile_hit_ratio %.4f > 0.5 on %s", hitRatio, name)
	case "exchange-large":
		minBytes := b.inst.exch.minBytes.Load()
		b.guard(minBytes >= largeMinResponse, "smallest exchange-large response %d bytes < 1 MiB", minBytes)
	case "doc-churn":
		fpw := ratio(float64(after.walFsyncs-before.walFsyncs), float64(after.writes-before.writes))
		b.guard(fpw >= 0.95 && fpw <= 1.1, "wal.fsyncs_per_write %.3f not within [0.95, 1.1]", fpw)
	}
	if b.inst.exch != nil {
		cpe := ratio(float64(after.audit-before.audit), float64(after.exchanges-before.exchanges))
		b.guard(cpe >= 1, "core.calls_per_exchange %.3f < 1", cpe)
	}
	late := latencies(open.samples, func(s sample) time.Duration { return s.late })
	b.guard(quantile(late, 0.99) < lateBoundMs, "driver.late_p99_ms %.3f >= %.1f", quantile(late, 0.99), lateBoundMs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// measured is the --trace 0 run: repeated setup, then the open-loop and
// closed-loop phases on the last cluster.
func (b *bench) measured() error {
	var setups []float64
	var cl *cluster
	for i := 0; i < setupReps; i++ {
		if cl != nil {
			if err := cl.destroy(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if cl, err = b.boot(nil); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	conns := b.newConns(numConns)
	defer closeConns(conns)
	base := cl.srvA.url
	b.settle(base, conns)
	before := b.snapshot(cl)
	open := runPhase(b.inst.runner, base, phase{conns: numConns, openRate: b.def.rate, dur: b.phaseDur(openShare), seed: b.seed}, conns)
	closed := runPhase(b.inst.runner, base, phase{conns: numConns, dur: b.phaseDur(closedShare), seed: b.seed + 1}, conns)
	after := b.snapshot(cl)
	rssMB := peakRSSMiB()

	total := &phaseResult{}
	total.merge(open)
	total.merge(closed)
	b.errs = append(b.errs, total.errs...)
	b.purposeGuards(open, before, after)
	wrong := b.checkOutputs(cl, before, after, conns)

	completed := len(total.samples)
	lat := latencies(open.samples, func(s sample) time.Duration { return s.lat })
	ttfb := latencies(open.samples, func(s sample) time.Duration { return s.ttfb })
	m := map[string]metric{
		"setup_s":       {median(setups), "s"},
		"p50_ms":        {quantile(lat, 0.5), "ms"},
		"ttfb_p50_ms":   {quantile(ttfb, 0.5), "ms"},
		"allocs_per_op": {ratio(float64(after.mem.Mallocs-before.mem.Mallocs), float64(completed)), "allocs"},
		"peak_rss_mb":   {rssMB, "MiB"},
	}
	b.finish(total.attempted, total.failed+wrong, m)
	b.printRoutes(open, closed, setups)
	return nil
}

// traced is the --trace 1 run: an untraced open loop for the counters, the
// runtime figures and the generator's lateness; then the same sequential
// request stream untraced and traced, for the per-layer split and the
// tracing overhead.
func (b *bench) traced() error {
	// 1. Untraced open loop.
	cl, err := b.boot(nil)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	conns := b.newConns(numConns)
	b.settle(cl.srvA.url, conns)
	before := b.snapshot(cl)
	sampler := startHeapSampler()
	open := runPhase(b.inst.runner, cl.srvA.url, phase{conns: numConns, openRate: b.def.rate, dur: b.phaseDur(tracedOpenShare), seed: b.seed}, conns)
	heapPeak := sampler.stop()
	after := b.snapshot(cl)
	closeConns(conns)
	b.errs = append(b.errs, open.errs...)
	b.purposeGuards(open, before, after)
	attempted, failed := open.attempted, open.failed+b.checkOutputs(cl, before, after, conns)

	// 2. One connection, alternating traced and untraced requests.
	tr := newTracer(b.inst.spec.remote)
	cl, err = b.boot(tr)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	conns = b.newConns(1)
	defer closeConns(conns)
	runner := &tracedRunner{inner: b.inst.runner, t: tr, exch: b.inst.exch}
	zero := b.snapshot(cl)
	seq := runPhase(runner, cl.srvA.url, phase{conns: 1, dur: b.phaseDur(tracedSeqShare), seed: b.seed + 2}, conns)
	b.errs = append(b.errs, seq.errs...)
	attempted += seq.attempted
	failed += seq.failed + b.checkOutputs(cl, zero, b.snapshot(cl), conns)
	if err := tr.check(); err != nil {
		failed++
		b.errs = append(b.errs, err.Error())
	}
	if err := tr.writeDump(b.dumpPath); err != nil {
		return fmt.Errorf("writing the span dump: %w", err)
	}

	m := b.layerMetrics(tr, open, before, after, heapPeak)
	m["bench.trace_overhead_pct"] = metric{runner.overheadPct(), "%"}
	b.finish(attempted, failed, m)
	tr.writeSplit(b.out)
	fmt.Fprintf(b.out, "traced run: %d untraced and %d traced requests alternating on one connection; spans in %s\n",
		runner.count[0], runner.count[1], b.dumpPath)
	return nil
}

// layerMetrics assembles the per-layer metrics: counters from the untraced
// open loop, timings from the traced sequential run.
func (b *bench) layerMetrics(tr *tracer, open *phaseResult, before, after counters, heapPeak float64) map[string]metric {
	completed := float64(len(open.samples))
	exchanges := float64(after.exchanges - before.exchanges)
	hits := float64(after.compile.Hits - before.compile.Hits)
	misses := float64(after.compile.Misses - before.compile.Misses)
	writes := float64(after.writes - before.writes)
	outBytes, outN := 0.0, 0.0
	for _, s := range open.samples {
		if s.bytes > 0 {
			outBytes += float64(s.bytes)
			outN++
		}
	}
	late := latencies(open.samples, func(s sample) time.Duration { return s.late })
	tracedExch := float64(tr.requests[routeExchange])
	soapCalls := float64(tr.spanCount["soap.server"])
	soapClient := 0.0
	if tr.remote {
		soapClient = tr.meanSpan("invoke.call") - tr.meanSpan("soap.server")
	}
	allReq := 0.0
	net, unattributed := 0.0, 0.0
	for r := route(0); r < numRoutes; r++ {
		allReq += float64(tr.requests[r])
		net += tr.layers[r]["peer.net"]
		unattributed += tr.layers[r]["peer.unattributed"]
	}
	puts := float64(tr.spanCount["store.put"])
	ms := func(v float64) metric { return metric{v, "ms"} }
	return map[string]metric{
		"peer.exchange_ms":        ms(ratio(tr.handler[routeExchange], tracedExch)),
		"peer.read_ms":            ms(ratio(tr.handler[routeRead], float64(tr.requests[routeRead]))),
		"peer.write_ms":           ms(ratio(tr.handler[routeWrite], float64(tr.requests[routeWrite]))),
		"peer.net_ms":             ms(ratio(net, allReq)),
		"peer.unattributed_ms":    ms(ratio(unattributed, allReq)),
		"xsdint.parse_ms":         ms(tr.routeMean(routeExchange, "xsdint.parse")),
		"xsdint.body_kb":          {ratio(float64(after.xsdBytes-before.xsdBytes), exchanges) / 1024, "KiB"},
		"core.compile_get_ms":     ms(tr.routeMean(routeExchange, "core.compile_get")),
		"core.compile_hit_ratio":  {ratio(hits, hits+misses), "ratio"},
		"core.compiles":           {ratio(misses, exchanges) * 1000, "1/kop"},
		"core.word_hit_ratio":     {ratio(float64(after.words.Hits), float64(after.words.Hits+after.words.Misses)), "ratio"},
		"core.rewrite_self_ms":    ms(tr.routeMean(routeExchange, "core.rewrite_self")),
		"core.calls_per_exchange": {ratio(float64(after.audit-before.audit), exchanges), "1/op"},
		"invoke.call_ms":          ms(tr.meanSpan("invoke.call")),
		"invoke.calls":            {ratio(float64(tr.calls), tracedExch), "1/op"},
		"invoke.failed":           {float64(tr.failed), "count"},
		"invoke.retries":          {float64(after.retryWaits - before.retryWaits), "count"},
		"service.handler_ms":      ms(tr.meanSpan("service.handler")),
		"soap.server_ms":          ms(tr.meanSpan("soap.server")),
		"soap.client_ms":          ms(soapClient),
		"soap.bytes_per_call":     {ratio(float64(tr.soapBytes), soapCalls), "B"},
		"xmlio.parse_ms":          ms(ratio(tr.layers[routeWrite]["xmlio.parse"], puts)),
		"xmlio.write_ms":          ms(ratio(tr.layers[routeExchange]["xmlio.write"]+tr.layers[routeRead]["xmlio.write"], tracedExch+float64(tr.requests[routeRead]))),
		"xmlio.out_kb":            {ratio(outBytes, outN) / 1024, "KiB"},
		"store.get_ms":            ms(tr.meanSpan("store.get")),
		"store.put_ms":            ms(tr.meanSpan("store.put")),
		"store.delete_ms":         ms(tr.meanSpan("store.delete")),
		"wal.fsyncs_per_write":    {ratio(float64(after.walFsyncs-before.walFsyncs), writes), "1/op"},
		"wal.bytes_per_user_byte": {ratio(float64(after.walBytes-before.walBytes), float64(after.userBytes-before.userBytes)), "ratio"},
		"wal.appends":             {ratio(float64(after.walAppends-before.walAppends), writes), "1/op"},
		"wal.snapshots":           {ratio(float64(after.walSnaps-before.walSnaps), writes) * 1000, "1/kop"},
		"runtime.alloc_kb_per_op": {ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), completed) / 1024, "KiB"},
		"runtime.gc_per_kop":      {ratio(float64(after.mem.NumGC-before.mem.NumGC), completed) * 1000, "1/kop"},
		"runtime.heap_peak_mb":    {heapPeak / (1 << 20), "MiB"},
		"driver.late_p99_ms":      ms(quantile(late, 0.99)),
	}
}

// finish fills the result line and prints the failures and guards.
func (b *bench) finish(attempted, failed int, m map[string]metric) {
	attempted += b.settleAttempted
	failed += b.settleFailed
	b.result = result{
		Correct:   failed == 0 && len(b.guards) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   m,
	}
	for _, e := range b.errs {
		fmt.Fprintln(b.out, "failure:", e)
	}
	for _, g := range b.guards {
		fmt.Fprintln(b.out, "purpose guard failed:", g)
	}
	fmt.Fprintf(b.out, "workload %s, seed %d: %d attempted, %d failed, fail_ratio %.6f (ratio), %d purpose guards failed\n",
		b.def.name, b.seed, attempted, failed, ratio(float64(failed), float64(attempted)), len(b.guards))
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(b.out, "  %-26s %14.6f %s\n", name, m[name].Value, m[name].Unit)
	}
}

// printRoutes prints the per-route open-loop latencies under the names of
// the request types, with sample counts.
func (b *bench) printRoutes(open, closed *phaseResult, setups []float64) {
	fmt.Fprintf(b.out, "open loop %.0f req/s over %d connections, %d completed; closed loop %d completed in %.2f s; setups %v s\n",
		b.def.rate, numConns, len(open.samples), len(closed.samples), closed.elapsed.Seconds(), setups)
	fmt.Fprintf(b.out, "  capacity_rps %.2f 1/s (closed loop, median of %d windows)\n", median(windowRates(closed.samples, capacityWindows)), capacityWindows)
	for r := route(0); r < numRoutes; r++ {
		var ss []sample
		for _, s := range open.samples {
			if s.route == r {
				ss = append(ss, s)
			}
		}
		if len(ss) == 0 {
			continue
		}
		lat := latencies(ss, func(s sample) time.Duration { return s.lat })
		ttfb := latencies(ss, func(s sample) time.Duration { return s.ttfb })
		name := routeNames[r]
		fmt.Fprintf(b.out, "  %s_p50_ms %.4f ms, %s_p99_ms %.4f ms, %s_ttfb_p50_ms %.4f ms (%d samples)\n",
			name, quantile(lat, 0.5), name, quantile(lat, 0.99), name, quantile(ttfb, 0.5), len(ss))
	}
	late := latencies(open.samples, func(s sample) time.Duration { return s.late })
	fmt.Fprintf(b.out, "  driver.late_p99_ms %.4f ms (bound %.1f)\n", quantile(late, 0.99), lateBoundMs)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// heapSampler tracks the peak of live heap objects during a phase.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := float64(s[0].Value.Uint64()); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() float64 {
	close(h.stopc)
	h.wg.Wait()
	return h.peak
}
