package core

import (
	"sync"
	"time"

	"axml/internal/telemetry"
)

// Instruments is the pre-resolved set of telemetry handles the rewriting
// pipeline reports into. Handles are resolved once at construction so the
// hot paths never touch the registry's lock; every enumerable series is
// registered eagerly so a freshly booted peer already exposes the full
// catalogue (at zero) on /metrics.
//
// A nil *Instruments is the documented no-op: every method returns
// immediately, and since the telemetry handle types are themselves
// nil-safe, instrumented code contains no telemetry branches beyond the
// nil checks that skip clock reads.
type Instruments struct {
	reg *telemetry.Registry

	// --- word-level analysis (safe.go / possible.go / lazy.go) ---
	wordVerdicts [2][2]*telemetry.Counter   // [engine][safe|possible]
	wordSeconds  [2][2]*telemetry.Histogram // cache-miss analysis latency
	forkSeconds  *telemetry.Histogram
	complSeconds *telemetry.Histogram
	dfaSeconds   *telemetry.Histogram
	forkStates   *telemetry.Histogram
	prodEager    *telemetry.Histogram
	prodPossible *telemetry.Histogram
	prodLazy     *telemetry.Histogram
	lazySink     *telemetry.Counter
	lazyMark     *telemetry.Counter

	// --- rewriting (exec.go) ---
	rewrites    [3]*telemetry.Counter // [Safe|Possible|Mixed]
	rewriteErrs [3]*telemetry.Counter
	rewriteSecs [3]*telemetry.Histogram
	decKeep     *telemetry.Counter
	decInvoke   *telemetry.Counter
	decDefer    *telemetry.Counter
	decBack     *telemetry.Counter
	// verifiedChecks counts static checks that skipped the shared subtrees
	// of a version an earlier check verified (rewriter.go checkForest).
	verifiedChecks *telemetry.Counter

	// --- invocation layer (event bridge) ---
	retries        *telemetry.Counter
	exhausted      *telemetry.Counter
	timeouts       *telemetry.Counter
	degraded       *telemetry.Counter
	faults         *telemetry.Counter
	breakerOpen    *telemetry.Counter
	breakerClose   *telemetry.Counter
	breakerHalf    *telemetry.Counter
	breakerRejects *telemetry.Counter

	// --- parallel engine (parallel.go) ---
	parActive  *telemetry.Gauge
	parSpawned *telemetry.Counter
	parInline  *telemetry.Counter
	parRounds  [2]*telemetry.Counter   // [word|preinvoke]
	parBatch   [2]*telemetry.Histogram // [word|preinvoke]

	// Per-endpoint handles are an open set, resolved lazily on the first
	// call to an endpoint and cached here so the invocation hot path never
	// takes the registry's write lock again.
	epMu sync.RWMutex
	eps  map[string]*endpointInstruments
}

// endpointInstruments bundles the per-endpoint series — call latency,
// error count and breaker state — plus the pre-built span name so the
// invocation path doesn't concatenate strings per call.
type endpointInstruments struct {
	seconds  *telemetry.Histogram
	errors   *telemetry.Counter
	breaker  *telemetry.Gauge
	spanName string // "invoke.<endpoint>"
}

// phase indices for parRounds/parBatch
const (
	phaseWord = iota
	phasePre
)

// rewriteSpanNames pre-builds the per-mode span names stamped on every
// top-level rewriting, sparing a concatenation per call.
var rewriteSpanNames = [3]string{"rewrite.safe", "rewrite.possible", "rewrite.mixed"}

func rewriteSpanName(mode Mode) string {
	if mode <= Mixed {
		return rewriteSpanNames[mode]
	}
	return "rewrite." + mode.String()
}

// NewInstruments resolves the pipeline's metric handles against reg,
// registering every enumerable series up front. A nil registry yields a
// nil (no-op) *Instruments.
func NewInstruments(reg *telemetry.Registry) *Instruments {
	if reg == nil {
		return nil
	}
	ins := &Instruments{reg: reg}
	engines := [2]string{"eager", "lazy"}
	analyses := [2]string{"safe", "possible"}
	for e, ename := range engines {
		for m, mname := range analyses {
			ins.wordVerdicts[e][m] = reg.Counter("axml_word_verdicts_total", "engine", ename, "mode", mname)
			ins.wordSeconds[e][m] = reg.Histogram("axml_word_analysis_seconds", telemetry.DefBuckets, "engine", ename, "mode", mname)
		}
	}
	ins.forkSeconds = reg.Histogram("axml_automaton_seconds", telemetry.DefBuckets, "stage", "fork")
	ins.complSeconds = reg.Histogram("axml_automaton_seconds", telemetry.DefBuckets, "stage", "complement")
	ins.dfaSeconds = reg.Histogram("axml_automaton_seconds", telemetry.DefBuckets, "stage", "target_dfa")
	ins.forkStates = reg.Histogram("axml_automaton_states", telemetry.CountBuckets, "kind", "fork")
	ins.prodEager = reg.Histogram("axml_automaton_states", telemetry.CountBuckets, "kind", "product_safe")
	ins.prodPossible = reg.Histogram("axml_automaton_states", telemetry.CountBuckets, "kind", "product_possible")
	ins.prodLazy = reg.Histogram("axml_automaton_states", telemetry.CountBuckets, "kind", "product_lazy")
	ins.lazySink = reg.Counter("axml_lazy_prunes_total", "kind", "sink")
	ins.lazyMark = reg.Counter("axml_lazy_prunes_total", "kind", "mark")

	for m := Safe; m <= Mixed; m++ {
		ins.rewrites[m] = reg.Counter("axml_rewrites_total", "mode", m.String())
		ins.rewriteErrs[m] = reg.Counter("axml_rewrite_errors_total", "mode", m.String())
		ins.rewriteSecs[m] = reg.Histogram("axml_rewrite_seconds", telemetry.DefBuckets, "mode", m.String())
	}
	ins.decKeep = reg.Counter("axml_word_decisions_total", "decision", "keep")
	ins.decInvoke = reg.Counter("axml_word_decisions_total", "decision", "invoke")
	ins.decDefer = reg.Counter("axml_word_decisions_total", "decision", "defer")
	ins.decBack = reg.Counter("axml_word_decisions_total", "decision", "backtrack")
	ins.verifiedChecks = reg.Counter("axml_static_checks_verified_total")

	ins.retries = reg.Counter("axml_invoke_retries_total")
	ins.exhausted = reg.Counter("axml_invoke_exhausted_total")
	ins.timeouts = reg.Counter("axml_invoke_timeouts_total")
	ins.degraded = reg.Counter("axml_invoke_degraded_total")
	ins.faults = reg.Counter("axml_fault_injections_total")
	ins.breakerOpen = reg.Counter("axml_breaker_transitions_total", "state", "open")
	ins.breakerClose = reg.Counter("axml_breaker_transitions_total", "state", "closed")
	ins.breakerHalf = reg.Counter("axml_breaker_transitions_total", "state", "half-open")
	ins.breakerRejects = reg.Counter("axml_breaker_rejections_total")

	ins.parActive = reg.Gauge("axml_parallel_active_slots")
	ins.parSpawned = reg.Counter("axml_parallel_tasks_total", "exec", "spawned")
	ins.parInline = reg.Counter("axml_parallel_tasks_total", "exec", "inline")
	ins.parRounds[phaseWord] = reg.Counter("axml_parallel_rounds_total", "phase", "word")
	ins.parRounds[phasePre] = reg.Counter("axml_parallel_rounds_total", "phase", "preinvoke")
	ins.parBatch[phaseWord] = reg.Histogram("axml_parallel_batch_size", telemetry.CountBuckets, "phase", "word")
	ins.parBatch[phasePre] = reg.Histogram("axml_parallel_batch_size", telemetry.CountBuckets, "phase", "preinvoke")
	return ins
}

// Registry exposes the backing registry (nil for no-op instruments).
func (ins *Instruments) Registry() *telemetry.Registry {
	if ins == nil {
		return nil
	}
	return ins.reg
}

func analysisIdx(mode Mode) int {
	if mode == Possible {
		return 1
	}
	return 0 // Safe and Mixed share the safe word analysis
}

func (ins *Instruments) observeWordVerdict(engine EngineKind, mode Mode) {
	if ins == nil {
		return
	}
	ins.wordVerdicts[engine][analysisIdx(mode)].Inc()
}

func (ins *Instruments) observeWordAnalysis(engine EngineKind, mode Mode, d time.Duration) {
	if ins == nil {
		return
	}
	ins.wordSeconds[engine][analysisIdx(mode)].Observe(d.Seconds())
}

func (ins *Instruments) observeLazy(res *LazyResult) {
	if ins == nil || res == nil {
		return
	}
	ins.prodLazy.Observe(float64(res.StatesExplored))
	ins.lazySink.Add(uint64(res.SinkPrunes))
	ins.lazyMark.Add(uint64(res.MarkPrunes))
}

// observeRewrite records one top-level rewriting; traceID (the rewrite
// ID) becomes the latency bucket's exemplar so a slow bucket in
// /metrics links to its recorded trace.
func (ins *Instruments) observeRewrite(mode Mode, d time.Duration, err error, traceID string) {
	if ins == nil || mode > Mixed {
		return
	}
	ins.rewrites[mode].Inc()
	ins.rewriteSecs[mode].ObserveExemplar(d.Seconds(), traceID)
	if err != nil {
		ins.rewriteErrs[mode].Inc()
	}
}

// countKeep / countInvoke / countDefer / countBacktrack tally the
// per-occurrence decisions of the word-rewriting loops.
func (ins *Instruments) countKeep() {
	if ins != nil {
		ins.decKeep.Inc()
	}
}

func (ins *Instruments) countInvoke() {
	if ins != nil {
		ins.decInvoke.Inc()
	}
}

func (ins *Instruments) countDefer() {
	if ins != nil {
		ins.decDefer.Inc()
	}
}

func (ins *Instruments) countBacktrack() {
	if ins != nil {
		ins.decBack.Inc()
	}
}

// countVerifiedCheck tallies a static check that skipped a verified
// version's shared subtrees.
func (ins *Instruments) countVerifiedCheck() {
	if ins != nil {
		ins.verifiedChecks.Inc()
	}
}

// taskStart / taskEnd track parallel-engine slot utilization; spawned
// distinguishes tasks handed to a worker goroutine from those the
// spawning goroutine ran inline for lack of a free slot.
func (ins *Instruments) taskStart(spawned bool) {
	if ins == nil {
		return
	}
	if spawned {
		ins.parSpawned.Inc()
	} else {
		ins.parInline.Inc()
	}
	ins.parActive.Inc()
}

func (ins *Instruments) taskEnd() {
	if ins != nil {
		ins.parActive.Dec()
	}
}

// round records one dispatch round of the parallel engine and its batch
// size; phase is phaseWord or phasePre.
func (ins *Instruments) round(phase, batch int) {
	if ins == nil {
		return
	}
	ins.parRounds[phase].Inc()
	ins.parBatch[phase].Observe(float64(batch))
}

// endpoint resolves (and caches) the per-endpoint handle bundle. The
// first call for a name registers its three series — latency at zero
// observations, errors at 0 and breaker state 0 (closed) — so an
// endpoint shows up complete in the exposition as soon as it is called.
func (ins *Instruments) endpoint(name string) *endpointInstruments {
	if ins == nil {
		return nil
	}
	ins.epMu.RLock()
	ep := ins.eps[name]
	ins.epMu.RUnlock()
	if ep != nil {
		return ep
	}
	ep = &endpointInstruments{
		seconds:  ins.reg.Histogram("axml_invoke_seconds", telemetry.DefBuckets, "endpoint", name),
		errors:   ins.reg.Counter("axml_invoke_errors_total", "endpoint", name),
		breaker:  ins.reg.Gauge("axml_breaker_state", "endpoint", name),
		spanName: "invoke." + name,
	}
	ins.epMu.Lock()
	if have := ins.eps[name]; have != nil {
		ep = have
	} else {
		if ins.eps == nil {
			ins.eps = make(map[string]*endpointInstruments)
		}
		ins.eps[name] = ep
	}
	ins.epMu.Unlock()
	return ep
}

// observeEvent bridges one invocation-layer event onto the counters: the
// policy chain (internal/invoke) already narrates retries, timeouts,
// breaker transitions and injected faults through the context event sink,
// so the executor taps that stream instead of re-instrumenting each
// policy. Breaker transitions additionally drive a per-endpoint state
// gauge (0 closed, 1 half-open, 2 open).
func (ins *Instruments) observeEvent(e InvokeEvent) {
	if ins == nil {
		return
	}
	switch e.Kind {
	case EventAttempt:
		if e.Attempt > 1 {
			ins.retries.Inc()
		}
	case EventExhausted:
		ins.exhausted.Inc()
	case EventTimeout:
		ins.timeouts.Inc()
	case EventDegraded:
		ins.degraded.Inc()
	case EventFault:
		ins.faults.Inc()
	case EventBreakerOpen:
		ins.breakerOpen.Inc()
		ins.breakerGauge(e.Endpoint).Set(2)
	case EventBreakerHalfOpen:
		ins.breakerHalf.Inc()
		ins.breakerGauge(e.Endpoint).Set(1)
	case EventBreakerClose:
		ins.breakerClose.Inc()
		ins.breakerGauge(e.Endpoint).Set(0)
	case EventBreakerReject:
		ins.breakerRejects.Inc()
	}
}

func (ins *Instruments) breakerGauge(endpoint string) *telemetry.Gauge {
	return ins.endpoint(endpoint).breaker
}

// stampSink decorates the rewriting's event sink: it stamps the
// rewrite ID on every event that lacks one and feeds each event to the
// instruments' counters exactly once. Parallel slots buffer their events
// and flushSlot replays them through the parent context's sink — which is
// this one — so bridged counting stays single-counted at any degree.
type stampSink struct {
	inner EventSink
	extra EventSink // observer tap (e.g. the peer's event logger)
	ins   *Instruments
	id    string
}

func (s *stampSink) RecordEvent(e InvokeEvent) {
	if e.Rewrite == "" {
		e.Rewrite = s.id
	}
	s.ins.observeEvent(e)
	if s.inner != nil {
		s.inner.RecordEvent(e)
	}
	if s.extra != nil {
		s.extra.RecordEvent(e)
	}
}
