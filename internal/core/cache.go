// Compiled-enforcement caching. Safe rewriting is the expensive half of the
// Schema Enforcement module — Compile plus the per-content-model complement,
// product and marking — yet it depends only on the schema pair, the depth
// bound and the mode, never on the document being exchanged. A production
// peer therefore pays the analysis once per distinct schema pair and reuses
// it across every message:
//
//   - CompiledCache deduplicates Compile itself: one *Compiled per schema
//     pair, keyed by content fingerprint so that re-parsed but identical
//     exchange schemas (the /exchange endpoint creates one per request) hit;
//     an entry can also be found by the receiver body it was parsed from
//     (LookupReceiver), so a repeated body skips the parse and the
//     fingerprints;
//   - each *Compiled carries a bounded word-verdict memo (wordcache.go) that
//     amortizes the safe/possible products and lazy derivative exploration
//     across repeated words.
//
// Both layers are safe for concurrent use; in-flight compilations are
// single-flighted so a thundering herd of identical requests performs one
// analysis.
package core

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"axml/internal/regex"
	"axml/internal/schema"
	"axml/internal/telemetry"
)

// DefaultCompiledCacheSize bounds how many distinct schema pairs a
// CompiledCache keeps compiled before evicting least-recently-used entries.
const DefaultCompiledCacheSize = 64

// CacheStats is a point-in-time snapshot of a cache's counters.
type CacheStats struct {
	Hits      uint64
	Misses    uint64 // for CompiledCache: exactly the number of Compile runs
	Evictions uint64
	Size      int
}

func (s CacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d size=%d", s.Hits, s.Misses, s.Evictions, s.Size)
}

// CompiledCache is an LRU cache of *Compiled keyed by schema-pair identity.
// The zero value is not usable; create one with NewCompiledCache. A nil
// *CompiledCache degrades to uncached compilation, so callers can thread an
// optional cache without branching.
type CompiledCache struct {
	// WordCacheCapacity, when non-zero, overrides the word-verdict memo
	// capacity of every Compiled this cache creates (negative disables the
	// memo). Zero keeps DefaultWordCacheSize.
	WordCacheCapacity int

	// mu guards entries/aliases/lru/inflight and the entries' alias
	// fields. Hits take only the read lock — the cache sits on every
	// message's path, so parallel requests over cached pairs must not
	// serialize. Counters are atomic for the same reason.
	mu       sync.RWMutex
	capacity int
	entries  map[string]*list.Element // key -> element holding *compiledEntry
	// aliases maps a receiver body to the element of the entry it was
	// parsed into; each entry holds at most one, dropped with the entry.
	aliases  map[string]*list.Element
	lru      *list.List // front = most recently used
	inflight map[string]*inflightCompile

	hits, misses, evictions atomic.Uint64
	// receiverHits counts the hits LookupReceiver served.
	receiverHits atomic.Uint64

	// instr/compileSeconds are set once by Instrument (before the cache
	// serves traffic) and propagated onto every Compiled this cache
	// produces, so word-level analyses report into the same registry.
	instr          *Instruments
	compileSeconds *telemetry.Histogram
}

type compiledEntry struct {
	key string
	c   *Compiled
	// alias is the receiver body filed for this entry ("" for none), valid
	// for a lookup from aliasSender while that schema is at aliasVersion
	// and its table's root is aliasRoot.
	alias        string
	aliasSender  *schema.Schema
	aliasVersion uint64
	aliasRoot    *regex.Table
}

type inflightCompile struct {
	done chan struct{}
	c    *Compiled // nil if the compile panicked
}

// NewCompiledCache returns an empty cache bounded to capacity entries;
// capacity <= 0 selects DefaultCompiledCacheSize.
func NewCompiledCache(capacity int) *CompiledCache {
	if capacity <= 0 {
		capacity = DefaultCompiledCacheSize
	}
	return &CompiledCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		aliases:  make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*inflightCompile),
	}
}

// PairKey computes the cache identity of a (sender, target) schema pair. The
// symbol namespace namespaces the key: fingerprints are table-relative (they
// embed interned symbol ids), so pairs from different namespaces must never
// collide even inside one shared cache. For a target parsed into a
// request-scoped table overlay (the /exchange path), the namespace is the
// root table's identity plus the overlay's extension key — two overlays that
// assigned the same symbols to the same names share cache entries, while any
// divergence in base or interning order keys separately instead of serving a
// stale analysis.
func PairKey(sender, target *schema.Schema) string {
	if sender == nil {
		sender = target
	}
	t := target.Table
	return fmt.Sprintf("%p\x00%s\x00%s\x00%s", t.Root(), t.ExtensionKey(), sender.Fingerprint(), target.Fingerprint())
}

// Get returns the compiled analysis for the schema pair, compiling it at
// most once per distinct pair no matter how many goroutines ask
// concurrently. Compile's panic on mismatched symbol tables propagates to
// every concurrent caller.
func (cc *CompiledCache) Get(sender, target *schema.Schema) *Compiled {
	if cc == nil {
		return Compile(sender, target)
	}
	c, _ := cc.get(sender, target)
	return c
}

// GetReceiver is Get for a target parsed from a receiver's body into an
// overlay of sender's table. It also files body as the alias of the pair's
// entry, replacing the entry's previous alias, so that LookupReceiver
// answers the same bytes without a parse while sender stays at the version
// it had when GetReceiver began.
func (cc *CompiledCache) GetReceiver(sender, target *schema.Schema, body []byte) *Compiled {
	if cc == nil {
		return Compile(sender, target)
	}
	if sender == nil {
		sender = target
	}
	// The version is read before the fingerprints: a declaration racing
	// this call leaves the alias an older version than the analysis, so
	// it is never served for the newer one.
	version := sender.Version()
	c, key := cc.get(sender, target)
	cc.mu.Lock()
	if el := cc.entries[key]; el != nil && el.Value.(*compiledEntry).c == c {
		cc.fileLocked(el, body, sender, version)
	}
	cc.mu.Unlock()
	return c
}

// LookupReceiver returns the resident analysis whose alias is body, filed
// by GetReceiver for the same sender, at the version sender has now and
// over the same root table; nil when there is none. It neither parses nor
// fingerprints. A hit counts as a hit; a nil return counts nothing, since
// the caller then parses the body and calls GetReceiver, which counts.
//
// The key covers everything a fresh parse and compile of body could read:
// the bytes, the sender's identity and declarations (its version counts
// them, and DefineQueryService adds declarations to a live schema) and the
// symbol namespace the body is parsed into.
func (cc *CompiledCache) LookupReceiver(sender *schema.Schema, body []byte) *Compiled {
	if cc == nil {
		return nil
	}
	cc.mu.RLock()
	el := cc.aliases[string(body)]
	var c *Compiled
	if el != nil {
		e := el.Value.(*compiledEntry)
		if e.aliasSender == sender && e.aliasVersion == sender.Version() && e.aliasRoot == sender.Table.Root() {
			c = e.c
		}
	}
	cc.mu.RUnlock()
	if c == nil {
		return nil
	}
	cc.hits.Add(1)
	cc.receiverHits.Add(1)
	if cc.mu.TryLock() {
		cc.lru.MoveToFront(el) // a no-op once el is evicted
		cc.mu.Unlock()
	}
	return c
}

// get is Get on a non-nil cache, also returning the pair's key.
func (cc *CompiledCache) get(sender, target *schema.Schema) (*Compiled, string) {
	key := PairKey(sender, target)
	// Fast path: a resident entry is returned under the shared lock. Recency
	// is updated only when the exclusive lock is free — an approximation that
	// keeps concurrent hits from queueing on one mutex; a hot entry that
	// never wins TryLock is by definition being hit constantly and will be
	// re-inserted on the rare miss after eviction.
	cc.mu.RLock()
	el, resident := cc.entries[key]
	var c *Compiled
	if resident {
		c = el.Value.(*compiledEntry).c
	}
	cc.mu.RUnlock()
	if resident {
		cc.hits.Add(1)
		if cc.mu.TryLock() {
			if el, still := cc.entries[key]; still {
				cc.lru.MoveToFront(el)
			}
			cc.mu.Unlock()
		}
		return c, key
	}
	cc.mu.Lock()
	if el, ok := cc.entries[key]; ok { // raced with another miss
		cc.lru.MoveToFront(el)
		cc.hits.Add(1)
		c := el.Value.(*compiledEntry).c
		cc.mu.Unlock()
		return c, key
	}
	if fl, ok := cc.inflight[key]; ok {
		cc.mu.Unlock()
		<-fl.done
		if fl.c == nil {
			// The leader panicked; re-run to surface the same panic here.
			return Compile(sender, target), key
		}
		// A caller served by another's compile did not compile: a hit.
		cc.hits.Add(1)
		return fl.c, key
	}
	fl := &inflightCompile{done: make(chan struct{})}
	cc.inflight[key] = fl
	cc.misses.Add(1)
	instr, compileSeconds := cc.instr, cc.compileSeconds
	cc.mu.Unlock()

	defer func() {
		close(fl.done)
		cc.mu.Lock()
		delete(cc.inflight, key)
		if fl.c != nil {
			el := cc.lru.PushFront(&compiledEntry{key: key, c: fl.c})
			cc.entries[key] = el
			for cc.lru.Len() > cc.capacity {
				oldest := cc.lru.Back()
				cc.lru.Remove(oldest)
				e := oldest.Value.(*compiledEntry)
				delete(cc.entries, e.key)
				if e.alias != "" {
					delete(cc.aliases, e.alias)
				}
				cc.evictions.Add(1)
			}
		}
		cc.mu.Unlock()
	}()
	var t0 time.Time
	if compileSeconds != nil {
		t0 = time.Now()
	}
	c = Compile(sender, target)
	compileSeconds.ObserveSince(t0)
	if cc.WordCacheCapacity != 0 {
		c.SetWordCacheCapacity(cc.WordCacheCapacity)
	}
	if instr != nil {
		c.SetInstruments(instr)
	}
	fl.c = c
	return c, key
}

// fileLocked makes body the alias of el's entry, for lookups from sender
// at version; cc.mu is held exclusively. The body's previous entry, and
// el's previous alias, lose theirs, so an entry holds one alias at most
// and an alias lives no longer than its entry.
func (cc *CompiledCache) fileLocked(el *list.Element, body []byte, sender *schema.Schema, version uint64) {
	e := el.Value.(*compiledEntry)
	switch prev := cc.aliases[string(body)]; {
	case prev == el:
		// el already holds body as its alias.
	case prev != nil:
		// The body moves to el's entry, keeping its key string.
		pe := prev.Value.(*compiledEntry)
		if e.alias != "" {
			delete(cc.aliases, e.alias)
		}
		e.alias = pe.alias
		pe.alias, pe.aliasSender, pe.aliasRoot = "", nil, nil
	default:
		if e.alias != "" {
			delete(cc.aliases, e.alias)
		}
		e.alias = string(body)
	}
	e.aliasSender, e.aliasVersion, e.aliasRoot = sender, version, sender.Table.Root()
	cc.aliases[e.alias] = el
}

// ReceiverHits reports how many of Stats' hits LookupReceiver served.
func (cc *CompiledCache) ReceiverHits() uint64 {
	if cc == nil {
		return 0
	}
	return cc.receiverHits.Load()
}

// Instrument wires the cache into a telemetry registry: hit/miss/eviction
// and residency series read the live counters at scrape time, compile runs
// are timed into axml_compile_seconds, and every Compiled this cache has
// produced (or produces later) reports its word-level analyses through the
// registry's instruments. Call once, before the cache serves traffic;
// re-instrumenting replaces the scrape callbacks but not handles already
// captured by resident rewriters. A nil cache or registry no-ops.
func (cc *CompiledCache) Instrument(reg *telemetry.Registry) *Instruments {
	if cc == nil || reg == nil {
		return nil
	}
	ins := NewInstruments(reg)
	cc.mu.Lock()
	cc.instr = ins
	cc.compileSeconds = reg.Histogram("axml_compile_seconds", telemetry.DefBuckets)
	for el := cc.lru.Front(); el != nil; el = el.Next() {
		el.Value.(*compiledEntry).c.SetInstruments(ins)
	}
	cc.mu.Unlock()
	reg.CounterFunc("axml_compile_cache_hits_total", func() float64 { return float64(cc.hits.Load()) })
	reg.CounterFunc("axml_compile_cache_misses_total", func() float64 { return float64(cc.misses.Load()) })
	reg.CounterFunc("axml_compile_cache_evictions_total", func() float64 { return float64(cc.evictions.Load()) })
	reg.CounterFunc("axml_compile_cache_receiver_hits_total", func() float64 { return float64(cc.receiverHits.Load()) })
	reg.GaugeFunc("axml_compile_cache_entries", func() float64 { return float64(cc.Len()) })
	reg.CounterFunc("axml_word_cache_hits_total", func() float64 { return float64(cc.WordStats().Hits) })
	reg.CounterFunc("axml_word_cache_misses_total", func() float64 { return float64(cc.WordStats().Misses) })
	reg.CounterFunc("axml_word_cache_evictions_total", func() float64 { return float64(cc.WordStats().Evictions) })
	reg.GaugeFunc("axml_word_cache_entries", func() float64 { return float64(cc.WordStats().Size) })
	return ins
}

// Stats snapshots the compile-level counters. Misses equals the number of
// times Compile actually ran on behalf of this cache.
func (cc *CompiledCache) Stats() CacheStats {
	if cc == nil {
		return CacheStats{}
	}
	cc.mu.RLock()
	size := cc.lru.Len()
	cc.mu.RUnlock()
	return CacheStats{
		Hits:      cc.hits.Load(),
		Misses:    cc.misses.Load(),
		Evictions: cc.evictions.Load(),
		Size:      size,
	}
}

// WordStats aggregates the word-verdict memo counters of every resident
// Compiled.
func (cc *CompiledCache) WordStats() CacheStats {
	if cc == nil {
		return CacheStats{}
	}
	cc.mu.RLock()
	compiled := make([]*Compiled, 0, cc.lru.Len())
	for el := cc.lru.Front(); el != nil; el = el.Next() {
		compiled = append(compiled, el.Value.(*compiledEntry).c)
	}
	cc.mu.RUnlock()
	var total CacheStats
	for _, c := range compiled {
		ws := c.WordCacheStats()
		total.Hits += ws.Hits
		total.Misses += ws.Misses
		total.Evictions += ws.Evictions
		total.Size += ws.Size
	}
	return total
}

// Len reports how many compiled pairs are resident.
func (cc *CompiledCache) Len() int {
	if cc == nil {
		return 0
	}
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return cc.lru.Len()
}

// Purge drops every resident entry (in-flight compilations finish and are
// then dropped by their own cleanup only if still keyed; counters persist).
func (cc *CompiledCache) Purge() {
	if cc == nil {
		return
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.entries = make(map[string]*list.Element)
	cc.aliases = make(map[string]*list.Element)
	cc.lru.Init()
}
