package core

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"axml/internal/regex"
)

// DefaultWordCacheSize bounds the per-Compiled word-verdict memo: how many
// distinct (word, target, k, mode) analyses are remembered before
// least-recently-used verdicts are evicted.
const DefaultWordCacheSize = 4096

// wordCache memoizes word-level rewriting verdicts for one Compiled. The
// verdict of WordSafe / WordPossible is a pure function of the token word
// (symbols, depths, freezing), the target content model, the depth bound
// and the mode — never of the document nodes behind the tokens — so one
// peer serving many messages over the same schema pair keeps answering
// repeated words from the memo instead of rebuilding fork automata and
// products.
type wordCache struct {
	// mu guards entries/lru. The memo is consulted on every word of every
	// message, so hits take only the read lock: recency updates happen
	// opportunistically (when the exclusive lock is free) and on writes.
	mu       sync.RWMutex
	capacity int
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used; values are *wordEntry

	hits, misses, evictions atomic.Uint64
}

type wordEntry struct {
	key     string
	verdict bool
}

func newWordCache(capacity int) *wordCache {
	if capacity <= 0 {
		return nil // disabled
	}
	return &wordCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
}

// get looks key up; the map lookup converts the bytes without copying.
func (wc *wordCache) get(key []byte) (bool, bool) {
	if wc == nil {
		return false, false
	}
	wc.mu.RLock()
	el, ok := wc.entries[string(key)]
	var verdict bool
	if ok {
		verdict = el.Value.(*wordEntry).verdict
	}
	wc.mu.RUnlock()
	if !ok {
		wc.misses.Add(1)
		return false, false
	}
	wc.hits.Add(1)
	if wc.mu.TryLock() {
		// MoveToFront is a no-op if a racing eviction already removed el.
		if el, still := wc.entries[string(key)]; still {
			wc.lru.MoveToFront(el)
		}
		wc.mu.Unlock()
	}
	return verdict, true
}

func (wc *wordCache) put(key string, verdict bool) {
	if wc == nil {
		return
	}
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if el, ok := wc.entries[key]; ok {
		wc.lru.MoveToFront(el) // a racing goroutine computed the same verdict
		return
	}
	el := wc.lru.PushFront(&wordEntry{key: key, verdict: verdict})
	wc.entries[key] = el
	for wc.lru.Len() > wc.capacity {
		oldest := wc.lru.Back()
		wc.lru.Remove(oldest)
		delete(wc.entries, oldest.Value.(*wordEntry).key)
		wc.evictions.Add(1)
	}
}

func (wc *wordCache) stats() CacheStats {
	if wc == nil {
		return CacheStats{}
	}
	wc.mu.RLock()
	size := wc.lru.Len()
	wc.mu.RUnlock()
	return CacheStats{
		Hits:      wc.hits.Load(),
		Misses:    wc.misses.Load(),
		Evictions: wc.evictions.Load(),
		Size:      size,
	}
}

// appendWordKey appends to dst everything a word-level verdict depends
// on. Token.Node is deliberately excluded: it back-references the document
// and never influences the automata.
func appendWordKey(dst []byte, mode Mode, tokens []Token, target *regex.Regex, k int) []byte {
	if mode == Possible {
		dst = append(dst, 'p')
	} else {
		dst = append(dst, 's') // Safe and Mixed share the safe word analysis
	}
	dst = strconv.AppendInt(dst, int64(k), 10)
	dst = append(dst, '|')
	for _, t := range tokens {
		dst = strconv.AppendInt(dst, int64(t.Sym), 10)
		if t.Depth != 0 {
			dst = append(dst, '@')
			dst = strconv.AppendInt(dst, int64(t.Depth), 10)
		}
		if t.Frozen {
			dst = append(dst, '!')
		}
		if t.MustCall {
			dst = append(dst, '^')
		}
		dst = append(dst, '.')
	}
	dst = append(dst, '|')
	return append(dst, target.Key()...)
}

// WordVerdict answers the word-level rewriting question through the memo:
// does the token word rewrite into target within depth k, under the given
// mode? Cache misses run WordSafe (Safe and Mixed) or WordPossible
// (Possible); errors (oversized fork automata) are never cached.
func (c *Compiled) WordVerdict(mode Mode, tokens []Token, target *regex.Regex, k int) (bool, error) {
	var key []byte
	return c.wordVerdict(&key, mode, tokens, target, k)
}

// wordVerdict is WordVerdict with the memo key appended into *key, scratch
// the caller reuses across the words it asks about: a memo hit allocates
// nothing, and a miss allocates only the key string it files.
func (c *Compiled) wordVerdict(key *[]byte, mode Mode, tokens []Token, target *regex.Regex, k int) (bool, error) {
	ins := c.instruments()
	ins.observeWordVerdict(mode)
	wc := c.loadWordCache()
	if wc != nil {
		if need := len(tokens)*8 + 32 + len(target.Key()); cap(*key) < need {
			*key = make([]byte, 0, need)
		}
		*key = appendWordKey((*key)[:0], mode, tokens, target, k)
		if v, ok := wc.get(*key); ok {
			return v, nil
		}
	}
	var start time.Time
	if ins != nil {
		start = time.Now()
	}
	analyze := WordSafe // Safe and Mixed share the safe word analysis
	if mode == Possible {
		analyze = WordPossible
	}
	verdict, err := analyze(c, tokens, target, k)
	if err != nil {
		return false, err
	}
	if ins != nil {
		ins.observeWordAnalysis(mode, time.Since(start))
	}
	if wc != nil {
		wc.put(string(*key), verdict)
	}
	return verdict, nil
}

// WordCacheStats snapshots the word-verdict memo counters.
func (c *Compiled) WordCacheStats() CacheStats {
	return c.loadWordCache().stats()
}

// SetWordCacheCapacity replaces the word-verdict memo with a fresh one of
// the given capacity; negative disables memoization. Existing verdicts are
// dropped. Safe to call concurrently with readers.
func (c *Compiled) SetWordCacheCapacity(capacity int) {
	if capacity < 0 {
		c.words.Store(&wordCacheBox{})
		return
	}
	if capacity == 0 {
		capacity = DefaultWordCacheSize
	}
	c.words.Store(&wordCacheBox{wc: newWordCache(capacity)})
}

// wordCacheBox wraps the nillable cache so atomic.Pointer always stores a
// non-nil value ("disabled" is a box holding nil).
type wordCacheBox struct{ wc *wordCache }

func (c *Compiled) loadWordCache() *wordCache {
	if box := c.words.Load(); box != nil {
		return box.wc
	}
	return nil
}
