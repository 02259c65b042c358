package core

import (
	"fmt"
	"sync"
	"testing"

	"axml/internal/schema"
	"axml/internal/telemetry"
)

// receiverTarget parses a target over an overlay of the sender's table,
// as POST /exchange parses a receiver body; temp is the label its root
// ends with, so distinct temps make distinct pairs.
func receiverTarget(t *testing.T, sender *schema.Schema, temp string) (*schema.Schema, []byte) {
	t.Helper()
	src := fmt.Sprintf("root newspaper\nelem newspaper = title.%s\nelem title = data\nelem %s = data\n", temp, temp)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table.Overlay()), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return target, []byte(src)
}

// TestReceiverAliasKey: a body filed by GetReceiver answers LookupReceiver
// for the same sender at the same version, and for nothing else: another
// body, another sender, or the sender after a declaration.
func TestReceiverAliasKey(t *testing.T) {
	sender, _ := cachePair(t)
	cc := NewCompiledCache(4)
	target, body := receiverTarget(t, sender, "temp")
	if cc.LookupReceiver(sender, body) != nil {
		t.Fatal("an empty cache answered a body")
	}
	c := cc.GetReceiver(sender, target, body)
	if got := cc.LookupReceiver(sender, body); got != c {
		t.Fatalf("LookupReceiver = %p, want the filed analysis %p", got, c)
	}
	if got := cc.LookupReceiver(sender, append(body[:len(body):len(body)], ' ')); got != nil {
		t.Error("a body one byte longer hit")
	}
	other, _ := cachePair(t)
	if cc.LookupReceiver(other, body) != nil {
		t.Error("another sender schema hit")
	}
	if err := sender.SetData("extra"); err != nil {
		t.Fatal(err)
	}
	if cc.LookupReceiver(sender, body) != nil {
		t.Error("a sender that declared a name since the body was filed hit")
	}
	if st := cc.Stats(); st.Hits != 1 || st.Misses != 1 || cc.ReceiverHits() != 1 {
		t.Errorf("stats %v, receiver hits %d; want 1 hit, 1 miss, 1 receiver hit", st, cc.ReceiverHits())
	}
}

// TestReceiverAliasDroppedOnEviction: an evicted entry takes its alias
// with it, so no alias keeps an evicted analysis alive, and the alias map
// never holds more bodies than the cache holds entries.
func TestReceiverAliasDroppedOnEviction(t *testing.T) {
	sender, _ := cachePair(t)
	cc := NewCompiledCache(2)
	var bodies [][]byte
	for i := 0; i < 5; i++ {
		target, body := receiverTarget(t, sender, fmt.Sprint("t", i))
		cc.GetReceiver(sender, target, body)
		bodies = append(bodies, body)
	}
	cc.mu.RLock()
	aliases, entries := len(cc.aliases), cc.lru.Len()
	cc.mu.RUnlock()
	if aliases != 2 || entries != 2 {
		t.Fatalf("%d aliases over %d entries after 5 receivers; want 2 over 2", aliases, entries)
	}
	for i, body := range bodies {
		if hit := cc.LookupReceiver(sender, body) != nil; hit != (i >= 3) {
			t.Errorf("receiver %d: hit %t", i, hit)
		}
	}
}

// TestReceiverMissesCountCompiles: under concurrent lookups and filings,
// including identical first requests racing one miss, Misses equals the
// number of Compile runs (the axml_compile_seconds observations), and an
// identical body compiles once.
func TestReceiverMissesCountCompiles(t *testing.T) {
	sender, _ := cachePair(t)
	cc := NewCompiledCache(3)
	reg := telemetry.NewRegistry()
	cc.Instrument(reg)
	const goroutines, rounds = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				temp := fmt.Sprint("t", (g+r)%5)
				target, body := receiverTarget(t, sender, temp)
				if cc.LookupReceiver(sender, body) == nil {
					cc.GetReceiver(sender, target, body)
				}
			}
		}(g)
	}
	wg.Wait()
	compiles := reg.Histogram("axml_compile_seconds", telemetry.DefBuckets).Count()
	if st := cc.Stats(); st.Misses != compiles {
		t.Errorf("Misses %d, Compile ran %d times", st.Misses, compiles)
	}
	if cc.ReceiverHits() == 0 {
		t.Error("no receiver hit in repeated traffic")
	}
}

// TestReceiverConcurrentFirstMiss: identical first requests racing the
// first miss compile once, and all of them get the one analysis.
func TestReceiverConcurrentFirstMiss(t *testing.T) {
	sender, _ := cachePair(t)
	cc := NewCompiledCache(0)
	const goroutines = 16
	got := make([]*Compiled, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		target, body := receiverTarget(t, sender, "temp")
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			if got[g] = cc.LookupReceiver(sender, body); got[g] == nil {
				got[g] = cc.GetReceiver(sender, target, body)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range got {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d got another analysis", g)
		}
	}
	if st := cc.Stats(); st.Misses != 1 || st.Hits != goroutines-1 {
		t.Errorf("stats %v; want one miss and %d hits", st, goroutines-1)
	}
}
