package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"axml/internal/doc"
	"axml/internal/schema"
	"axml/internal/xsdint"
)

// frozenSender and frozenReceiver pair a report whose root word holds
// labels neither schema declares, which both wildcards admit, with a
// receiver that forbids the report's one call.
const frozenSender = `
root report
elem report = title.~!(temp|Get_Temp)*.(Get_Temp|temp)
elem title = data
elem temp = data
elem city = data
func Get_Temp = city -> temp
`

const frozenReceiver = `
root report
elem report = title.~!(temp)*.temp
elem title = data
elem temp = data
elem city = data
`

// frozenReport is a report with n undeclared children between its title
// and its Get_Temp call.
func frozenReport(n int) *doc.Node {
	root := doc.Elem("report", doc.Elem("title", doc.TextNode("t")))
	for i := 0; i < n; i++ {
		root.Children = append(root.Children, doc.Elem(fmt.Sprintf("x%d", i), doc.TextNode("v")))
	}
	root.Children = append(root.Children, doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))))
	return root
}

// frozenReceiverSchema parses the receiver into a fresh overlay of the
// sender's table, as /exchange parses every request's receiver.
func frozenReceiverSchema(t *testing.T, sender *schema.Schema) *schema.Schema {
	t.Helper()
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table.Overlay()), frozenReceiver, nil)
	if err != nil {
		t.Fatal(err)
	}
	return target
}

// TestCompiledDoesNotGrowPerRequest: exchanging one document 1,000 times
// over one cached pair leaves the Compiled as its first exchange left it.
// The document carries 50 labels neither schema declares: they intern
// once, and no DFA or entry is built for them or for the per-request
// document type. Frozen entries, the DFAs the first exchange built, the
// symbol table, the derivative table and the word-verdict memo all keep
// their sizes, and so, within a few kilobytes, does the live heap: a memo
// keyed by anything a request builds anew would grow it by one entry per
// exchange.
func TestCompiledDoesNotGrowPerRequest(t *testing.T) {
	sender := schema.MustParseText(frozenSender, nil)
	stored := frozenReport(50)
	cache := NewCompiledCache(0)
	inv := stubInvoker{"Get_Temp": ret(doc.Elem("temp", doc.TextNode("15")))}
	type sizes struct{ entries, dfas, symbols, derivatives, words int }
	var first sizes
	var pair *Compiled
	var heap0 uint64
	for i := 0; i < 1000; i++ {
		c := cache.Get(sender, frozenReceiverSchema(t, sender))
		rw := NewRewriterForConfig(c, RewriterConfig{Invoker: inv})
		if _, err := rw.RewriteDocument(context.Background(), stored.SpineCopy(), Safe); err != nil {
			t.Fatalf("exchange %d: %v", i+1, err)
		}
		entries, dfas := c.tableSizes()
		now := sizes{entries, dfas, c.Table.Len(), c.Deriver().States(), c.WordCacheStats().Size}
		if i == 0 {
			first, pair, heap0 = now, c, liveHeap()
			if dfas == 0 {
				t.Fatal("the receiver's content models have no DFA")
			}
			continue
		}
		if c != pair {
			t.Fatalf("exchange %d compiled the pair again", i+1)
		}
		if now != first {
			t.Fatalf("after exchange %d: %+v; after the first: %+v", i+1, now, first)
		}
	}
	runtime.KeepAlive(pair)
	if grown := int64(liveHeap()) - int64(heap0); grown > 64<<10 {
		t.Errorf("1,000 exchanges over one cached pair grew the live heap by %d bytes", grown)
	}
}

// tableSizes counts c's frozen entries and the DFAs built for them.
func (c *Compiled) tableSizes() (entries, dfas int) {
	c.dfaMu.Lock()
	defer c.dfaMu.Unlock()
	return len(c.names), c.dfas
}

// budgetXSD is a receiver in XML Schema_int syntax whose root d holds any
// number of the labels m0..m(labels-1), each an optional sequence of the
// names x0..x(refs-1), which it never declares: a model of refs positions
// over refs symbols, whose DFA has (refs+1)² cells.
func budgetXSD(labels, refs int) string {
	var b strings.Builder
	b.WriteString(`<schema xmlns="http://www.w3.org/2001/XMLSchema" root="d">`)
	b.WriteString(`<element name="d"><complexType><choice minOccurs="0" maxOccurs="unbounded">`)
	for i := 0; i < labels; i++ {
		fmt.Fprintf(&b, `<element ref="m%d"/>`, i)
	}
	b.WriteString(`</choice></complexType></element>`)
	for i := 0; i < labels; i++ {
		fmt.Fprintf(&b, `<element name="m%d"><complexType><sequence minOccurs="0">`, i)
		for j := 0; j < refs; j++ {
			fmt.Fprintf(&b, `<element ref="x%d"/>`, j)
		}
		b.WriteString(`</sequence></complexType></element>`)
	}
	b.WriteString(`</schema>`)
	return b.String()
}

// budgetTarget parses a budgetXSD receiver as /exchange parses one, over
// the table of a sender that declares nothing the receiver uses.
func budgetTarget(t *testing.T, labels, refs int) (sender, target *schema.Schema) {
	t.Helper()
	sender = schema.MustParseText("root s\nelem s = data\n", nil)
	target, err := xsdint.ParseString(budgetXSD(labels, refs), xsdint.Options{Table: sender.Table.Overlay()})
	if err != nil {
		t.Fatal(err)
	}
	return sender, target
}

// budgetDoc is a d holding m0..m(labels-1), each with the children
// x0..x(refs-1).
func budgetDoc(labels, refs int) *doc.Node {
	root := doc.Elem("d")
	for i := 0; i < labels; i++ {
		m := doc.Elem(fmt.Sprintf("m%d", i))
		for j := 0; j < refs; j++ {
			m.Children = append(m.Children, doc.Elem(fmt.Sprintf("x%d", j)))
		}
		root.Children = append(root.Children, m)
	}
	return root
}

// TestDFACellBudgetBoundsMemory: a receiver of about 1.8 MB can declare 16
// models of 4,090 positions and symbols each, whose DFAs would take 16 ×
// 4,091² four-byte cells, a gigabyte. Compiling the pair and checking a
// document that reaches every one of those models (each m holds the empty
// word, which the models accept) builds none of their DFAs and allocates a
// few megabytes at most.
func TestDFACellBudgetBoundsMemory(t *testing.T) {
	const labels, refs = 16, 4090 // within xsdint's 65,536 positions per schema
	sender, target := budgetTarget(t, labels, refs)
	stored := budgetDoc(labels, 0)
	before := totalAlloc()
	c := Compile(sender, target)
	if err := NewRewriterForConfig(c, RewriterConfig{}).CheckDocument(stored, Safe); err != nil {
		t.Fatal(err)
	}
	allocated := totalAlloc() - before
	if _, dfas := c.tableSizes(); dfas != 1 {
		t.Errorf("%d DFAs built; want 1, the root's", dfas)
	}
	if allocated > 4<<20 {
		t.Errorf("compiling the pair and checking the document allocated %d bytes", allocated)
	}
}

// TestDFACellBudgetShared: the DFAs of one Compiled share its cell budget.
// Eight models of 300 positions take 301² cells each: the root's DFA and
// the first two of those fit, the rest keep the derivative table, and
// every model still decides its words exactly.
func TestDFACellBudgetShared(t *testing.T) {
	const labels, refs = 8, 300
	c := Compile(budgetTarget(t, labels, refs))
	rw := NewRewriterForConfig(c, RewriterConfig{})
	if err := rw.CheckDocument(budgetDoc(labels, refs), Safe); err != nil {
		t.Fatal(err)
	}
	_, dfas := c.tableSizes()
	if c.dfaCells > dfaCellBudget || dfas != 3 {
		t.Errorf("%d DFAs of %d cells in all; want 3 within %d", dfas, c.dfaCells, dfaCellBudget)
	}
	for _, i := range []int{1, labels - 1} { // a model with a DFA, and one without
		bad := budgetDoc(labels, refs)
		m := bad.Children[i]
		m.Children = m.Children[:refs-1]
		if err := rw.CheckDocument(bad, Safe); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("m%d", i)) {
			t.Errorf("m%d missing its last child: %v", i, err)
		}
	}
}

// totalAlloc returns the bytes allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCompiledConcurrentReadOnly runs static checks and rewritings, eager
// and lazy, sequential and parallel, in every mode, concurrently over one
// fresh Compiled, so the first uses of its models race to build their DFAs.
// Nothing may write what Compile froze, and a DFA may be written only
// under its model's sync.Once: under -race, any other write into an entry
// or a DFA during these reads is a reported data race.
func TestCompiledConcurrentReadOnly(t *testing.T) {
	sender := schema.MustParseText(frozenSender, nil)
	c := Compile(sender, frozenReceiverSchema(t, sender))
	stored := frozenReport(50)
	inv := stubInvoker{"Get_Temp": ret(doc.Elem("temp", doc.TextNode("15")))}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				rw := NewRewriterForConfig(c, RewriterConfig{Invoker: inv, Engine: EngineKind(g % 2), Parallelism: 1 + g/2})
				mode := []Mode{Safe, Possible, Mixed}[i%3]
				if err := rw.CheckDocument(stored, mode); err != nil {
					t.Errorf("check, mode %s: %v", mode, err)
					return
				}
				if _, err := rw.RewriteDocument(context.Background(), stored.SpineCopy(), mode); err != nil {
					t.Errorf("rewrite, mode %s: %v", mode, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
