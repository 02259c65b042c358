// Package workload generates synthetic intensional-XML workloads: random
// schemas, random conforming documents with controlled function density, and
// simulated Web services whose replies are random output instances of their
// declared signatures. It stands in for the real services of the paper's
// setting (weather forecasts, TimeOut listings, UDDI registries) — the
// algorithms only ever observe signatures and returned trees, so simulated
// endpoints exercise exactly the same code paths.
package workload

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/schema"
)

// Options parameterize RandomSchema.
type Options struct {
	// Labels is the number of structured element types (plus as many atomic
	// data types). Default 4.
	Labels int
	// Funcs is the number of declared functions. Default 2.
	Funcs int
	// AltFanout controls choice width inside content models. Default 2.
	AltFanout int
	// StarProb is the probability a content-model position is starred.
	StarProb float64
	// FuncProb is the probability a content-model slot admits a function
	// alternative (f|materialized) instead of only materialized content.
	FuncProb float64
}

func (o Options) withDefaults() Options {
	if o.Labels <= 0 {
		o.Labels = 4
	}
	if o.Funcs < 0 {
		o.Funcs = 0
	}
	if o.AltFanout <= 0 {
		o.AltFanout = 2
	}
	if o.StarProb == 0 {
		o.StarProb = 0.3
	}
	if o.FuncProb == 0 {
		o.FuncProb = 0.4
	}
	return o
}

// RandomSchema builds a random schema whose content models form a DAG over
// the element types (label i references only labels with larger indices, so
// random instances always terminate) and are one-unambiguous by construction
// (every symbol occurs at most once per content model). Functions return
// forests of deeper labels, possibly including deeper functions.
//
// The generated names are e0..eN (structured), d0..dN (data), f0..fM
// (functions). The root label is e0.
func RandomSchema(rng *rand.Rand, opt Options) *schema.Schema {
	opt = opt.withDefaults()
	s := schema.New()
	s.Root = "e0"

	// Declare data elements first so content models can reference them.
	for i := 0; i < opt.Labels; i++ {
		mustDo(s.SetData(fmt.Sprintf("d%d", i)))
	}
	// Function j may mention labels and functions strictly deeper than the
	// level it is attached at; to keep things simple, function outputs
	// reference only data labels and deeper functions.
	for j := opt.Funcs - 1; j >= 0; j-- {
		out := randomFuncOutput(rng, opt, j)
		in := fmt.Sprintf("d%d", rng.Intn(opt.Labels))
		mustDo(s.SetFunc(fmt.Sprintf("f%d", j), in, out))
	}
	for i := opt.Labels - 1; i >= 0; i-- {
		content := randomContent(rng, opt, i)
		mustDo(s.SetLabel(fmt.Sprintf("e%d", i), content))
	}
	return s
}

func mustDo(err error) {
	if err != nil {
		panic(err)
	}
}

// randomContent builds the content model of structured label i: a sequence
// of slots, each either a deeper element, a data element, or a choice
// (function | materialized form), possibly starred. Each symbol is used at
// most once, keeping the model one-unambiguous.
func randomContent(rng *rand.Rand, opt Options, i int) string {
	slots := 1 + rng.Intn(3)
	out := ""
	used := map[string]bool{} // each symbol at most once: one-unambiguous by construction
	for s := 0; s < slots; s++ {
		var part string
		found := false
		for try := 0; try < 8; try++ {
			if i+1 < opt.Labels && rng.Float64() < 0.5 {
				part = fmt.Sprintf("e%d", i+1+rng.Intn(opt.Labels-i-1))
			} else {
				part = fmt.Sprintf("d%d", rng.Intn(opt.Labels))
			}
			if !used[part] {
				found = true
				break
			}
		}
		if !found {
			continue
		}
		used[part] = true
		if rng.Float64() < opt.StarProb {
			part += "*"
		}
		if opt.Funcs > 0 && rng.Float64() < opt.FuncProb {
			j := rng.Intn(opt.Funcs)
			fsym := fmt.Sprintf("f%d", j)
			if !used[fsym] {
				used[fsym] = true
				part = fmt.Sprintf("(%s|%s)", fsym, part)
			}
		}
		if out != "" {
			out += "."
		}
		out += part
	}
	if out == "" {
		out = fmt.Sprintf("d%d", rng.Intn(opt.Labels))
	}
	return out
}

// randomFuncOutput builds τ_out(f_j) over data labels and strictly deeper
// functions.
func randomFuncOutput(rng *rand.Rand, opt Options, j int) string {
	base := fmt.Sprintf("d%d", rng.Intn(opt.Labels))
	if rng.Float64() < opt.StarProb {
		base += "*"
	}
	if j+1 < opt.Funcs && rng.Float64() < opt.FuncProb {
		base = fmt.Sprintf("%s.f%d?", base, j+1+rng.Intn(opt.Funcs-j-1))
	}
	return base
}

// Generator builds random instances of a schema.
type Generator struct {
	Schema *schema.Schema
	Rng    *rand.Rand
	// MaxDepth caps element nesting; beyond it generation prefers shortest
	// words and fails over to empty data elements.
	MaxDepth int
	sampler  *regex.Sampler
}

// NewGenerator returns a generator with depth cap 16.
func NewGenerator(s *schema.Schema, rng *rand.Rand) *Generator {
	g := &Generator{Schema: s, Rng: rng, MaxDepth: 16}
	g.sampler = regex.NewSampler(rng)
	g.sampler.Fresh = func(c regex.Class) regex.Symbol {
		for i := 0; ; i++ {
			sym := s.Table.Intern(fmt.Sprintf("wild%d", i))
			if c.Contains(sym) {
				return sym
			}
		}
	}
	return g
}

// Instance builds a random instance of the given element label.
func (g *Generator) Instance(label string) (*doc.Node, error) {
	return g.element(label, g.MaxDepth)
}

// Root builds a random instance of the schema's root label.
func (g *Generator) Root() (*doc.Node, error) {
	if g.Schema.Root == "" {
		return nil, fmt.Errorf("workload: schema has no root label")
	}
	return g.Instance(g.Schema.Root)
}

func (g *Generator) element(label string, depth int) (*doc.Node, error) {
	def := g.Schema.Labels[label]
	if def == nil {
		// Wildcard-admitted foreign element: a small opaque subtree.
		return doc.Elem(label, doc.TextNode(g.text())), nil
	}
	if def.IsData() {
		return doc.Elem(label, doc.TextNode(g.text())), nil
	}
	if depth <= 0 {
		// Prefer the shortest completion to force termination.
		word, ok := regex.ShortestWord(def.Content)
		if !ok {
			return nil, fmt.Errorf("workload: label %q has empty content language", label)
		}
		return g.fill(label, word, depth)
	}
	word, ok := g.sampler.Sample(def.Content)
	if !ok {
		return nil, fmt.Errorf("workload: label %q has empty content language", label)
	}
	return g.fill(label, word, depth)
}

func (g *Generator) fill(label string, word []regex.Symbol, depth int) (*doc.Node, error) {
	children, err := g.forest(word, depth-1)
	if err != nil {
		return nil, err
	}
	return doc.Elem(label, children...), nil
}

// forest builds one node per symbol of the word.
func (g *Generator) forest(word []regex.Symbol, depth int) ([]*doc.Node, error) {
	out := make([]*doc.Node, 0, len(word))
	for _, sym := range word {
		name := g.Schema.Table.Name(sym)
		switch g.Schema.Kind(name) {
		case schema.KindFunc:
			n, err := g.funcNode(name, depth)
			if err != nil {
				return nil, err
			}
			out = append(out, n)
		case schema.KindPattern:
			// Generate a concrete function matching the pattern when one is
			// declared; otherwise skip the occurrence is not possible —
			// patterns in content models always sit beside alternatives in
			// generated schemas, but hand-written ones may not, so fall back
			// to a synthetic function name.
			n, err := g.patternNode(name, depth)
			if err != nil {
				return nil, err
			}
			out = append(out, n)
		default:
			n, err := g.element(name, depth)
			if err != nil {
				return nil, err
			}
			out = append(out, n)
		}
	}
	return out, nil
}

func (g *Generator) funcNode(name string, depth int) (*doc.Node, error) {
	def := g.Schema.Funcs[name]
	if def.In == nil {
		return doc.Call(name, doc.TextNode(g.text())), nil
	}
	var word []regex.Symbol
	var ok bool
	if depth <= 0 {
		word, ok = regex.ShortestWord(def.In)
	} else {
		word, ok = g.sampler.Sample(def.In)
	}
	if !ok {
		return nil, fmt.Errorf("workload: function %q has empty input language", name)
	}
	params, err := g.forest(word, depth-1)
	if err != nil {
		return nil, err
	}
	return doc.Call(name, params...), nil
}

func (g *Generator) patternNode(pname string, depth int) (*doc.Node, error) {
	p := g.Schema.Patterns[pname]
	for _, fname := range g.Schema.SortedFuncs() {
		if schema.FuncMatchesPattern(g.Schema.Funcs[fname], p) {
			return g.funcNode(fname, depth)
		}
	}
	return nil, fmt.Errorf("workload: no declared function matches pattern %q", pname)
}

func (g *Generator) text() string {
	return fmt.Sprintf("v%d", g.Rng.Intn(1000))
}

// SimInvoker simulates Web services: every call returns a fresh random
// output instance of the function's declared output type. With a fixed seed
// the simulation is reproducible; because output words are sampled from the
// full signature language, repeated runs exercise the adversarial spread the
// safe-rewriting analysis quantifies over.
//
// Invoke is safe for concurrent use (peers serve SOAP requests — and the
// parallel materialization engine issues batches — concurrently); the shared
// generator is held under a mutex, so results are deterministic for a fixed
// seed only when invocation order is.
type SimInvoker struct {
	mu  sync.Mutex
	Gen *Generator
	// Calls counts invocations (also visible through core.Audit). Invoke
	// updates it under mu, so read it only once no call is in flight.
	Calls int
}

// NewSimInvoker builds a simulated service endpoint for the schema.
func NewSimInvoker(s *schema.Schema, rng *rand.Rand) *SimInvoker {
	return &SimInvoker{Gen: NewGenerator(s, rng)}
}

// Invoke implements core.Invoker. The simulation is synchronous and local,
// so the context is only consulted for cancellation between calls.
func (si *SimInvoker) Invoke(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	si.mu.Lock()
	defer si.mu.Unlock()
	si.Calls++
	def := si.Gen.Schema.Funcs[call.Label]
	if def == nil {
		return nil, fmt.Errorf("workload: no simulated service for %q", call.Label)
	}
	if def.Out == nil {
		return []*doc.Node{doc.TextNode(si.Gen.text())}, nil
	}
	word, ok := si.Gen.sampler.Sample(def.Out)
	if !ok {
		return nil, fmt.Errorf("workload: function %q has empty output language", call.Label)
	}
	return si.Gen.forest(word, si.Gen.MaxDepth)
}
