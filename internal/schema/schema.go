// Package schema implements document schemas for intensional XML
// (Definition 2 of Milo et al. plus the Section 2.1 extensions): each element
// label maps to a content model — a regular expression over element *and*
// function names — or to atomic data; each function name carries an
// input/output signature; function patterns admit whole families of
// functions by predicate + signature; and functions are partitioned into
// invocable and non-invocable ones, with cost and side-effect metadata
// driving the rewriting strategies.
package schema

import (
	"fmt"
	"sort"
	"sync/atomic"

	"axml/internal/automata"
	"axml/internal/regex"
)

// SymKind classifies what a name means inside a schema.
type SymKind uint8

const (
	// KindUnknown marks names the schema does not declare.
	KindUnknown SymKind = iota
	// KindLabel is an element name.
	KindLabel
	// KindFunc is a declared function name.
	KindFunc
	// KindPattern is a function-pattern name.
	KindPattern
)

func (k SymKind) String() string {
	switch k {
	case KindLabel:
		return "element"
	case KindFunc:
		return "function"
	case KindPattern:
		return "function pattern"
	default:
		return "unknown"
	}
}

// LabelDef is τ(l) for one element label: either a content model over
// element/function/pattern names, or atomic data (Content == nil).
type LabelDef struct {
	Name    string
	Content *regex.Regex // nil means the "data" keyword: atomic text content
}

// IsData reports whether the element holds atomic data.
func (d *LabelDef) IsData() bool { return d.Content == nil }

// FuncDef declares a function (Web service operation): its signature and the
// exchange-policy metadata of Section 2.1.
type FuncDef struct {
	Name string
	// In is τ_in(f); nil means the "data" keyword (one atomic value).
	In *regex.Regex
	// Out is τ_out(f); nil means the function returns one atomic value.
	Out *regex.Regex
	// Invocable is the §2.1 restriction: only invocable functions may be
	// called by a legal rewriting.
	Invocable bool
	// Cost weighs this call in minimal-cost plan extraction (step 23 of
	// Figure 3). Zero-cost calls are still calls; plan extraction breaks
	// ties by call count.
	Cost float64
	// SideEffects marks calls that the mixed strategy must not pre-invoke
	// speculatively.
	SideEffects bool
	// Endpoint optionally pins the service location (SOAP transport).
	Endpoint  string
	Namespace string
}

// Predicate decides whether a concrete function belongs to a pattern, given
// its name and (declared) signature. The paper implements predicates as Web
// services (UDDI registration checks, ACL checks); here they are Go
// functions, and internal/service provides registry-backed ones.
type Predicate func(name string, in, out *regex.Regex) bool

// PatternDef declares a function pattern (§2.1): a predicate over function
// names plus a required signature.
type PatternDef struct {
	Name string
	In   *regex.Regex
	Out  *regex.Regex
	// Pred may be nil, in which case every function with the right
	// signature matches (the paper's convention when the predicate service
	// attributes are omitted).
	Pred Predicate
	// Invocable extends the §2.1 restriction to pattern-matched calls.
	Invocable bool
}

// Schema is a document schema s = (L, F, P, τ). All content models and
// signatures are interned in one shared symbol Table so that schemas can be
// combined (sender schema s0 and exchange schema s) inside one automaton
// construction.
type Schema struct {
	Table    *regex.Table
	Labels   map[string]*LabelDef
	Funcs    map[string]*FuncDef
	Patterns map[string]*PatternDef
	// Root is the distinguished root label for schema-level rewriting
	// (Definition 6); may be empty.
	Root string

	// version counts the declarations made through the Set methods; see
	// Version.
	version atomic.Uint64
}

// Version counts the declarations made through the Set methods so far. A
// cache that identifies a schema by its pointer pairs it with Version, so
// that a declaration added later (Peer.DefineQueryService calls SetFunc on
// a live schema) is seen without fingerprinting the schema again. Writes
// made straight to the maps or to Root are not counted.
func (s *Schema) Version() uint64 { return s.version.Load() }

// New returns an empty schema with a fresh symbol table.
func New() *Schema { return NewShared(regex.NewTable()) }

// NewShared returns an empty schema interning into an existing table; use it
// when several schemas must be analyzed together.
func NewShared(t *regex.Table) *Schema {
	return &Schema{
		Table:    t,
		Labels:   make(map[string]*LabelDef),
		Funcs:    make(map[string]*FuncDef),
		Patterns: make(map[string]*PatternDef),
	}
}

// Kind classifies a name.
func (s *Schema) Kind(name string) SymKind {
	switch {
	case s.Labels[name] != nil:
		return KindLabel
	case s.Funcs[name] != nil:
		return KindFunc
	case s.Patterns[name] != nil:
		return KindPattern
	default:
		return KindUnknown
	}
}

func (s *Schema) checkFresh(name string, allow SymKind) error {
	k := s.Kind(name)
	if k == KindUnknown || k == allow {
		return nil
	}
	return fmt.Errorf("schema: %q already declared as %s", name, k)
}

// SetLabel declares an element with the given content model source text.
func (s *Schema) SetLabel(name, content string) error {
	if err := s.checkFresh(name, KindLabel); err != nil {
		return err
	}
	r, err := s.parseContent(content)
	if err != nil {
		return fmt.Errorf("schema: element %q: %w", name, err)
	}
	s.Table.Intern(name)
	s.Labels[name] = &LabelDef{Name: name, Content: r}
	s.version.Add(1)
	return nil
}

// SetData declares an element with atomic data content.
func (s *Schema) SetData(name string) error {
	if err := s.checkFresh(name, KindLabel); err != nil {
		return err
	}
	s.Table.Intern(name)
	s.Labels[name] = &LabelDef{Name: name}
	s.version.Add(1)
	return nil
}

// SetLabelRegex declares an element with an already-built content model
// (which must have been interned in s.Table).
func (s *Schema) SetLabelRegex(name string, content *regex.Regex) error {
	if err := s.checkFresh(name, KindLabel); err != nil {
		return err
	}
	s.Table.Intern(name)
	s.Labels[name] = &LabelDef{Name: name, Content: content}
	s.version.Add(1)
	return nil
}

// SetFunc declares an invocable function with textual signature types; either
// side may be the keyword "data".
func (s *Schema) SetFunc(name, in, out string) error {
	return s.SetFuncDef(name, in, out, func(*FuncDef) {})
}

// SetFuncDef declares a function and lets adjust tweak the definition
// (invocability, cost, side effects, endpoint) before it is stored.
func (s *Schema) SetFuncDef(name, in, out string, adjust func(*FuncDef)) error {
	if err := s.checkFresh(name, KindFunc); err != nil {
		return err
	}
	rin, err := s.parseContent(in)
	if err != nil {
		return fmt.Errorf("schema: function %q input: %w", name, err)
	}
	rout, err := s.parseContent(out)
	if err != nil {
		return fmt.Errorf("schema: function %q output: %w", name, err)
	}
	def := &FuncDef{Name: name, In: rin, Out: rout, Invocable: true}
	if adjust != nil {
		adjust(def)
	}
	s.Table.Intern(name)
	s.Funcs[name] = def
	s.version.Add(1)
	return nil
}

// SetPattern declares a function pattern with textual signature types.
func (s *Schema) SetPattern(name, in, out string, pred Predicate) error {
	if err := s.checkFresh(name, KindPattern); err != nil {
		return err
	}
	rin, err := s.parseContent(in)
	if err != nil {
		return fmt.Errorf("schema: pattern %q input: %w", name, err)
	}
	rout, err := s.parseContent(out)
	if err != nil {
		return fmt.Errorf("schema: pattern %q output: %w", name, err)
	}
	s.Table.Intern(name)
	s.Patterns[name] = &PatternDef{Name: name, In: rin, Out: rout, Pred: pred, Invocable: true}
	s.version.Add(1)
	return nil
}

// parseContent parses a content-model source; the keyword "data" yields nil.
func (s *Schema) parseContent(src string) (*regex.Regex, error) {
	if src == "data" {
		return nil, nil
	}
	return regex.Parse(s.Table, src)
}

// Content returns τ(l) for an element label; ok is false for unknown labels.
func (s *Schema) Content(label string) (r *regex.Regex, isData, ok bool) {
	d := s.Labels[label]
	if d == nil {
		return nil, false, false
	}
	return d.Content, d.IsData(), true
}

// FuncSig returns the declared signature of a function; nil regexes stand
// for atomic data.
func (s *Schema) FuncSig(name string) (in, out *regex.Regex, ok bool) {
	d := s.Funcs[name]
	if d == nil {
		return nil, nil, false
	}
	return d.In, d.Out, true
}

// SortedLabels returns the declared labels in name order (stable iteration
// for deterministic output and tests).
func (s *Schema) SortedLabels() []string {
	out := make([]string, 0, len(s.Labels))
	for name := range s.Labels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SortedFuncs returns the declared function names in name order.
func (s *Schema) SortedFuncs() []string {
	out := make([]string, 0, len(s.Funcs))
	for name := range s.Funcs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SortedPatterns returns the declared pattern names in name order.
func (s *Schema) SortedPatterns() []string {
	out := make([]string, 0, len(s.Patterns))
	for name := range s.Patterns {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Alphabet returns the sorted set of symbols mentioned anywhere in the
// schema: declared names plus every symbol occurring in a content model or
// signature.
func (s *Schema) Alphabet() []regex.Symbol {
	var all []regex.Symbol
	add := func(r *regex.Regex) {
		if r != nil {
			all = r.Alphabet(all)
		}
	}
	for name, d := range s.Labels {
		if sym, ok := s.Table.Lookup(name); ok {
			all = append(all, sym)
		}
		add(d.Content)
	}
	for name, d := range s.Funcs {
		if sym, ok := s.Table.Lookup(name); ok {
			all = append(all, sym)
		}
		add(d.In)
		add(d.Out)
	}
	for name, d := range s.Patterns {
		if sym, ok := s.Table.Lookup(name); ok {
			all = append(all, sym)
		}
		add(d.In)
		add(d.Out)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out := all[:0]
	for i, x := range all {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// CheckDeterministic verifies that every content model and signature is
// one-unambiguous, as XML Schema_int requires; it returns the first
// violation found (labels first, in name order).
func (s *Schema) CheckDeterministic() error {
	for _, name := range s.SortedLabels() {
		if c := s.Labels[name].Content; c != nil && !regex.Deterministic(c) {
			return fmt.Errorf("schema: element %q has a non-deterministic content model", name)
		}
	}
	for _, name := range s.SortedFuncs() {
		d := s.Funcs[name]
		if d.In != nil && !regex.Deterministic(d.In) {
			return fmt.Errorf("schema: function %q has a non-deterministic input type", name)
		}
		if d.Out != nil && !regex.Deterministic(d.Out) {
			return fmt.Errorf("schema: function %q has a non-deterministic output type", name)
		}
	}
	return nil
}

// sigEqual compares two signatures up to language equivalence (nil = data
// matches only nil).
func sigEqual(a, b *regex.Regex) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Equal(b) {
		return true
	}
	da := automata.Determinize(automata.FromRegex(a), a.Alphabet(nil))
	db := automata.Determinize(automata.FromRegex(b), b.Alphabet(nil))
	return automata.Equivalent(da, db)
}

// FuncMatchesPattern reports whether function def belongs to pattern p:
// the predicate accepts it and the signatures coincide (§2.1).
func FuncMatchesPattern(def *FuncDef, p *PatternDef) bool {
	if def == nil || p == nil {
		return false
	}
	if p.Pred != nil && !p.Pred(def.Name, def.In, def.Out) {
		return false
	}
	return sigEqual(def.In, p.In) && sigEqual(def.Out, p.Out)
}
