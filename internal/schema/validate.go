package schema

import (
	"fmt"
	"strings"

	"axml/internal/doc"
	"axml/internal/regex"
)

// Context bundles everything needed to check documents against a schema:
// the target schema itself and the schema supplying function signatures
// (normally the sender's schema s0, holding the WSDL descriptions of every
// function appearing in documents). Both must intern into the same symbol
// table.
type Context struct {
	Target *Schema
	// Sigs supplies signatures for functions the target schema does not
	// declare (pattern matching needs them). Defaults to Target.
	Sigs *Schema
	// Strict makes validation fail on subtrees whose labels are mentioned
	// in content models but never declared; when false (the default) such
	// subtrees are accepted unconstrained, mirroring the leniency real
	// validators apply to foreign content.
	Strict bool
}

// NewContext builds a validation context. sigs may be nil, defaulting to
// target. It panics if the two schemas do not share a symbol namespace —
// either the same table or one extending the other via an overlay — because
// every downstream automaton construction would silently confuse symbols.
func NewContext(target, sigs *Schema) *Context {
	if sigs == nil {
		sigs = target
	}
	if !target.Table.Extends(sigs.Table) && !sigs.Table.Extends(target.Table) {
		panic("schema: target and signature schemas must share one symbol table")
	}
	return &Context{Target: target, Sigs: sigs}
}

// LookupFunc resolves a function declaration, target schema first.
func (c *Context) LookupFunc(name string) *FuncDef {
	if d := c.Target.Funcs[name]; d != nil {
		return d
	}
	return c.Sigs.Funcs[name]
}

// AdmissibleSyms returns the schema symbols a document child can be read as
// when matching a content model: its own name, plus — for function nodes —
// every declared pattern that admits it (predicate passes and signatures
// agree).
func (c *Context) AdmissibleSyms(n *doc.Node) []regex.Symbol {
	return c.appendAdmissible(nil, n)
}

// appendAdmissible appends n's admissible symbols (AdmissibleSyms) to out.
func (c *Context) appendAdmissible(out []regex.Symbol, n *doc.Node) []regex.Symbol {
	out = append(out, c.Target.Table.Intern(n.Label))
	if n.Kind != doc.Func {
		return out
	}
	def := c.LookupFunc(n.Label)
	if def == nil {
		return out
	}
	for _, pname := range c.Target.SortedPatterns() {
		if FuncMatchesPattern(def, c.Target.Patterns[pname]) {
			out = append(out, c.Target.Table.Intern(pname))
		}
	}
	return out
}

// matchLetters runs the Glushkov automaton of r over a word whose letters
// are *sets* of admissible symbols: an edge fires when its class contains
// any admissible symbol of the letter.
func matchLetters(r *regex.Regex, letters [][]regex.Symbol) bool {
	info := regex.Positions(r)
	contains := func(cls regex.Class, letter []regex.Symbol) bool {
		for _, s := range letter {
			if cls.Contains(s) {
				return true
			}
		}
		return false
	}
	if len(letters) == 0 {
		return info.Nullable
	}
	// Dense position sets: positions are small ints (1..len(Classes)), so two
	// reused bool slices beat a fresh map per letter.
	cur := make([]bool, len(info.Classes)+1)
	next := make([]bool, len(info.Classes)+1)
	alive := false
	for _, p := range info.First {
		if contains(info.Classes[p-1], letters[0]) {
			cur[p] = true
			alive = true
		}
	}
	if !alive {
		return false
	}
	for _, letter := range letters[1:] {
		clear(next)
		alive = false
		for p := 1; p < len(cur); p++ {
			if !cur[p] {
				continue
			}
			for _, q := range info.Follow[p-1] {
				if contains(info.Classes[q-1], letter) {
					next[q] = true
					alive = true
				}
			}
		}
		cur, next = next, cur
		if !alive {
			return false
		}
	}
	for _, p := range info.Last {
		if cur[p] {
			return true
		}
	}
	return false
}

// MatchWord reports whether the (non-text) children of a node, resolved
// through patterns, form a word of the content model r. Every letter is a
// sub-slice of one backing slice of symbols: an element contributes its own
// symbol, a function its admissible set.
func (c *Context) MatchWord(r *regex.Regex, children []*doc.Node) bool {
	syms := make([]regex.Symbol, 0, len(children))
	ends := make([]int, 0, len(children))
	for _, ch := range children {
		if ch.Kind == doc.Text {
			continue
		}
		syms = c.appendAdmissible(syms, ch)
		ends = append(ends, len(syms))
	}
	// The letters are cut once the backing slice has stopped growing.
	letters := make([][]regex.Symbol, len(ends))
	start := 0
	for i, end := range ends {
		letters[i] = syms[start:end:end]
		start = end
	}
	return matchLetters(r, letters)
}

// ValidationError reports the first schema violation found, with the path of
// the offending node.
type ValidationError struct {
	Path string
	Msg  string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("schema: %s: %s", e.Path, e.Msg)
}

func errAt(path []string, format string, args ...any) error {
	return &ValidationError{Path: "/" + strings.Join(path, "/"), Msg: fmt.Sprintf(format, args...)}
}

// Validate checks that n is an instance of the target schema (Definition 3):
// every element's children form a word of its content model, every function
// node's parameters form a word of its input type, and data elements hold
// only text.
func (c *Context) Validate(n *doc.Node) error {
	return c.validate(n, []string{n.Label})
}

func (c *Context) validate(n *doc.Node, path []string) error {
	switch n.Kind {
	case doc.Text:
		return nil
	case doc.Element:
		def := c.Target.Labels[n.Label]
		if def == nil {
			if c.Strict {
				return errAt(path, "element %q is not declared", n.Label)
			}
			return nil // lenient: foreign content is unconstrained
		}
		if def.IsData() {
			for _, ch := range n.Children {
				if ch.Kind != doc.Text {
					return errAt(path, "data element contains non-text child %q", ch.Label)
				}
			}
			return nil
		}
		if err := c.checkContentAndText(n, def.Content, path); err != nil {
			return err
		}
		return c.validateChildren(n, path)
	case doc.Func:
		def := c.LookupFunc(n.Label)
		if def == nil {
			if c.Strict {
				return errAt(path, "function %q is not declared", n.Label)
			}
			return nil
		}
		if def.In == nil {
			for _, ch := range n.Children {
				if ch.Kind != doc.Text {
					return errAt(path, "function %q takes atomic data but was given %q", n.Label, ch.Label)
				}
			}
			return nil
		}
		if !c.MatchWord(def.In, n.Children) {
			return errAt(path, "parameters of %q do not match input type %s",
				n.Label, def.In.String(c.Target.Table))
		}
		return c.validateChildren(n, path)
	}
	return errAt(path, "unknown node kind %d", n.Kind)
}

func (c *Context) checkContentAndText(n *doc.Node, content *regex.Regex, path []string) error {
	for _, ch := range n.Children {
		if ch.Kind == doc.Text && strings.TrimSpace(ch.Value) != "" {
			return errAt(path, "element has structured content model but contains text %q", ch.Value)
		}
	}
	if !c.MatchWord(content, n.Children) {
		return errAt(path, "children %v do not match content model %s",
			childLabels(n), content.String(c.Target.Table))
	}
	return nil
}

func (c *Context) validateChildren(n *doc.Node, path []string) error {
	for i, ch := range n.Children {
		if ch.Kind == doc.Text {
			continue
		}
		if err := c.validate(ch, append(path, fmt.Sprintf("%s[%d]", ch.Label, i))); err != nil {
			return err
		}
	}
	return nil
}

func childLabels(n *doc.Node) []string { return n.ChildLabels() }

// IsInputInstance checks that params is an input instance of function f
// (Definition 3): the root labels form a word of τ_in(f) and every tree is
// an instance of the schema.
func (c *Context) IsInputInstance(f string, params []*doc.Node) error {
	def := c.LookupFunc(f)
	if def == nil {
		return fmt.Errorf("schema: function %q is not declared", f)
	}
	return c.isForestInstance(def.In, params, fmt.Sprintf("input of %s", f))
}

// IsOutputInstance checks that result is an output instance of function f.
func (c *Context) IsOutputInstance(f string, result []*doc.Node) error {
	def := c.LookupFunc(f)
	if def == nil {
		return fmt.Errorf("schema: function %q is not declared", f)
	}
	return c.isForestInstance(def.Out, result, fmt.Sprintf("output of %s", f))
}

func (c *Context) isForestInstance(typ *regex.Regex, forest []*doc.Node, what string) error {
	if typ == nil {
		for _, n := range forest {
			if n.Kind != doc.Text {
				return fmt.Errorf("schema: %s must be atomic data, got %q", what, n.Label)
			}
		}
		return nil
	}
	if !c.MatchWord(typ, forest) {
		return fmt.Errorf("schema: %s %v does not match type %s",
			what, forestLabels(forest), typ.String(c.Target.Table))
	}
	for _, n := range forest {
		if n.Kind == doc.Text {
			continue
		}
		if err := c.validate(n, []string{n.Label}); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
	}
	return nil
}

func forestLabels(forest []*doc.Node) []string {
	out := make([]string, 0, len(forest))
	for _, n := range forest {
		if n.Kind != doc.Text {
			out = append(out, n.Label)
		}
	}
	return out
}

// WordOf converts the non-text children of n into the symbol word the core
// algorithms rewrite, interning labels as needed.
func (c *Context) WordOf(n *doc.Node) []regex.Symbol {
	out := make([]regex.Symbol, 0, len(n.Children))
	for _, ch := range n.Children {
		if ch.Kind == doc.Text {
			continue
		}
		out = append(out, c.Target.Table.Intern(ch.Label))
	}
	return out
}
