package schema

import (
	"fmt"
	"strconv"
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
// agree). Names are looked up, never interned: a name the table does not
// know reads as regex.NoSymbol, which only negated classes contain, so a
// document cannot grow the schema's table.
func (c *Context) AdmissibleSyms(n *doc.Node) []regex.Symbol {
	return c.appendAdmissible(nil, n)
}

// appendAdmissible appends n's admissible symbols (AdmissibleSyms) to out,
// patterns in no particular order.
func (c *Context) appendAdmissible(out []regex.Symbol, n *doc.Node) []regex.Symbol {
	out = append(out, c.lookup(n.Label))
	if n.Kind != doc.Func {
		return out
	}
	def := c.LookupFunc(n.Label)
	if def == nil {
		return out
	}
	for pname, pat := range c.Target.Patterns {
		if FuncMatchesPattern(def, pat) {
			out = append(out, c.lookup(pname))
		}
	}
	return out
}

// lookup returns the symbol of name in the target's table, or
// regex.NoSymbol when the table does not know it.
func (c *Context) lookup(name string) regex.Symbol {
	s, _ := c.Target.Table.Lookup(name)
	return s
}

// MatchWord reports whether the (non-text) children of a node, resolved
// through patterns, form a word of the content model r.
func (c *Context) MatchWord(r *regex.Regex, children []*doc.Node) bool {
	_, match := c.MatchPrefix(r, children)
	return match
}

// MatchPrefix reads children as MatchWord does and returns the index in
// children of the first child at which r stops matching (len(children)
// when no child does) and whether the children form a word of r. It runs
// the Glushkov automaton of r over the children, whose letters are *sets*
// of admissible symbols: an edge fires when its class contains any
// admissible symbol of the letter. Its position sets and letters live in
// fixed scratch on the stack, so a model of up to 63 positions whose
// function children match at most 7 patterns is matched without
// allocating.
func (c *Context) MatchPrefix(r *regex.Regex, children []*doc.Node) (stop int, match bool) {
	info := regex.Positions(r)
	// Dense position sets: positions are small ints (1..len(Classes)).
	var curBuf, nextBuf [64]bool
	cur, next := curBuf[:], nextBuf[:]
	if n := len(info.Classes) + 1; n <= len(curBuf) {
		cur, next = cur[:n], next[:n]
	} else {
		cur, next = make([]bool, n), make([]bool, n)
	}
	var letterBuf [8]regex.Symbol
	contains := func(cls regex.Class, letter []regex.Symbol) bool {
		for _, s := range letter {
			if cls.Contains(s) {
				return true
			}
		}
		return false
	}
	started := false
	for i, ch := range children {
		if ch.Kind == doc.Text {
			continue
		}
		letter := c.appendAdmissible(letterBuf[:0], ch)
		alive := false
		if !started {
			started = true
			for _, p := range info.First {
				if contains(info.Classes[p-1], letter) {
					cur[p], alive = true, true
				}
			}
		} else {
			clear(next)
			for p := 1; p < len(cur); p++ {
				if !cur[p] {
					continue
				}
				for _, q := range info.Follow[p-1] {
					if contains(info.Classes[q-1], letter) {
						next[q], alive = true, true
					}
				}
			}
			cur, next = next, cur
		}
		if !alive {
			return i, false
		}
	}
	if !started {
		return len(children), info.Nullable
	}
	for _, p := range info.Last {
		if cur[p] {
			return len(children), true
		}
	}
	return len(children), false
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

// errAt reports a violation at the node being checked. Its path starts
// out empty: each level of the check the error returns through prepends
// its own step (within), so a tree that passes costs no path at all.
func errAt(format string, args ...any) *ValidationError {
	return &ValidationError{Msg: fmt.Sprintf(format, args...)}
}

// within prepends the step to the node labelled label, the index-th child
// of its parent (index -1: the root of the check), to e's path.
func (e *ValidationError) within(label string, index int) *ValidationError {
	step := "/" + label
	if index >= 0 {
		step += "[" + strconv.Itoa(index) + "]"
	}
	e.Path = step + e.Path
	return e
}

// Validate checks that n is an instance of the target schema (Definition 3):
// every element's children form a word of its content model, every function
// node's parameters form a word of its input type, and data elements hold
// only text.
func (c *Context) Validate(n *doc.Node) error {
	if e := c.validate(n); e != nil {
		return e.within(n.Label, -1)
	}
	return nil
}

// validate checks the tree rooted at n; the error's path is relative to n.
func (c *Context) validate(n *doc.Node) *ValidationError {
	switch n.Kind {
	case doc.Text:
		return nil
	case doc.Element:
		def := c.Target.Labels[n.Label]
		if def == nil {
			if c.Strict {
				return errAt("element %q is not declared", n.Label)
			}
			return nil // lenient: foreign content is unconstrained
		}
		if def.IsData() {
			for _, ch := range n.Children {
				if ch.Kind != doc.Text {
					return errAt("data element contains non-text child %q", ch.Label)
				}
			}
			return nil
		}
		if e := c.checkContentAndText(n, def.Content); e != nil {
			return e
		}
		return c.validateChildren(n)
	case doc.Func:
		def := c.LookupFunc(n.Label)
		if def == nil {
			if c.Strict {
				return errAt("function %q is not declared", n.Label)
			}
			return nil
		}
		if def.In == nil {
			for _, ch := range n.Children {
				if ch.Kind != doc.Text {
					return errAt("function %q takes atomic data but was given %q", n.Label, ch.Label)
				}
			}
			return nil
		}
		if !c.MatchWord(def.In, n.Children) {
			return errAt("parameters of %q do not match input type %s",
				n.Label, def.In.String(c.Target.Table))
		}
		return c.validateChildren(n)
	}
	return errAt("unknown node kind %d", n.Kind)
}

func (c *Context) checkContentAndText(n *doc.Node, content *regex.Regex) *ValidationError {
	for _, ch := range n.Children {
		if ch.Kind == doc.Text && strings.TrimSpace(ch.Value) != "" {
			return errAt("element has structured content model but contains text %q", ch.Value)
		}
	}
	if !c.MatchWord(content, n.Children) {
		return errAt("children %v do not match content model %s",
			childLabels(n), content.String(c.Target.Table))
	}
	return nil
}

func (c *Context) validateChildren(n *doc.Node) *ValidationError {
	for i, ch := range n.Children {
		if ch.Kind == doc.Text {
			continue
		}
		if e := c.validate(ch); e != nil {
			return e.within(ch.Label, i)
		}
	}
	return nil
}

func childLabels(n *doc.Node) []string { return n.ChildLabels() }

// IsInputInstance checks that params is an input instance of function f
// (Definition 3): the root labels form a word of τ_in(f) and every tree is
// an instance of the schema. A passing check allocates nothing.
func (c *Context) IsInputInstance(f string, params []*doc.Node) error {
	def := c.LookupFunc(f)
	if def == nil {
		return fmt.Errorf("schema: function %q is not declared", f)
	}
	return c.isForestInstance(def.In, params, "input", f)
}

// IsOutputInstance checks that result is an output instance of function f.
// A passing check allocates nothing.
func (c *Context) IsOutputInstance(f string, result []*doc.Node) error {
	def := c.LookupFunc(f)
	if def == nil {
		return fmt.Errorf("schema: function %q is not declared", f)
	}
	return c.isForestInstance(def.Out, result, "output", f)
}

// isForestInstance checks forest against typ; its errors name the forest
// as the side ("input" or "output") of function f.
func (c *Context) isForestInstance(typ *regex.Regex, forest []*doc.Node, side, f string) error {
	if typ == nil {
		for _, n := range forest {
			if n.Kind != doc.Text {
				return fmt.Errorf("schema: %s of %s must be atomic data, got %q", side, f, n.Label)
			}
		}
		return nil
	}
	if !c.MatchWord(typ, forest) {
		return fmt.Errorf("schema: %s of %s %v does not match type %s",
			side, f, forestLabels(forest), typ.String(c.Target.Table))
	}
	for _, n := range forest {
		if n.Kind == doc.Text {
			continue
		}
		if e := c.validate(n); e != nil {
			return fmt.Errorf("%s of %s: %w", side, f, e.within(n.Label, -1))
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
// algorithms rewrite, looking labels up as AdmissibleSyms does.
func (c *Context) WordOf(n *doc.Node) []regex.Symbol {
	out := make([]regex.Symbol, 0, len(n.Children))
	for _, ch := range n.Children {
		if ch.Kind == doc.Text {
			continue
		}
		out = append(out, c.lookup(ch.Label))
	}
	return out
}
