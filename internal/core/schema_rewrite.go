package core

import (
	"fmt"
	"sort"

	"axml/internal/regex"
)

// Schema-level rewriting (Section 6 of the paper): can *every* document
// generated by the sender schema s0 (with root label r) be safely rewritten
// into the exchange schema s? Rather than testing the infinitely many
// instances, it suffices to test one representative per element type of s0:
// a virtual function whose output type is the element's content model —
// safe rewriting already quantifies adversarially over all output instances,
// i.e. over all words of the content model.

// LabelVerdict reports the outcome for one element type of the sender
// schema.
type LabelVerdict struct {
	Label  string
	Safe   bool
	Reason string
}

// SchemaRewriteReport is the outcome of a schema-to-schema compatibility
// check.
type SchemaRewriteReport struct {
	// Root is the distinguished root label checked.
	Root string
	// Verdicts lists every element type reachable from the root in the
	// sender schema, in name order.
	Verdicts []LabelVerdict
}

// Safe reports whether every reachable element type passed.
func (r *SchemaRewriteReport) Safe() bool {
	for _, v := range r.Verdicts {
		if !v.Safe {
			return false
		}
	}
	return true
}

// Failures returns the failing verdicts.
func (r *SchemaRewriteReport) Failures() []LabelVerdict {
	var out []LabelVerdict
	for _, v := range r.Verdicts {
		if !v.Safe {
			out = append(out, v)
		}
	}
	return out
}

// SchemaSafeRewrite checks Definition 6: the sender schema safely rewrites
// into the target schema for all instances rooted at root (defaults to the
// sender schema's declared root). k bounds the per-document rewriting depth.
func SchemaSafeRewrite(c *Compiled, root string, k int) (*SchemaRewriteReport, error) {
	if root == "" {
		root = c.Sender.Root
	}
	if root == "" {
		return nil, fmt.Errorf("core: schema rewriting needs a root label")
	}
	if c.Sender.Labels[root] == nil {
		return nil, fmt.Errorf("core: root label %q is not declared by the sender schema", root)
	}
	report := &SchemaRewriteReport{Root: root}
	for _, label := range reachableLabels(c, root) {
		verdict := checkLabel(c, label, k)
		report.Verdicts = append(report.Verdicts, verdict)
	}
	sort.Slice(report.Verdicts, func(i, j int) bool {
		return report.Verdicts[i].Label < report.Verdicts[j].Label
	})
	return report, nil
}

// reachableLabels returns the sender-schema element labels reachable from
// root: through content models, and through the input types of every
// function mentioned (kept functions carry their parameters into the
// exchanged document, so those element types must rewrite too).
func reachableLabels(c *Compiled, root string) []string {
	seen := map[string]bool{}
	var queue []string
	push := func(name string) {
		if c.Sender.Labels[name] != nil && !seen[name] {
			seen[name] = true
			queue = append(queue, name)
		}
	}
	pushRegex := func(r *regex.Regex) {
		if r == nil {
			return
		}
		for _, sym := range r.Alphabet(nil) {
			name := c.Table.Name(sym)
			push(name)
			if fi := c.Func(sym); fi != nil {
				// Defer: handled when popped? Functions are not labels;
				// traverse their signatures immediately.
				for _, t := range []*regex.Regex{fi.In, fi.Out} {
					if t != nil {
						for _, s2 := range t.Alphabet(nil) {
							push(c.Table.Name(s2))
						}
					}
				}
			}
		}
	}
	push(root)
	var out []string
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		out = append(out, name)
		pushRegex(c.Sender.Labels[name].Content)
	}
	return out
}

// checkLabel tests one element type: every children word of the sender
// content model must safely rewrite into the target content model.
func checkLabel(c *Compiled, label string, k int) LabelVerdict {
	sDef := c.Sender.Labels[label]
	tDef := c.Target.Labels[label]
	switch {
	case tDef == nil:
		// Lenient like validation: undeclared in the target means
		// unconstrained content.
		return LabelVerdict{Label: label, Safe: true, Reason: "not declared by target (unconstrained)"}
	case sDef.IsData() && tDef.IsData():
		return LabelVerdict{Label: label, Safe: true}
	case sDef.IsData() != tDef.IsData():
		return LabelVerdict{Label: label, Safe: false,
			Reason: "data/structured mismatch between sender and target"}
	}
	safe, err := AllWordsSafe(c, sDef.Content, c.ExpandPatterns(tDef.Content), k)
	if err != nil {
		return LabelVerdict{Label: label, Safe: false, Reason: err.Error()}
	}
	if !safe {
		return LabelVerdict{Label: label, Safe: false,
			Reason: fmt.Sprintf("some children word of %s cannot safely rewrite into %s",
				sDef.Content.String(c.Table), tDef.Content.String(c.Table))}
	}
	return LabelVerdict{Label: label, Safe: true}
}

// AllWordsSafe decides whether *every* word of lang(src) safely rewrites
// into target within depth k, via the paper's reduction: a single MustCall
// virtual token whose output type is src, analyzed with depth k+1 (the extra
// level pays for the virtual call itself).
func AllWordsSafe(c *Compiled, src, target *regex.Regex, k int) (bool, error) {
	virtual := c.virtualFunc(src)
	tokens := []Token{{Sym: virtual, MustCall: true}}
	a, err := AnalyzeSafe(c, tokens, target, k+1)
	if err != nil {
		return false, err
	}
	return a.Safe(), nil
}

// virtualFunc interns a synthetic function symbol with the given output
// type, reusing one symbol per distinct type.
func (c *Compiled) virtualFunc(out *regex.Regex) regex.Symbol {
	name := "\x00virtual|" + out.Key()
	sym := c.Table.Intern(name)
	if _, ok := c.funcs[sym]; !ok {
		c.funcs[sym] = &FuncInfo{Sym: sym, Out: out, Invocable: true}
	}
	return sym
}
