package xsdint

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"axml/internal/regex"
	"axml/internal/schema"
)

// Write renders the schema as an XML Schema_int document that Parse accepts
// back (predicates print as their names only when registered under the
// names supplied in predNames — an inverse mapping the caller maintains,
// since Go function values have no portable identity).
func Write(w io.Writer, s *schema.Schema, predNames map[string]string) error {
	pr := &xsdPrinter{s: s, predNames: predNames}
	var b strings.Builder
	pr.schema(&b)
	if pr.err != nil {
		return pr.err
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the schema as an XSD_int string.
func String(s *schema.Schema, predNames map[string]string) (string, error) {
	var b strings.Builder
	if err := Write(&b, s, predNames); err != nil {
		return "", err
	}
	return b.String(), nil
}

// quoteAttr renders s as a double-quoted XML attribute value. (Go's %q
// would apply Go escapes, which an XML parser does not undo.)
func quoteAttr(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	_ = xml.EscapeText(&b, []byte(s))
	b.WriteByte('"')
	return b.String()
}

type xsdPrinter struct {
	s         *schema.Schema
	predNames map[string]string
	err       error
}

func (p *xsdPrinter) schema(b *strings.Builder) {
	rootAttr := ""
	if p.s.Root != "" {
		rootAttr = " root=" + quoteAttr(p.s.Root)
	}
	fmt.Fprintf(b, "<schema xmlns=%q%s>\n", XSDNamespace, rootAttr)
	for _, name := range p.s.SortedLabels() {
		d := p.s.Labels[name]
		if d.IsData() {
			fmt.Fprintf(b, "  <element name=%s type=\"xs:string\"/>\n", quoteAttr(name))
			continue
		}
		fmt.Fprintf(b, "  <element name=%s>\n    <complexType>\n", quoteAttr(name))
		p.particle(b, d.Content, 6, false)
		fmt.Fprintf(b, "    </complexType>\n  </element>\n")
	}
	for _, name := range p.s.SortedFuncs() {
		d := p.s.Funcs[name]
		attrs := " id=" + quoteAttr(name) + " methodName=" + quoteAttr(name)
		if d.Endpoint != "" {
			attrs += " endpointURL=" + quoteAttr(d.Endpoint)
		}
		if d.Namespace != "" {
			attrs += " namespaceURI=" + quoteAttr(d.Namespace)
		}
		if !d.Invocable {
			attrs += ` invocable="false"`
		}
		if d.SideEffects {
			attrs += ` sideEffects="true"`
		}
		if d.Cost != 0 {
			attrs += fmt.Sprintf(" cost=%q", fmt.Sprintf("%g", d.Cost))
		}
		fmt.Fprintf(b, "  <function%s>\n", attrs)
		p.signature(b, d.In, d.Out)
		fmt.Fprintf(b, "  </function>\n")
	}
	for _, name := range p.s.SortedPatterns() {
		d := p.s.Patterns[name]
		attrs := " id=" + quoteAttr(name)
		if pn := p.predNames[name]; pn != "" {
			attrs += " predicate=" + quoteAttr(pn)
		}
		if !d.Invocable {
			attrs += ` invocable="false"`
		}
		fmt.Fprintf(b, "  <functionPattern%s>\n", attrs)
		p.signature(b, d.In, d.Out)
		fmt.Fprintf(b, "  </functionPattern>\n")
	}
	b.WriteString("</schema>\n")
}

func (p *xsdPrinter) signature(b *strings.Builder, in, out *regex.Regex) {
	if in != nil {
		b.WriteString("    <params>\n      <param>\n")
		p.particle(b, in, 8, false)
		b.WriteString("      </param>\n    </params>\n")
	}
	if out != nil {
		b.WriteString("    <return>\n")
		p.particle(b, out, 6, false)
		b.WriteString("    </return>\n")
	}
}

// particle renders one regex as XSD particles. inChoice suppresses the
// implicit single-child unwrapping inside choices.
func (p *xsdPrinter) particle(b *strings.Builder, r *regex.Regex, indent int, inChoice bool) {
	pad := strings.Repeat(" ", indent)
	switch r.Op {
	case regex.OpEmpty:
		// ε renders as an empty sequence (only meaningful standalone).
		fmt.Fprintf(b, "%s<sequence/>\n", pad)
	case regex.OpNever:
		p.err = fmt.Errorf("xsdint: the empty language ∅ has no XSD_int rendering")
	case regex.OpSym:
		p.symParticle(b, r.Sym, pad, "")
	case regex.OpClass:
		p.classParticle(b, r.Cls, pad, "")
	case regex.OpStar:
		p.repeated(b, r.Subs[0], indent, ` minOccurs="0" maxOccurs="unbounded"`)
	case regex.OpConcat:
		fmt.Fprintf(b, "%s<sequence>\n", pad)
		for _, s := range r.Subs {
			p.particle(b, s, indent+2, false)
		}
		fmt.Fprintf(b, "%s</sequence>\n", pad)
	case regex.OpAlt:
		// (x|ε) sugar: optional particle.
		if len(r.Subs) == 2 {
			var other *regex.Regex
			if r.Subs[0].Op == regex.OpEmpty {
				other = r.Subs[1]
			} else if r.Subs[1].Op == regex.OpEmpty {
				other = r.Subs[0]
			}
			if other != nil {
				p.repeated(b, other, indent, ` minOccurs="0"`)
				return
			}
		}
		fmt.Fprintf(b, "%s<choice>\n", pad)
		for _, s := range r.Subs {
			if s.Op == regex.OpEmpty {
				// ε inside a wider choice: minOccurs=0 on the whole choice
				// would change the language of the siblings; approximate by
				// an empty sequence branch.
				fmt.Fprintf(b, "%s  <sequence/>\n", pad)
				continue
			}
			p.particle(b, s, indent+2, true)
		}
		fmt.Fprintf(b, "%s</choice>\n", pad)
	}
}

// repeated renders r with occurrence attributes, wrapping composites in a
// sequence.
func (p *xsdPrinter) repeated(b *strings.Builder, r *regex.Regex, indent int, occursAttrs string) {
	pad := strings.Repeat(" ", indent)
	switch r.Op {
	case regex.OpSym:
		p.symParticle(b, r.Sym, pad, occursAttrs)
	case regex.OpClass:
		p.classParticle(b, r.Cls, pad, occursAttrs)
	case regex.OpConcat:
		fmt.Fprintf(b, "%s<sequence%s>\n", pad, occursAttrs)
		for _, s := range r.Subs {
			p.particle(b, s, indent+2, false)
		}
		fmt.Fprintf(b, "%s</sequence>\n", pad)
	case regex.OpAlt:
		fmt.Fprintf(b, "%s<choice%s>\n", pad, occursAttrs)
		for _, s := range r.Subs {
			p.particle(b, s, indent+2, true)
		}
		fmt.Fprintf(b, "%s</choice>\n", pad)
	case regex.OpStar:
		// (x*)? and (x*)* both equal x*: drop the redundant wrapper.
		p.repeated(b, r.Subs[0], indent, ` minOccurs="0" maxOccurs="unbounded"`)
	case regex.OpEmpty:
		fmt.Fprintf(b, "%s<sequence/>\n", pad)
	default:
		p.err = fmt.Errorf("xsdint: cannot render repeated %v", r.Op)
	}
}

func (p *xsdPrinter) symParticle(b *strings.Builder, sym regex.Symbol, pad, occursAttrs string) {
	name := p.s.Table.Name(sym)
	tag := "element"
	switch p.s.Kind(name) {
	case schema.KindFunc:
		tag = "function"
	case schema.KindPattern:
		tag = "functionPattern"
	}
	fmt.Fprintf(b, "%s<%s ref=%s%s/>\n", pad, tag, quoteAttr(name), occursAttrs)
}

func (p *xsdPrinter) classParticle(b *strings.Builder, cls regex.Class, pad, occursAttrs string) {
	if cls.Negated {
		not := ""
		if len(cls.Syms) > 0 {
			names := make([]string, len(cls.Syms))
			for i, s := range cls.Syms {
				names[i] = p.s.Table.Name(s)
			}
			not = " not=" + quoteAttr(strings.Join(names, " "))
		}
		fmt.Fprintf(b, "%s<any%s%s/>\n", pad, not, occursAttrs)
		return
	}
	if len(cls.Syms) == 1 {
		p.symParticle(b, cls.Syms[0], pad, occursAttrs)
		return
	}
	fmt.Fprintf(b, "%s<choice%s>\n", pad, occursAttrs)
	for _, s := range cls.Syms {
		p.symParticle(b, s, pad+"  ", "")
	}
	fmt.Fprintf(b, "%s</choice>\n", pad)
}
