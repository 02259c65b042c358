// Package xsdint implements XML Schema_int, the paper's extension of XML
// Schema for intensional documents (Section 7): alongside the usual element
// and complex-type machinery, schemas declare *functions* and *function
// patterns* that may be referenced wherever element particles may appear.
//
// The supported subset covers what the paper's implementation used: global
// element declarations, complexType with nested sequence/choice particles,
// element references, minOccurs/maxOccurs (including "unbounded"), atomic
// simple types (any xs:* type attribute means atomic data), wildcards
// (<any/>, plus a "not" attribute for exclusions), and the two intensional
// declarations:
//
//	<function id="Get_Temp" methodName="Get_Temp"
//	          endpointURL="http://forecast.example/soap" namespaceURI="urn:w">
//	  <params><param><element ref="city"/></param></params>
//	  <return><element ref="temp"/></return>
//	</function>
//
//	<functionPattern id="Forecast" predicate="UDDIF">
//	  <params><param><element ref="city"/></param></params>
//	  <return><element ref="temp"/></return>
//	</functionPattern>
//
// Declarations compile into an internal/schema.Schema; the one-unambiguity
// (UPA) requirement of XML Schema is enforced at the end. Parsing is
// namespace-lenient: declarations are recognized by local name whether or
// not they carry the XML Schema namespace.
package xsdint

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"axml/internal/regex"
	"axml/internal/schema"
	"axml/internal/xmlio"
)

// XSDNamespace is the XML Schema namespace (accepted but not required).
const XSDNamespace = "http://www.w3.org/2001/XMLSchema"

// Options configure parsing.
type Options struct {
	// Predicates resolves functionPattern predicate names.
	Predicates map[string]schema.Predicate
	// Table, when non-nil, makes the parsed schema share symbols with other
	// schemas (required to analyze schema pairs together).
	Table *regex.Table
	// SkipUPACheck disables the one-unambiguity enforcement (used by tests
	// exercising the non-deterministic complexity path).
	SkipUPACheck bool
}

// Parse reads an XML Schema_int document.
func Parse(r io.Reader, opt Options) (*schema.Schema, error) {
	table := opt.Table
	if table == nil {
		table = regex.NewTable()
	}
	tz := xmlio.NewTokenizer(r)
	defer tz.Close()
	p := &parser{
		tz:    tz,
		s:     schema.NewShared(table),
		preds: opt.Predicates,
	}
	if err := p.run(); err != nil {
		return nil, err
	}
	if err := tz.Trailing(); err != nil {
		return nil, p.errf("%w", err)
	}
	if !opt.SkipUPACheck {
		if err := p.s.CheckDeterministic(); err != nil {
			return nil, fmt.Errorf("xsdint: %w (XML Schema requires unique particle attribution)", err)
		}
	}
	return p.s, nil
}

// ParseString parses from a string.
func ParseString(src string, opt Options) (*schema.Schema, error) {
	return Parse(strings.NewReader(src), opt)
}

// ParseAt parses a <schema> element that an embedding format (WSDL_int) has
// already opened: start must be the schema start tag, just returned by tz.
func ParseAt(tz *xmlio.Tokenizer, start *xmlio.Token, opt Options) (*schema.Schema, error) {
	if string(start.Local) != "schema" {
		return nil, fmt.Errorf("xsdint: ParseAt on <%s>, want <schema>", start.Local)
	}
	table := opt.Table
	if table == nil {
		table = regex.NewTable()
	}
	p := &parser{tz: tz, s: schema.NewShared(table), preds: opt.Predicates}
	if v := start.Value("root"); v != "" {
		p.s.Root = v
	}
	if err := p.body(); err != nil {
		return nil, err
	}
	if !opt.SkipUPACheck {
		if err := p.s.CheckDeterministic(); err != nil {
			return nil, fmt.Errorf("xsdint: %w (XML Schema requires unique particle attribution)", err)
		}
	}
	return p.s, nil
}

// parser reads one schema. Tokens are borrowed from the tokenizer, so every
// attribute a declaration needs is read before its content is.
type parser struct {
	tz    *xmlio.Tokenizer
	s     *schema.Schema
	preds map[string]schema.Predicate

	// Occurrence bounds expand into copies of their particle: weight is
	// the number of copies the particle being parsed expands into, model
	// and total the positions expanded so far in the current content model
	// and in the schema.
	weight, model, total int
}

// Expansion bounds: without them a few bytes of minOccurs/maxOccurs could
// demand unbounded memory, and the automata built per content model grow
// with the square of its positions.
const (
	maxModelPositions  = 1 << 12
	maxSchemaPositions = 1 << 16
)

// startModel begins counting the positions of a new content model.
func (p *parser) startModel() { p.weight, p.model = 1, 0 }

// position counts one leaf particle with its expansion.
func (p *parser) position(owner string) error {
	p.model += p.weight
	p.total += p.weight
	if p.model > maxModelPositions || p.total > maxSchemaPositions {
		return p.errf("%q: occurrence bounds expand the schema beyond %d positions per content model or %d in all",
			owner, maxModelPositions, maxSchemaPositions)
	}
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("xsdint: "+format, args...)
}

// stray reports a text token other than white space between declarations.
func stray(tok *xmlio.Token) bool { return len(bytes.TrimSpace(tok.Data)) > 0 }

func (p *parser) run() error {
	root, err := p.nextStart()
	if err != nil {
		return p.errf("no root element: %w", err)
	}
	if string(root.Local) != "schema" {
		return p.errf("root element is <%s>, want <schema>", root.Local)
	}
	if v := root.Value("root"); v != "" {
		p.s.Root = v
	}
	return p.body()
}

// body parses schema content up to the closing </schema>.
func (p *parser) body() error {
	for {
		tok, err := p.tz.Next()
		if err != nil {
			return p.errf("truncated schema: %w", err)
		}
		switch tok.Kind {
		case xmlio.KindStart:
			switch string(tok.Local) {
			case "element":
				if err := p.globalElement(tok); err != nil {
					return err
				}
			case "function":
				if err := p.function(tok, false); err != nil {
					return err
				}
			case "functionPattern":
				if err := p.function(tok, true); err != nil {
					return err
				}
			case "annotation", "import", "include":
				if err := p.skip(); err != nil {
					return err
				}
			default:
				return p.errf("unsupported top-level <%s>", tok.Local)
			}
		case xmlio.KindEnd:
			return nil
		case xmlio.KindText:
			if stray(tok) {
				return p.errf("stray text %q in schema", tok.Data)
			}
		}
	}
}

// globalElement parses a top-level <element>.
func (p *parser) globalElement(start *xmlio.Token) error {
	name := start.Value("name")
	if name == "" {
		return p.errf("global element without name")
	}
	var content *regex.Regex
	sawComplex := false
	for {
		tok, err := p.tz.Next()
		if err != nil {
			return p.errf("inside element %q: %w", name, err)
		}
		switch tok.Kind {
		case xmlio.KindStart:
			switch string(tok.Local) {
			case "complexType":
				sawComplex = true
				r, err := p.complexType(name)
				if err != nil {
					return err
				}
				content = r
			case "simpleType", "annotation":
				if err := p.skip(); err != nil {
					return err
				}
			default:
				return p.errf("element %q: unsupported <%s>", name, tok.Local)
			}
		case xmlio.KindEnd:
			if sawComplex {
				return p.s.SetLabelRegex(name, content)
			}
			// type attribute or nothing: atomic data (the paper's model
			// treats all simple types as one data domain).
			return p.s.SetData(name)
		case xmlio.KindText:
			if stray(tok) {
				return p.errf("element %q: stray text", name)
			}
		}
	}
}

// complexType parses <complexType> content: one optional particle group.
func (p *parser) complexType(owner string) (*regex.Regex, error) {
	p.startModel()
	content := regex.Empty()
	for {
		tok, err := p.tz.Next()
		if err != nil {
			return nil, p.errf("complexType of %q: %w", owner, err)
		}
		switch tok.Kind {
		case xmlio.KindStart:
			r, err := p.particle(tok, owner)
			if err != nil {
				return nil, err
			}
			content = regex.Concat(content, r)
		case xmlio.KindEnd:
			return content, nil
		case xmlio.KindText:
			if stray(tok) {
				return nil, p.errf("complexType of %q: stray text", owner)
			}
		}
	}
}

// particle parses one content particle and applies its occurrence bounds.
func (p *parser) particle(start *xmlio.Token, owner string) (*regex.Regex, error) {
	min, max, err := occurs(start)
	if err != nil {
		return nil, p.errf("%q: %v", owner, err)
	}
	copies := max
	if max == regex.Unbounded {
		copies = min + 1
	}
	outer := p.weight
	if copies > 0 && outer > maxModelPositions/copies {
		return nil, p.errf("%q: occurrence bounds expand a content model beyond %d positions", owner, maxModelPositions)
	}
	p.weight = outer * copies
	defer func() { p.weight = outer }()
	var core *regex.Regex
	switch string(start.Local) {
	case "sequence", "choice":
		kind := "choice" // start is overwritten by the next token
		if string(start.Local) == "sequence" {
			kind = "sequence"
		}
		var parts []*regex.Regex
		for {
			tok, err := p.tz.Next()
			if err != nil {
				return nil, p.errf("%s in %q: %w", kind, owner, err)
			}
			switch tok.Kind {
			case xmlio.KindStart:
				r, err := p.particle(tok, owner)
				if err != nil {
					return nil, err
				}
				parts = append(parts, r)
			case xmlio.KindEnd:
				if kind == "sequence" {
					core = regex.Concat(parts...)
				} else {
					core = regex.Alt(parts...)
				}
				return boundedRepeat(core, min, max), nil
			case xmlio.KindText:
				if stray(tok) {
					return nil, p.errf("%s in %q: stray text", kind, owner)
				}
			}
		}
	case "element", "function", "functionPattern":
		name := start.Value("ref")
		if name == "" {
			name = start.Value("name")
		}
		if name == "" {
			return nil, p.errf("%q: <%s> particle without ref or name", owner, start.Local)
		}
		if err := p.position(owner); err != nil {
			return nil, err
		}
		if err := p.skip(); err != nil {
			return nil, err
		}
		core = regex.Sym(p.s.Table.Intern(name))
		return boundedRepeat(core, min, max), nil
	case "any":
		if err := p.position(owner); err != nil {
			return nil, err
		}
		not := strings.Fields(start.Value("not"))
		if err := p.skip(); err != nil {
			return nil, err
		}
		syms := make([]regex.Symbol, len(not))
		for i, n := range not {
			syms[i] = p.s.Table.Intern(n)
		}
		core = regex.ClassOf(regex.NewClass(true, syms...))
		return boundedRepeat(core, min, max), nil
	case "annotation":
		if err := p.skip(); err != nil {
			return nil, err
		}
		return regex.Empty(), nil
	default:
		return nil, p.errf("%q: unsupported particle <%s>", owner, start.Local)
	}
}

// boundedRepeat applies minOccurs/maxOccurs.
func boundedRepeat(r *regex.Regex, min, max int) *regex.Regex {
	if min == 1 && max == 1 {
		return r
	}
	return regex.Repeat(r, min, max)
}

func occurs(start *xmlio.Token) (min, max int, err error) {
	min, max = 1, 1
	if v := start.Value("minOccurs"); v != "" {
		min, err = strconv.Atoi(v)
		if err != nil || min < 0 {
			return 0, 0, fmt.Errorf("bad minOccurs %q", v)
		}
	}
	if v := start.Value("maxOccurs"); v != "" {
		if v == "unbounded" {
			max = regex.Unbounded
		} else {
			max, err = strconv.Atoi(v)
			if err != nil || (max != regex.Unbounded && max < min) {
				return 0, 0, fmt.Errorf("bad maxOccurs %q", v)
			}
		}
	}
	if max != regex.Unbounded && max < min {
		return 0, 0, fmt.Errorf("minOccurs %d exceeds maxOccurs %d", min, max)
	}
	return min, max, nil
}

// function parses a <function> or <functionPattern> declaration.
func (p *parser) function(start *xmlio.Token, isPattern bool) error {
	fa := funcAttrs{
		predicate:   start.Value("predicate"),
		methodName:  start.Value("methodName"),
		endpoint:    start.Value("endpointURL"),
		namespace:   start.Value("namespaceURI"),
		invocable:   start.Value("invocable"),
		sideEffects: start.Value("sideEffects"),
		cost:        start.Value("cost"),
	}
	name := start.Value("id")
	if name == "" {
		name = fa.methodName
	}
	if name == "" {
		return p.errf("function declaration without id or methodName")
	}
	var in, out *regex.Regex
	inIsData, outIsData := true, true
	for {
		tok, err := p.tz.Next()
		if err != nil {
			return p.errf("function %q: %w", name, err)
		}
		switch tok.Kind {
		case xmlio.KindStart:
			switch string(tok.Local) {
			case "params":
				p.startModel()
				r, some, err := p.params(name)
				if err != nil {
					return err
				}
				in, inIsData = r, !some
			case "return", "result":
				p.startModel()
				r, err := p.wrapperParticle(name)
				if err != nil {
					return err
				}
				out, outIsData = r, false
			case "annotation":
				if err := p.skip(); err != nil {
					return err
				}
			default:
				return p.errf("function %q: unsupported <%s>", name, tok.Local)
			}
		case xmlio.KindEnd:
			return p.declare(fa, name, in, inIsData, out, outIsData, isPattern)
		case xmlio.KindText:
			if stray(tok) {
				return p.errf("function %q: stray text", name)
			}
		}
	}
}

// funcAttrs are the attributes of a function declaration, read off its start
// tag before the declaration's content.
type funcAttrs struct {
	predicate, methodName, endpoint, namespace, invocable, sideEffects, cost string
}

func (p *parser) declare(fa funcAttrs, name string, in *regex.Regex, inIsData bool, out *regex.Regex, outIsData bool, isPattern bool) error {
	if inIsData {
		in = nil
	}
	if outIsData {
		out = nil
	}
	if isPattern {
		var pred schema.Predicate
		predName := fa.predicate
		if predName == "" {
			predName = fa.methodName
		}
		if predName != "" {
			pred = p.preds[predName]
			if pred == nil {
				return p.errf("functionPattern %q: unknown predicate %q", name, predName)
			}
		}
		if err := p.s.SetPattern(name, "data", "data", pred); err != nil {
			return err
		}
		d := p.s.Patterns[name]
		d.In, d.Out = in, out
		if fa.invocable == "false" {
			d.Invocable = false
		}
		return nil
	}
	err := p.s.SetFuncDef(name, "data", "data", func(d *schema.FuncDef) {
		d.Endpoint = fa.endpoint
		d.Namespace = fa.namespace
		if fa.invocable == "false" {
			d.Invocable = false
		}
		if fa.sideEffects == "true" {
			d.SideEffects = true
		}
		if v := fa.cost; v != "" {
			if c, err := strconv.ParseFloat(v, 64); err == nil {
				d.Cost = c
			}
		}
	})
	if err != nil {
		return err
	}
	d := p.s.Funcs[name]
	d.In, d.Out = in, out
	return nil
}

// params parses <params> as a sequence of <param> wrappers; the input type
// is the concatenation of the per-param particles. some reports whether any
// param appeared (no params means atomic data input).
func (p *parser) params(owner string) (*regex.Regex, bool, error) {
	parts := []*regex.Regex{}
	for {
		tok, err := p.tz.Next()
		if err != nil {
			return nil, false, p.errf("params of %q: %w", owner, err)
		}
		switch tok.Kind {
		case xmlio.KindStart:
			if string(tok.Local) != "param" {
				return nil, false, p.errf("params of %q: unexpected <%s>", owner, tok.Local)
			}
			r, err := p.wrapperParticle(owner)
			if err != nil {
				return nil, false, err
			}
			parts = append(parts, r)
		case xmlio.KindEnd:
			if len(parts) == 0 {
				return nil, false, nil
			}
			return regex.Concat(parts...), true, nil
		case xmlio.KindText:
			if stray(tok) {
				return nil, false, p.errf("params of %q: stray text", owner)
			}
		}
	}
}

// wrapperParticle parses the content of a wrapper element (param, return)
// as a particle sequence up to the wrapper's end tag.
func (p *parser) wrapperParticle(owner string) (*regex.Regex, error) {
	parts := []*regex.Regex{}
	for {
		tok, err := p.tz.Next()
		if err != nil {
			return nil, p.errf("inside %q: %w", owner, err)
		}
		switch tok.Kind {
		case xmlio.KindStart:
			r, err := p.particle(tok, owner)
			if err != nil {
				return nil, err
			}
			parts = append(parts, r)
		case xmlio.KindEnd:
			return regex.Concat(parts...), nil
		case xmlio.KindText:
			if stray(tok) {
				return nil, p.errf("inside %q: stray text", owner)
			}
		}
	}
}

// skip consumes the current element's remaining content.
func (p *parser) skip() error {
	depth := 1
	for depth > 0 {
		tok, err := p.tz.Next()
		if err != nil {
			return p.errf("truncated element: %w", err)
		}
		switch tok.Kind {
		case xmlio.KindStart:
			depth++
		case xmlio.KindEnd:
			depth--
		}
	}
	return nil
}

func (p *parser) nextStart() (*xmlio.Token, error) {
	for {
		tok, err := p.tz.Next()
		if err != nil || tok.Kind == xmlio.KindStart {
			return tok, err
		}
	}
}
