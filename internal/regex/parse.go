package regex

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse parses the compact textual syntax used throughout the paper and this
// repository and interns all names into t. The grammar:
//
//	alt    := cat ('|' cat)*
//	cat    := rep ('.' rep)*
//	rep    := atom ('*' | '+' | '?' | '{' n (',' (n | ""))? '}')*
//	atom   := name | '(' alt ')' | '()' | '~' | '~!(' name ('|' name)* ')'
//	name   := [letter or '_'] [letter, digit, '_', '-', ':']*
//
// '()' is ε, '~' is the any-symbol wildcard, '~!(a|b)' matches any symbol
// except a and b. Whitespace is insignificant. Examples:
//
//	title.date.(Get_Temp|temp).(TimeOut|exhibit*)
//	section{1,3}.appendix?
func Parse(t *Table, src string) (*Regex, error) {
	p := &parser{t: t, src: src}
	r, err := p.alt()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.errorf("unexpected %q", rune(p.src[p.pos]))
	}
	return r, nil
}

// MustParse is Parse but panics on error; intended for tests and
// package-level example setup.
func MustParse(t *Table, src string) *Regex {
	r, err := Parse(t, src)
	if err != nil {
		panic(err)
	}
	return r
}

type parser struct {
	t   *Table
	src string
	pos int
}

// maxPositions bounds the positions of a parsed expression: its symbol and
// class leaves, counted with their repetitions, as Positions numbers them.
// Without it a few bytes of repetition bounds could demand unbounded memory
// and time (a{999999999}, or ((a+)+)+ nested thirty deep), and the automata
// built per content model grow with the square of its positions. XML
// Schema_int content models have the same bound.
const maxPositions = 1 << 12

// positions counts the leaf positions of r.
func positions(r *Regex) int {
	if r.Op == OpSym || r.Op == OpClass {
		return 1
	}
	n := 0
	for _, s := range r.Subs {
		n += positions(s)
	}
	return n
}

// bounded refuses an expression of n positions beyond maxPositions.
func (p *parser) bounded(n int) error {
	if n > maxPositions {
		return p.errorf("expression expands beyond %d positions", maxPositions)
	}
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("regex: parse %q at offset %d: %s", p.src, p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func (p *parser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

func (p *parser) alt() (*Regex, error) {
	first, err := p.cat()
	if err != nil {
		return nil, err
	}
	parts := []*Regex{first}
	n := positions(first)
	for {
		p.skipSpace()
		if p.peek() != '|' {
			break
		}
		p.pos++
		next, err := p.cat()
		if err != nil {
			return nil, err
		}
		if n += positions(next); n > maxPositions {
			return nil, p.bounded(n)
		}
		parts = append(parts, next)
	}
	return Alt(parts...), nil
}

func (p *parser) cat() (*Regex, error) {
	first, err := p.rep()
	if err != nil {
		return nil, err
	}
	parts := []*Regex{first}
	n := positions(first)
	for {
		p.skipSpace()
		if p.peek() != '.' {
			break
		}
		p.pos++
		next, err := p.rep()
		if err != nil {
			return nil, err
		}
		if n += positions(next); n > maxPositions {
			return nil, p.bounded(n)
		}
		parts = append(parts, next)
	}
	return Concat(parts...), nil
}

func (p *parser) rep() (*Regex, error) {
	r, err := p.atom()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		switch p.peek() {
		case '*':
			p.pos++
			r = Star(r)
		case '+':
			p.pos++
			if err := p.bounded(2 * positions(r)); err != nil {
				return nil, err
			}
			r = Plus(r)
		case '?':
			p.pos++
			r = Opt(r)
		case '{':
			p.pos++
			min, max, err := p.bounds()
			if err != nil {
				return nil, err
			}
			// r{min,max} holds max copies of r, and r{min,} min+1; the
			// copies are bounded first, since r may have no position.
			if err := p.bounded(min); err != nil {
				return nil, err
			}
			copies := max
			if max == Unbounded {
				copies = min + 1
			}
			if err := p.bounded(copies); err != nil {
				return nil, err
			}
			if err := p.bounded(copies * positions(r)); err != nil {
				return nil, err
			}
			r = Repeat(r, min, max)
		default:
			return r, nil
		}
	}
}

func (p *parser) bounds() (min, max int, err error) {
	min, err = p.number()
	if err != nil {
		return 0, 0, err
	}
	p.skipSpace()
	switch p.peek() {
	case '}':
		p.pos++
		return min, min, nil
	case ',':
		p.pos++
		p.skipSpace()
		if p.peek() == '}' {
			p.pos++
			return min, Unbounded, nil
		}
		max, err = p.number()
		if err != nil {
			return 0, 0, err
		}
		p.skipSpace()
		if p.peek() != '}' {
			return 0, 0, p.errorf("expected '}' after repetition bounds")
		}
		p.pos++
		if max < min {
			return 0, 0, p.errorf("repetition upper bound %d below lower bound %d", max, min)
		}
		return min, max, nil
	default:
		return 0, 0, p.errorf("expected ',' or '}' in repetition bounds")
	}
}

func (p *parser) number() (int, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return 0, p.errorf("expected number")
	}
	return strconv.Atoi(p.src[start:p.pos])
}

func (p *parser) atom() (*Regex, error) {
	p.skipSpace()
	switch c := p.peek(); {
	case c == '(':
		p.pos++
		p.skipSpace()
		if p.peek() == ')' { // '()' is ε
			p.pos++
			return Empty(), nil
		}
		r, err := p.alt()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return nil, p.errorf("missing ')'")
		}
		p.pos++
		return r, nil
	case c == '~':
		p.pos++
		if p.pos+1 < len(p.src) && p.src[p.pos] == '!' && p.src[p.pos+1] == '(' {
			p.pos += 2
			var syms []Symbol
			for {
				name, err := p.name()
				if err != nil {
					return nil, err
				}
				syms = append(syms, p.t.Intern(name))
				p.skipSpace()
				switch p.peek() {
				case '|':
					p.pos++
				case ')':
					p.pos++
					return ClassOf(NewClass(true, syms...)), nil
				default:
					return nil, p.errorf("expected '|' or ')' in exclusion class")
				}
			}
		}
		return Any(), nil
	case isNameStart(rune(c)):
		name, err := p.name()
		if err != nil {
			return nil, err
		}
		return Sym(p.t.Intern(name)), nil
	case c == 0:
		return nil, p.errorf("unexpected end of expression")
	default:
		return nil, p.errorf("unexpected %q", rune(c))
	}
}

func (p *parser) name() (string, error) {
	p.skipSpace()
	start := p.pos
	if p.pos >= len(p.src) || !isNameStart(rune(p.src[p.pos])) {
		return "", p.errorf("expected name")
	}
	p.pos++
	for p.pos < len(p.src) && isNameRune(rune(p.src[p.pos])) {
		p.pos++
	}
	return p.src[start:p.pos], nil
}

func isNameStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isNameRune(r rune) bool {
	return r == '_' || r == '-' || r == ':' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// String renders r in the textual syntax accepted by Parse, resolving symbol
// names through t.
func (r *Regex) String(t *Table) string {
	var b strings.Builder
	r.write(&b, t, precAlt)
	return b.String()
}

const (
	precAlt = iota
	precCat
	precRep
)

func (r *Regex) write(b *strings.Builder, t *Table, prec int) {
	switch r.Op {
	case OpNever:
		b.WriteString("~!()") // unreachable through Parse; printed for debugging
		// A cleaner spelling does not exist in the surface syntax: ∅ only
		// arises through the API.
	case OpEmpty:
		b.WriteString("()")
	case OpSym:
		b.WriteString(t.Name(r.Sym))
	case OpClass:
		b.WriteString(r.Cls.String(t))
	case OpConcat:
		if prec > precCat {
			b.WriteByte('(')
		}
		for i, s := range r.Subs {
			if i > 0 {
				b.WriteByte('.')
			}
			s.write(b, t, precCat+1)
		}
		if prec > precCat {
			b.WriteByte(')')
		}
	case OpAlt:
		// Render r? sugar when ε is a branch and exactly one other branch
		// exists; otherwise a plain alternation.
		if prec > precAlt {
			b.WriteByte('(')
		}
		for i, s := range r.Subs {
			if i > 0 {
				b.WriteByte('|')
			}
			s.write(b, t, precCat)
		}
		if prec > precAlt {
			b.WriteByte(')')
		}
	case OpStar:
		r.Subs[0].write(b, t, precRep)
		b.WriteByte('*')
	}
}
