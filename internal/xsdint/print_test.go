package xsdint

import (
	"strings"
	"testing"

	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/schema"
	"axml/internal/xmlio"
)

// TestPrintWildcardsAndRepeats round-trips content models that exercise the
// printer's particle corner cases: wildcards, exclusions, options, stars of
// composites, and choices containing ε.
func TestPrintWildcardsAndRepeats(t *testing.T) {
	cases := []string{
		"a.~*",
		"~!(a|b)*",
		"a?",
		"(a.b)*",
		"(a|b)*",
		"a.(b.c)?",
		"(a|())",
		"a{2,4}",
		"((a|b).c)*",
	}
	for _, src := range cases {
		s := schema.New()
		if err := s.SetData("a"); err != nil {
			t.Fatal(err)
		}
		if err := s.SetData("b"); err != nil {
			t.Fatal(err)
		}
		if err := s.SetData("c"); err != nil {
			t.Fatal(err)
		}
		if err := s.SetLabel("root", src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		out, err := String(s, nil)
		if err != nil {
			t.Fatalf("%s: print: %v", src, err)
		}
		back, err := ParseString(out, Options{SkipUPACheck: true})
		if err != nil {
			t.Fatalf("%s: re-parse: %v\n%s", src, err, out)
		}
		orig := s.Labels["root"].Content
		round := back.Labels["root"].Content
		// Compare by language on a batch of words.
		words := [][]string{
			{}, {"a"}, {"b"}, {"a", "b"}, {"a", "b", "c"}, {"zzz"},
			{"a", "a"}, {"a", "a", "a"}, {"a", "b", "a", "b"}, {"a", "c"},
		}
		for _, w := range words {
			lhs := matchNames(s, orig, w)
			rhs := matchNames(back, round, w)
			if lhs != rhs {
				t.Errorf("%s: language changed on %v (orig %v, round %v)\n%s", src, w, lhs, rhs, out)
				break
			}
		}
	}
}

func matchNames(s *schema.Schema, r *regex.Regex, names []string) bool {
	w := make([]regex.Symbol, len(names))
	for i, n := range names {
		w[i] = s.Table.Intern(n)
	}
	return regex.Match(r, w)
}

// TestPrintPatternParticle: patterns referenced inside content models print
// as functionPattern particles.
func TestPrintPatternParticle(t *testing.T) {
	s := schema.MustParseText(`
elem page = Forecast|temp
elem temp = data
elem city = data
pattern Forecast = city -> temp
`, nil)
	out, err := String(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `<functionPattern ref="Forecast"/>`) {
		t.Errorf("pattern particle missing:\n%s", out)
	}
	back, err := ParseString(out, Options{})
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if back.Patterns["Forecast"] == nil {
		t.Error("pattern lost")
	}
}

// TestParseAtDirect: the mid-stream entry point used by WSDL_int.
func TestParseAtDirect(t *testing.T) {
	src := `<wrapper><schema root="a"><element name="a" type="xs:string"/></schema><after/></wrapper>`
	tz := xmlio.NewBytesTokenizer([]byte(src))
	defer tz.Close()
	// Consume <wrapper> then position at <schema>.
	var schemaStart *xmlio.Token
	for {
		tok, err := tz.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == xmlio.KindStart && string(tok.Local) == "schema" {
			schemaStart = tok
			break
		}
	}
	s, err := ParseAt(tz, schemaStart, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Root != "a" || s.Labels["a"] == nil {
		t.Errorf("parsed schema wrong: %+v", s)
	}
	// The tokenizer must be positioned after </schema>: <after/> comes next.
	tok, err := tz.Next()
	if err != nil {
		t.Fatal(err)
	}
	if tok.Kind != xmlio.KindStart || string(tok.Local) != "after" {
		t.Errorf("tokenizer misaligned after ParseAt: %+v", tok)
	}
	// ParseAt on a non-schema element fails.
	tz2 := xmlio.NewBytesTokenizer([]byte("<x/>"))
	defer tz2.Close()
	st, _ := tz2.Next()
	if _, err := ParseAt(tz2, st, Options{}); err == nil {
		t.Error("ParseAt on <x> should fail")
	}
}

// TestPrintedSchemaValidates: the printed XSD of the paper schema drives
// validation identically to the text-DSL original.
func TestPrintedSchemaValidates(t *testing.T) {
	orig := schema.MustParseText(`
root newspaper
elem newspaper = title.(Get_Temp|temp)
elem title = data
elem temp = data
elem city = data
func Get_Temp = city -> temp
`, nil)
	out, err := String(orig, nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(out, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := doc.Elem("newspaper",
		doc.Elem("title", doc.TextNode("x")),
		doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))))
	if err := schema.NewContext(back, nil).Validate(d); err != nil {
		t.Errorf("round-tripped schema rejects document: %v", err)
	}
}
