package schema

import (
	"strings"
	"testing"

	"axml/internal/doc"
	"axml/internal/regex"
)

// paperSchemaText is the schema (*) from Section 2 of the paper.
const paperSchemaText = `
# Schema (*) of the paper
root newspaper
elem newspaper = title.date.(Get_Temp|temp).(TimeOut|exhibit*)
elem title = data
elem date = data
elem temp = data
elem city = data
elem exhibit = title.(Get_Date|date)
func Get_Temp = city -> temp
func TimeOut = data -> (exhibit|performance)*
func Get_Date = title -> date
`

func paperSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := ParseText(paperSchemaText, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fig2 builds the document of Figure 2.a.
func fig2() *doc.Node {
	return doc.Elem("newspaper",
		doc.Elem("title", doc.TextNode("The Sun")),
		doc.Elem("date", doc.TextNode("04/10/2002")),
		doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))),
		doc.Call("TimeOut", doc.TextNode("exhibits")),
	)
}

func TestParseTextPaperSchema(t *testing.T) {
	s := paperSchema(t)
	if s.Root != "newspaper" {
		t.Errorf("root = %q", s.Root)
	}
	if len(s.Labels) != 6 || len(s.Funcs) != 3 {
		t.Errorf("decls = %d labels, %d funcs", len(s.Labels), len(s.Funcs))
	}
	if !s.Labels["title"].IsData() {
		t.Error("title should be data")
	}
	if s.Labels["newspaper"].IsData() {
		t.Error("newspaper should not be data")
	}
	in, out, ok := s.FuncSig("Get_Temp")
	if !ok || in == nil || out == nil {
		t.Fatal("Get_Temp signature missing")
	}
	if in.String(s.Table) != "city" || out.String(s.Table) != "temp" {
		t.Errorf("Get_Temp signature = %s -> %s", in.String(s.Table), out.String(s.Table))
	}
	// TimeOut takes atomic data.
	tin, _, _ := s.FuncSig("TimeOut")
	if tin != nil {
		t.Error("TimeOut input should be data (nil)")
	}
	if err := s.CheckDeterministic(); err != nil {
		t.Errorf("paper schema should be deterministic: %v", err)
	}
}

func TestParseTextOptions(t *testing.T) {
	s, err := ParseText(`
func Pay = data -> receipt {noninvoke, effects, cost=2.5, endpoint=http://bank/soap, ns=urn:bank}
elem receipt = data
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := s.Funcs["Pay"]
	if d.Invocable {
		t.Error("noninvoke ignored")
	}
	if !d.SideEffects {
		t.Error("effects ignored")
	}
	if d.Cost != 2.5 {
		t.Errorf("cost = %v", d.Cost)
	}
	if d.Endpoint != "http://bank/soap" || d.Namespace != "urn:bank" {
		t.Errorf("endpoint/ns = %q %q", d.Endpoint, d.Namespace)
	}
}

func TestParseTextErrors(t *testing.T) {
	for _, src := range []string{
		"bogus x = y",
		"elem a",
		"func f = a",                     // missing ->
		"elem a = ((",                    // bad regex
		"pattern p = a -> b {pred=nope}", // unknown predicate
		"func f = a -> b {x",             // unterminated options
		"root",                           // missing operand
	} {
		if _, err := ParseText(src, nil); err == nil {
			t.Errorf("ParseText(%q) should fail", src)
		}
	}
}

func TestRedeclarationAcrossKinds(t *testing.T) {
	s := New()
	if err := s.SetData("x"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetFunc("x", "a", "b"); err == nil {
		t.Error("declaring label name as function should fail")
	}
	if err := s.SetPattern("x", "a", "b", nil); err == nil {
		t.Error("declaring label name as pattern should fail")
	}
	// Redeclaring within the same kind overwrites (useful for refinement).
	if err := s.SetLabel("x", "a.b"); err != nil {
		t.Errorf("same-kind redeclaration should succeed: %v", err)
	}
}

func TestValidatePaperDocument(t *testing.T) {
	s := paperSchema(t)
	c := NewContext(s, nil)
	if err := c.Validate(fig2()); err != nil {
		t.Errorf("Figure 2.a should validate against schema (*): %v", err)
	}

	// After materializing Get_Temp the document still validates (temp branch).
	after := fig2()
	if err := after.ReplaceChild(2, []*doc.Node{doc.Elem("temp", doc.TextNode("15"))}); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(after); err != nil {
		t.Errorf("Figure 2.b should validate: %v", err)
	}

	// Schema (**) requires a materialized temp: Figure 2.a must NOT validate.
	ss := MustParseText(strings.Replace(paperSchemaText,
		"elem newspaper = title.date.(Get_Temp|temp).(TimeOut|exhibit*)",
		"elem newspaper = title.date.temp.(TimeOut|exhibit*)", 1), nil)
	cs := NewContext(ss, nil)
	if err := cs.Validate(fig2()); err == nil {
		t.Error("Figure 2.a should not validate against schema (**)")
	}
	if err := cs.Validate(after); err != nil {
		t.Errorf("materialized document should validate against (**): %v", err)
	}
}

func TestValidateDataElement(t *testing.T) {
	s := paperSchema(t)
	c := NewContext(s, nil)
	bad := doc.Elem("title", doc.Elem("b", doc.TextNode("bold!")))
	if err := c.Validate(bad); err == nil {
		t.Error("data element with element child should fail")
	}
	if err := c.Validate(doc.Elem("title")); err != nil {
		t.Errorf("empty data element should validate: %v", err)
	}
}

func TestValidateTextInStructuredContent(t *testing.T) {
	s := paperSchema(t)
	c := NewContext(s, nil)
	n := fig2()
	n.Children = append(n.Children, doc.TextNode("   \n")) // whitespace ok
	if err := c.Validate(n); err != nil {
		t.Errorf("whitespace text should be ignored: %v", err)
	}
	n.Children = append(n.Children, doc.TextNode("rogue text"))
	if err := c.Validate(n); err == nil {
		t.Error("non-whitespace text in structured content should fail")
	}
}

func TestValidateFunctionParams(t *testing.T) {
	s := paperSchema(t)
	c := NewContext(s, nil)
	bad := fig2()
	bad.Children[2] = doc.Call("Get_Temp", doc.Elem("date")) // wrong param type
	if err := c.Validate(bad); err == nil {
		t.Error("Get_Temp with date param should fail validation")
	}
	badData := fig2()
	badData.Children[3] = doc.Call("TimeOut", doc.Elem("city")) // data expected
	if err := c.Validate(badData); err == nil {
		t.Error("TimeOut with element param should fail validation")
	}
}

func TestStrictVsLenient(t *testing.T) {
	s := MustParseText("elem a = b*", nil) // b mentioned but undeclared
	n := doc.Elem("a", doc.Elem("b", doc.Elem("whatever")))
	c := NewContext(s, nil)
	if err := c.Validate(n); err != nil {
		t.Errorf("lenient mode should accept undeclared b subtree: %v", err)
	}
	c.Strict = true
	if err := c.Validate(n); err == nil {
		t.Error("strict mode should reject undeclared b")
	}
}

func TestPatternMatching(t *testing.T) {
	calls := 0
	preds := map[string]Predicate{
		"uddi": func(name string, in, out *regex.Regex) bool {
			calls++
			return strings.HasPrefix(name, "Get_")
		},
	}
	s := MustParseText(`
elem newspaper = title.(Forecast|temp)
elem title = data
elem temp = data
elem city = data
func Get_Temp = city -> temp
func Rogue_Temp = city -> temp
func Get_Wrong = city -> city
pattern Forecast = city -> temp {pred=uddi}
`, preds)
	c := NewContext(s, nil)

	ok := doc.Elem("newspaper", doc.Elem("title"), doc.Call("Get_Temp", doc.Elem("city")))
	if err := c.Validate(ok); err != nil {
		t.Errorf("Get_Temp should match Forecast pattern: %v", err)
	}
	if calls == 0 {
		t.Error("predicate was never consulted")
	}
	badName := doc.Elem("newspaper", doc.Elem("title"), doc.Call("Rogue_Temp", doc.Elem("city")))
	if err := c.Validate(badName); err == nil {
		t.Error("Rogue_Temp fails the predicate and must not match")
	}
	badSig := doc.Elem("newspaper", doc.Elem("title"), doc.Call("Get_Wrong", doc.Elem("city")))
	if err := c.Validate(badSig); err == nil {
		t.Error("Get_Wrong has the wrong signature and must not match")
	}
}

func TestFuncMatchesPatternSigEquivalence(t *testing.T) {
	s := New()
	mk := func(src string) *regex.Regex { return regex.MustParse(s.Table, src) }
	def := &FuncDef{Name: "f", In: mk("a|b"), Out: mk("c")}
	pat := &PatternDef{Name: "p", In: mk("b|a"), Out: mk("c")}
	if !FuncMatchesPattern(def, pat) {
		t.Error("signature comparison should be language-level (a|b ≡ b|a)")
	}
	pat2 := &PatternDef{Name: "p2", In: mk("a"), Out: mk("c")}
	if FuncMatchesPattern(def, pat2) {
		t.Error("different input languages should not match")
	}
	if FuncMatchesPattern(nil, pat) || FuncMatchesPattern(def, nil) {
		t.Error("nil operands should not match")
	}
	// data vs data matches; data vs regex does not.
	dataDef := &FuncDef{Name: "g"}
	dataPat := &PatternDef{Name: "q"}
	if !FuncMatchesPattern(dataDef, dataPat) {
		t.Error("data -> data should match data -> data")
	}
	if FuncMatchesPattern(dataDef, pat) {
		t.Error("data signature should not match regex signature")
	}
}

func TestIsInputOutputInstance(t *testing.T) {
	s := paperSchema(t)
	c := NewContext(s, nil)
	if err := c.IsInputInstance("Get_Temp", []*doc.Node{doc.Elem("city", doc.TextNode("Paris"))}); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
	if err := c.IsInputInstance("Get_Temp", []*doc.Node{doc.Elem("date")}); err == nil {
		t.Error("wrong input accepted")
	}
	if err := c.IsInputInstance("TimeOut", []*doc.Node{doc.TextNode("exhibits")}); err != nil {
		t.Errorf("data input rejected: %v", err)
	}
	if err := c.IsInputInstance("TimeOut", []*doc.Node{doc.Elem("city")}); err == nil {
		t.Error("element input to data function accepted")
	}
	if err := c.IsOutputInstance("Get_Temp", []*doc.Node{doc.Elem("temp", doc.TextNode("15"))}); err != nil {
		t.Errorf("valid output rejected: %v", err)
	}
	if err := c.IsOutputInstance("Get_Temp", []*doc.Node{doc.Elem("city")}); err == nil {
		t.Error("wrong output accepted")
	}
	if err := c.IsOutputInstance("TimeOut", []*doc.Node{
		doc.Elem("exhibit", doc.Elem("title"), doc.Elem("date")),
		doc.Elem("performance"),
	}); err != nil {
		t.Errorf("TimeOut mixed output rejected: %v", err)
	}
	if err := c.IsInputInstance("Nope", nil); err == nil {
		t.Error("unknown function accepted")
	}
	// Output instances validate recursively: a bad exhibit must fail.
	if err := c.IsOutputInstance("TimeOut", []*doc.Node{doc.Elem("exhibit", doc.Elem("date"))}); err == nil {
		t.Error("invalid exhibit inside output accepted")
	}
}

func TestWordOfAndAdmissible(t *testing.T) {
	s := paperSchema(t)
	c := NewContext(s, nil)
	w := c.WordOf(fig2())
	if len(w) != 4 {
		t.Fatalf("WordOf = %d symbols", len(w))
	}
	if s.Table.Name(w[2]) != "Get_Temp" {
		t.Errorf("word[2] = %s", s.Table.Name(w[2]))
	}
	admissible := c.AdmissibleSyms(doc.Elem("title"))
	if len(admissible) != 1 {
		t.Errorf("element admissible = %v", admissible)
	}
}

func TestSchemaAlphabetAndKind(t *testing.T) {
	s := paperSchema(t)
	sigma := s.Alphabet()
	if len(sigma) < 9 {
		t.Errorf("alphabet = %d symbols, expected at least labels+funcs", len(sigma))
	}
	if s.Kind("newspaper") != KindLabel || s.Kind("Get_Temp") != KindFunc || s.Kind("zzz") != KindUnknown {
		t.Error("Kind classification wrong")
	}
	if KindLabel.String() == "" || KindUnknown.String() == "" {
		t.Error("SymKind strings empty")
	}
}

func TestCheckDeterministic(t *testing.T) {
	s := MustParseText("elem a = b*.b\nelem b = data", nil)
	if err := s.CheckDeterministic(); err == nil {
		t.Error("b*.b should be flagged non-deterministic")
	}
	s2 := MustParseText("func f = a*.a -> b\nelem a = data\nelem b = data", nil)
	if err := s2.CheckDeterministic(); err == nil {
		t.Error("non-deterministic input type should be flagged")
	}
}

func TestTextRoundTrip(t *testing.T) {
	s := paperSchema(t)
	text := s.Text()
	s2, err := ParseText(text, nil)
	if err != nil {
		t.Fatalf("re-parse of Text() failed: %v\n%s", err, text)
	}
	if s2.Root != s.Root || len(s2.Labels) != len(s.Labels) || len(s2.Funcs) != len(s.Funcs) {
		t.Error("Text round trip lost declarations")
	}
	// Content models survive by language.
	c := NewContext(s2, nil)
	if err := c.Validate(fig2()); err != nil {
		t.Errorf("round-tripped schema rejects Figure 2.a: %v", err)
	}
}

func TestNewContextPanicsOnSplitTables(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewContext with split tables should panic")
		}
	}()
	NewContext(New(), New())
}

func TestSigsSchemaSeparateFromTarget(t *testing.T) {
	// Exchange schema declares the pattern; sender schema has the function
	// signature. Validation must find the signature through Sigs.
	table := regex.NewTable()
	sender := NewShared(table)
	if err := sender.SetFunc("Get_Temp", "city", "temp"); err != nil {
		t.Fatal(err)
	}
	target := NewShared(table)
	for _, step := range []error{
		target.SetLabel("newspaper", "Forecast|temp"),
		target.SetData("temp"),
		target.SetData("city"),
		target.SetPattern("Forecast", "city", "temp", nil),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	c := NewContext(target, sender)
	n := doc.Elem("newspaper", doc.Call("Get_Temp", doc.Elem("city")))
	if err := c.Validate(n); err != nil {
		t.Errorf("pattern match through sender signatures failed: %v", err)
	}
}

// TestMatchWordAllocations: MatchWord cuts every letter from one backing
// slice, so its allocations do not grow with the word: the same at 10 and
// at 1,000 element children, next to a function read through a pattern.
func TestMatchWordAllocations(t *testing.T) {
	s := MustParseText(`
elem report = title.block*.(Forecast|temp)
elem title = data
elem block = data
elem temp = data
elem city = data
func Get_Temp = city -> temp
pattern Forecast = city -> temp
`, nil)
	c := NewContext(s, nil)
	model := s.Labels["report"].Content
	allocs := func(blocks int) float64 {
		kids := []*doc.Node{doc.Elem("title")}
		for i := 0; i < blocks; i++ {
			kids = append(kids, doc.Elem("block"), doc.TextNode(" "))
		}
		kids = append(kids, doc.Call("Get_Temp", doc.Elem("city")))
		if !c.MatchWord(model, kids) {
			t.Fatalf("%d blocks and a call to a Forecast do not match %s", blocks, model.String(s.Table))
		}
		return testing.AllocsPerRun(20, func() { c.MatchWord(model, kids) })
	}
	if small, large := allocs(10), allocs(1000); large != small {
		t.Errorf("MatchWord = %v allocations at 1,000 children, %v at 10", large, small)
	}
}

// instanceSchema declares a one-key input and a structured, starred
// output, with a pattern that admits Get_Temp.
const instanceSchema = `
elem report = title.block*.(Forecast|temp)
elem title = data
elem block = heading.para*
elem heading = data
elem para = data
elem temp = data
elem city = data
elem exhibit = title.block
func Get_Temp = city -> temp
func TimeOut = data -> (exhibit|temp)*
pattern Forecast = city -> temp
`

// TestInstanceChecksAllocateNothing: a passing IsInputInstance or
// IsOutputInstance allocates nothing: no message text, no path and no
// letters are built for a forest that conforms.
func TestInstanceChecksAllocateNothing(t *testing.T) {
	s := MustParseText(instanceSchema, nil)
	c := NewContext(s, nil)
	params := []*doc.Node{doc.Elem("city", doc.TextNode("Paris"))}
	block := doc.Elem("block", doc.Elem("heading", doc.TextNode("h")), doc.Elem("para", doc.TextNode("p")))
	result := []*doc.Node{
		doc.Elem("exhibit", doc.Elem("title", doc.TextNode("Dali")), block),
		doc.TextNode(" "),
		doc.Elem("exhibit", doc.Elem("title", doc.TextNode("Miro")), block),
	}
	report := []*doc.Node{doc.Elem("report", doc.Elem("title"), block, block,
		doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))))}
	for _, tc := range []struct {
		name  string
		check func() error
	}{
		{"input", func() error { return c.IsInputInstance("Get_Temp", params) }},
		{"output", func() error { return c.IsOutputInstance("TimeOut", result) }},
		{"validate through a pattern", func() error { return c.Validate(report[0]) }},
	} {
		if err := tc.check(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := testing.AllocsPerRun(50, func() { _ = tc.check() }); n != 0 {
			t.Errorf("%s: a passing check = %v allocations", tc.name, n)
		}
	}
}

// TestInstanceCheckErrors pins the text of failed instance checks: the
// side and function they name, and the path of the offending node.
func TestInstanceCheckErrors(t *testing.T) {
	s := MustParseText(instanceSchema, nil)
	c := NewContext(s, nil)
	bad := doc.Elem("block", doc.Elem("heading", doc.TextNode("h")), doc.Elem("para", doc.Elem("x")))
	for _, tc := range []struct {
		err  error
		want string
	}{
		{c.IsInputInstance("Get_Temp", []*doc.Node{doc.Elem("temp")}),
			"schema: input of Get_Temp [temp] does not match type city"},
		{c.IsInputInstance("TimeOut", []*doc.Node{doc.Elem("city")}),
			`schema: input of TimeOut must be atomic data, got "city"`},
		{c.IsOutputInstance("TimeOut", []*doc.Node{doc.Elem("temp"), doc.Elem("exhibit", doc.Elem("title"), bad)}),
			`output of TimeOut: schema: /exhibit/block[1]/para[1]: data element contains non-text child "x"`},
		{c.IsOutputInstance("Nope", nil), `schema: function "Nope" is not declared`},
		{c.Validate(doc.Elem("report", doc.Elem("title"), doc.Elem("block", doc.Elem("heading")), doc.Elem("temp"), doc.Elem("temp"))),
			"schema: /report: children [title block temp temp] do not match content model title.block*.(Forecast|temp)"},
		{c.Validate(doc.Elem("report", doc.Elem("title"), doc.TextNode(" "), bad, doc.Elem("temp"))),
			`schema: /report/block[2]/para[1]: data element contains non-text child "x"`},
	} {
		if tc.err == nil || tc.err.Error() != tc.want {
			t.Errorf("error = %v\nwant    %s", tc.err, tc.want)
		}
	}
}
