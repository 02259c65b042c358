package xmlio

import (
	"encoding/xml"
	"fmt"
	"strings"
	"sync"
	"testing"

	"axml/internal/doc"
)

// paperXML is the example document from Section 7 of the paper (with the
// closing-tag typo of the original fixed).
const paperXML = `<?xml version="1.0"?>
<newspaper xmlns:int="http://www.activexml.com/ns/int">
  <title> The Sun </title>
  <date> 04/10/2002 </date>
  <int:fun endpointURL="http://www.forecast.com/soap" methodName="Get_Temp" namespaceURI="urn:xmethods-weather">
    <int:params>
      <int:param>
        <city>Paris</city>
      </int:param>
    </int:params>
  </int:fun>
  <int:fun endpointURL="http://www.timeout.com/paris" methodName="TimeOut" namespaceURI="urn:timeout-program">
    <int:params>
      <int:param> exhibits </int:param>
    </int:params>
  </int:fun>
</newspaper>
`

func TestParsePaperDocument(t *testing.T) {
	n, err := ParseString(paperXML)
	if err != nil {
		t.Fatal(err)
	}
	if n.Label != "newspaper" || n.Kind != doc.Element {
		t.Fatalf("root = %v %q", n.Kind, n.Label)
	}
	if len(n.Children) != 4 {
		t.Fatalf("children = %d want 4", len(n.Children))
	}
	gt := n.Children[2]
	if gt.Kind != doc.Func || gt.Label != "Get_Temp" {
		t.Fatalf("third child = %v %q", gt.Kind, gt.Label)
	}
	if gt.Service == nil || gt.Service.Endpoint != "http://www.forecast.com/soap" ||
		gt.Service.Namespace != "urn:xmethods-weather" {
		t.Errorf("service ref = %+v", gt.Service)
	}
	if len(gt.Children) != 1 || gt.Children[0].Label != "city" {
		t.Errorf("Get_Temp params = %v", gt.Children)
	}
	if gt.Children[0].Children[0].Value != "Paris" {
		t.Errorf("city value wrong")
	}
	to := n.Children[3]
	if to.Kind != doc.Func || len(to.Children) != 1 || to.Children[0].Kind != doc.Text {
		t.Errorf("TimeOut params = %v", to.Children)
	}
	if to.Children[0].Value != "exhibits" {
		t.Errorf("TimeOut param = %q", to.Children[0].Value)
	}
}

func TestRoundTrip(t *testing.T) {
	orig, err := ParseString(paperXML)
	if err != nil {
		t.Fatal(err)
	}
	s, err := String(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(s)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, s)
	}
	if !orig.Equal(back) {
		t.Errorf("round trip changed the document:\n%s\nvs\n%s", orig, back)
	}
	if !strings.Contains(s, `xmlns:int="http://www.activexml.com/ns/int"`) {
		t.Error("namespace declaration missing")
	}
}

func TestRoundTripPureData(t *testing.T) {
	n := doc.Elem("a", doc.Elem("b", doc.TextNode("x")), doc.Elem("c"))
	s, err := String(n)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(s, "xmlns:int") {
		t.Error("namespace declared on a purely extensional document")
	}
	back, err := ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Equal(back) {
		t.Error("round trip changed the document")
	}
}

func TestFunWithoutService(t *testing.T) {
	n := doc.Elem("root", doc.Call("F", doc.TextNode("p")))
	s, err := String(n)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	f := back.Children[0]
	if f.Kind != doc.Func || f.Label != "F" {
		t.Fatalf("func lost: %v", back)
	}
	if len(f.Children) != 1 || f.Children[0].Value != "p" {
		t.Errorf("params lost: %v", f.Children)
	}
}

func TestMultiNodeParam(t *testing.T) {
	// One int:param wrapping two elements contributes two parameter nodes.
	src := `<r xmlns:int="http://www.activexml.com/ns/int">
	  <int:fun methodName="F"><int:params>
	    <int:param><a/><b/></int:param>
	  </int:params></int:fun></r>`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	f := n.Children[0]
	if len(f.Children) != 2 || f.Children[0].Label != "a" || f.Children[1].Label != "b" {
		t.Errorf("params = %v", f.Children)
	}
}

func TestEscaping(t *testing.T) {
	n := doc.Elem("a", doc.TextNode(`<&>"special"`))
	s, err := String(n)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(s)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, s)
	}
	if back.Children[0].Value != `<&>"special"` {
		t.Errorf("escaping broke text: %q", back.Children[0].Value)
	}
}

// unrepresentable lists strings XML cannot carry verbatim: C0 controls, DEL
// (which XML does allow), invalid UTF-8 and the noncharacters U+FFFE/U+FFFF,
// alone, mixed with markup, and straddling the printer's eight-byte steps.
var unrepresentable = []string{
	"a\x01b", "tab\x01bed", "\x00", "\x1f", "\x0b\x0c", "a\x01<b",
	"del\x7f", "bad\xffutf8", "\xc3", "\xe2\x82", "\xed\xa0\x80",
	"\xef\xbf\xbe", "\xef\xbf\xbf", "x\uFFFDy", "\x80\x81",
	"clean ascii run!\x02", "1234567\xff", "12345678\x01", "1234567é",
	"ok\t\n\r", "\u00a0nbsp\u0085", "1234567\xef\xbf\xbe tail",
}

// TestWriteEscapesUnrepresentable: whatever a text or attribute value holds,
// Write emits a document Parse accepts, and the printer's escaping is byte
// for byte xml.EscapeText's.
func TestWriteEscapesUnrepresentable(t *testing.T) {
	for _, v := range unrepresentable {
		text := doc.Elem("a", doc.TextNode(v))
		attr := doc.Elem("a", doc.CallAt(doc.ServiceRef{Endpoint: v, Method: "m" + v, Namespace: v}))
		for _, n := range []*doc.Node{text, attr} {
			s, err := String(n)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ParseString(s); err != nil {
				t.Errorf("%q: written document does not parse: %v\n%s", v, err, s)
			}
		}
		var got, want strings.Builder
		(&printer{b: &got}).escape(v)
		if err := xml.EscapeText(&want, []byte(v)); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("escape(%q) = %q, xml.EscapeText gives %q", v, got.String(), want.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		``,
		`text only`,
		`<a>`,
		`<a></b>`,
		`<r xmlns:int="http://www.activexml.com/ns/int"><int:fun/></r>`,                             // no methodName
		`<r xmlns:int="http://www.activexml.com/ns/int"><int:params/></r>`,                          // params outside fun
		`<r xmlns:int="http://www.activexml.com/ns/int"><int:fun methodName="f"><x/></int:fun></r>`, // non-params inside fun
		`<r xmlns:int="http://www.activexml.com/ns/int"><int:fun methodName="f">text</int:fun></r>`,
		`<r xmlns:int="http://www.activexml.com/ns/int"><int:fun methodName="f"><int:params><a/></int:params></int:fun></r>`,
	} {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) should fail", src)
		}
	}
}

func TestWhitespaceHandling(t *testing.T) {
	n, err := ParseString("<a>\n  <b>  hello  </b>\n  <c/>\n</a>")
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Children) != 2 {
		t.Fatalf("whitespace text kept: %v", n.Children)
	}
	if n.Children[0].Children[0].Value != "hello" {
		t.Errorf("text not trimmed: %q", n.Children[0].Children[0].Value)
	}
}

func TestEmptyElements(t *testing.T) {
	n := doc.Elem("a", doc.Elem("empty"), doc.Call("F"))
	s, err := String(n)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "<empty/>") || !strings.Contains(s, "<int:fun") {
		t.Errorf("self-closing rendering wrong:\n%s", s)
	}
	back, err := ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Equal(back) {
		t.Error("round trip changed the document")
	}
}

// TestParseRejectsContentAfterRoot: a document is one root element; only
// white space, comments and processing instructions may follow it.
func TestParseRejectsContentAfterRoot(t *testing.T) {
	for _, tc := range []struct {
		src string
		ok  bool
	}{
		{"<a/><b/>", false},
		{"<a>x</a>junk<", false},
		{"<a/></b>", false},
		{"<a/>&bogus;", false},
		{"<a/>text", false},
		{"<a/><!DOCTYPE a>", false},
		{`<int:fun xmlns:int="http://www.activexml.com/ns/int" methodName="F"/><x/>`, false},
		{"<a/>", true},
		{" <a/> \r\n\t", true},
		{"<a/>\n<!-- c -->\n<?pi x?>\n", true},
	} {
		_, err := ParseString(tc.src)
		if (err == nil) != tc.ok {
			t.Errorf("ParseString(%q) err = %v, want ok=%v", tc.src, err, tc.ok)
		}
		_, err = ParseBytes([]byte(tc.src))
		if (err == nil) != tc.ok {
			t.Errorf("ParseBytes(%q) err = %v, want ok=%v", tc.src, err, tc.ok)
		}
	}
}

// TestParseNestingBound: MaxDepth levels parse; one more is an error, not a
// stack overflow, however deep the input goes.
func TestParseNestingBound(t *testing.T) {
	nest := func(n int) string {
		return strings.Repeat("<a>", n) + strings.Repeat("</a>", n)
	}
	if _, err := ParseString(nest(MaxDepth)); err != nil {
		t.Fatalf("depth %d: %v", MaxDepth, err)
	}
	for _, src := range []string{nest(MaxDepth + 1), strings.Repeat("<a>", 1<<20)} {
		if _, err := ParseString(src); err == nil || !strings.Contains(err.Error(), "nesting") {
			t.Errorf("depth beyond %d: err = %v", MaxDepth, err)
		}
	}
}

// TestNameTablesMatchEncodingXML: names with non-ASCII characters are
// accepted exactly where encoding/xml accepts them, as the first character
// and as a later one, across the Basic Multilingual Plane.
func TestNameTablesMatchEncodingXML(t *testing.T) {
	accepts := func(src string) (mine, ref bool) {
		tz := NewBytesTokenizer([]byte(src))
		_, err := tz.Next()
		tz.Close()
		_, rerr := xml.NewDecoder(strings.NewReader(src)).Token()
		return err == nil, rerr == nil
	}
	for r := rune(0x80); r <= 0xFFFF; r++ {
		if r >= 0xD800 && r <= 0xDFFF {
			continue
		}
		for _, src := range []string{"<" + string(r) + "/>", "<a" + string(r) + "/>"} {
			if mine, ref := accepts(src); mine != ref {
				t.Fatalf("%q: tokenizer accepts=%v, encoding/xml accepts=%v", src, mine, ref)
			}
		}
	}
}

// TestParseConcurrent: parsers share pooled tokenizers and builders; parses
// running at once must not see each other's state.
func TestParseConcurrent(t *testing.T) {
	want, err := ParseString(paperXML)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var got *doc.Node
				var err error
				switch i % 3 {
				case 0:
					got, err = ParseString(paperXML)
				case 1:
					got, err = ParseBytes([]byte(paperXML))
				default:
					got, err = Parse(&chunkReader{b: []byte(paperXML), n: 1 + i%13})
				}
				if err != nil || !got.Equal(want) {
					t.Errorf("concurrent parse: err %v, equal %v", err, got.Equal(want))
					return
				}
				if _, err := ParseString("<a/><b/>"); err == nil {
					t.Error("concurrent parse accepted a second root")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDeclarationAllocations: an <?xml?> declaration is checked in place,
// so tokenizing a document with one allocates no more than tokenizing the
// same document without it.
func TestDeclarationAllocations(t *testing.T) {
	const body = `<a><b>x</b><c k="v"/></a>`
	allocs := func(src string) float64 {
		tz, b := new(Tokenizer), []byte(src)
		return testing.AllocsPerRun(100, func() {
			tz.reset(b, nil)
			for {
				if _, err := tz.Next(); err != nil {
					break
				}
			}
		})
	}
	for _, decl := range []string{
		`<?xml version="1.0" encoding="UTF-8"?>`,
		`<?xml version='1.0'?>`,
		"<?xml version=\"1.0\" encoding='utf-8' standalone=\"yes\"?>\n",
	} {
		if with, without := allocs(decl+body), allocs(body); with > without {
			t.Errorf("%s: %v allocations with the declaration, %v without", decl, with, without)
		}
	}
}

// TestParseAllocations: a parse costs its slabs, not an allocation per
// node. Nodes, child lists and text values are carved from per-parse
// slabs, and an <int:fun> without an endpoint or a namespace takes no
// ServiceRef, so BenchmarkParse's 64 KiB document (986 allocations when
// each text node and each call took one of its own) takes at most 40, and
// ten times its blocks add slabs only.
func TestParseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := ParseBytes(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs(benchDoc(360))
	if small > 40 {
		t.Errorf("parsing the 64 KiB document = %v allocations, want at most 40", small)
	}
	data := benchDoc(3600)
	d, err := ParseBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	// A slab holds up to 256 nodes, 256 child pointers or 16 KiB of text.
	want := small + 2*float64(d.Count())/maxSlab + float64(len(data))/maxText
	large := allocs(data)
	t.Logf("64 KiB document: %v allocations; %d nodes in %d bytes: %v", small, d.Count(), len(data), large)
	if large > want {
		t.Errorf("parsing %d nodes in %d bytes = %v allocations, want at most %.0f", d.Count(), len(data), large, want)
	}
}

// TestParsedTextSurvivesReuse: a parsed tree's text values are strings of
// their own, not views of the pooled builder's text slab, so a slab
// written by later parses, in sequence or from other goroutines, leaves
// every kept tree as a fresh parse of its bytes reads it. The documents'
// text crosses the slab's bound, and some runs are long enough to take a
// string of their own.
func TestParsedTextSurvivesReuse(t *testing.T) {
	inputs := make([][]byte, 24)
	want := make([]*doc.Node, len(inputs))
	for i := range inputs {
		root := doc.Elem("page")
		for j := 0; j < 20+i*5; j++ {
			text := fmt.Sprintf("doc %d text %d ", i, j) + strings.Repeat(string(rune('a'+(i+j)%26)), (i*31+j*17)%300)
			if j%29 == 0 {
				text += strings.Repeat("long ", maxText/16)
			}
			blk := doc.Elem("block", doc.Elem("para", doc.TextNode(text)))
			if j%5 == 0 {
				blk.Children = append(blk.Children, doc.CallAt(doc.ServiceRef{Method: "F", Endpoint: fmt.Sprint("http://peer", i%3)},
					doc.Elem("key", doc.TextNode(fmt.Sprint("k", i, j)))))
			}
			root.Children = append(root.Children, blk)
		}
		inputs[i] = []byte(MustString(root))
		var err error
		if want[i], _, err = refParse(inputs[i]); err != nil {
			t.Fatal(err)
		}
	}
	parse := func(k int) (*doc.Node, error) {
		if k%2 == 0 {
			return ParseBytes(inputs[k])
		}
		return Parse(&chunkReader{b: inputs[k], n: 61 * k})
	}
	check := func(kept []*doc.Node) {
		for k, got := range kept {
			if !got.Equal(want[k]) {
				t.Errorf("document %d changed after later parses", k)
			}
		}
	}
	kept := make([]*doc.Node, len(inputs))
	for k := range inputs {
		d, err := parse(k)
		if err != nil {
			t.Fatal(err)
		}
		kept[k] = d
	}
	check(kept)

	var wg sync.WaitGroup
	trees := make([][]*doc.Node, 4)
	for g := range trees {
		wg.Add(1)
		go func() {
			defer wg.Done()
			trees[g] = make([]*doc.Node, len(inputs))
			for i := range inputs {
				k := (i + g*7) % len(inputs)
				d, err := parse(k)
				if err != nil {
					t.Error(err)
					return
				}
				trees[g][k] = d
			}
		}()
	}
	wg.Wait()
	for _, kept := range trees {
		check(kept)
	}
}
