package xmlio

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"unicode/utf8"

	"axml/internal/doc"
)

// The fuzz targets below seed from testdata/fuzz/<target>/ (fixtures of the
// repository, documents and schemas of internal/workload) and run as
// ordinary tests on that corpus; `go test -fuzz <target>` searches further.

// chunkReader returns at most n bytes per Read, so the tokenizer's window
// ends mid-token and must be refilled.
type chunkReader struct {
	b []byte
	n int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	k := copy(p[:min(len(p), r.n)], r.b)
	r.b = r.b[k:]
	return k, nil
}

// maxFuzzInput bounds the inputs the quadratic-free but chunked refill path
// is exercised on, keeping one fuzz iteration fast.
const maxFuzzInput = 64 << 10

// tokenString renders a token for comparison. Directives are compared by
// content only when they embed no comment: encoding/xml replaces embedded
// comments with a space, the tokenizer keeps the raw bytes.
func tokenString(tok *Token) string {
	switch tok.Kind {
	case KindStart:
		var b strings.Builder
		fmt.Fprintf(&b, "S{%s}%s", tok.Space, tok.Local)
		for _, a := range tok.Attr {
			fmt.Fprintf(&b, " {%s}%s=%q", a.Space, a.Local, a.Value)
		}
		return b.String()
	case KindEnd:
		return fmt.Sprintf("E{%s}%s", tok.Space, tok.Local)
	case KindText:
		return fmt.Sprintf("T%q", tok.Data)
	case KindComment:
		return fmt.Sprintf("C%q", tok.Data)
	case KindProcInst:
		return fmt.Sprintf("P%s %q", tok.Local, tok.Data)
	case KindDirective:
		if bytes.Contains(tok.Data, []byte("<!--")) {
			return "D*"
		}
		return fmt.Sprintf("D%q", tok.Data)
	}
	return fmt.Sprintf("?%d", tok.Kind)
}

func refTokenString(tok xml.Token) string {
	switch t := tok.(type) {
	case xml.StartElement:
		var b strings.Builder
		fmt.Fprintf(&b, "S{%s}%s", t.Name.Space, t.Name.Local)
		for _, a := range t.Attr {
			fmt.Fprintf(&b, " {%s}%s=%q", a.Name.Space, a.Name.Local, a.Value)
		}
		return b.String()
	case xml.EndElement:
		return fmt.Sprintf("E{%s}%s", t.Name.Space, t.Name.Local)
	case xml.CharData:
		return fmt.Sprintf("T%q", []byte(t))
	case xml.Comment:
		return fmt.Sprintf("C%q", []byte(t))
	case xml.ProcInst:
		return fmt.Sprintf("P%s %q", t.Target, t.Inst)
	case xml.Directive:
		return fmt.Sprintf("D%q", []byte(t))
	}
	return fmt.Sprintf("?%T", tok)
}

// tokenize runs a tokenizer to the end, returning the rendered tokens and
// the final error (nil at a clean end of input).
func tokenize(tz *Tokenizer) (toks []string, err error) {
	defer tz.Close()
	for {
		tok, err := tz.Next()
		if err == io.EOF {
			return toks, nil
		}
		if err != nil {
			return toks, err
		}
		toks = append(toks, tokenString(tok))
	}
}

// isDepthError reports the tokenizer's nesting-bound error.
func isDepthError(err error) bool {
	var se *xml.SyntaxError
	return errors.As(err, &se) && strings.Contains(se.Msg, "nesting exceeds")
}

// FuzzTokenizer: the tokenizer makes encoding/xml's accept/reject decision
// and returns its token stream, up to the nesting bound, both over a whole
// slice and over a window refilled in small chunks.
func FuzzTokenizer(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := tokenize(NewBytesTokenizer(data))

		dec := xml.NewDecoder(bytes.NewReader(data))
		var want []string
		var refErr error
		for len(want) <= len(got) {
			tok, err := dec.Token()
			if err == io.EOF {
				break
			}
			if err != nil {
				refErr = err
				break
			}
			want = append(want, refTokenString(tok))
		}
		if isDepthError(err) {
			// encoding/xml has no bound: only the prefix must agree.
			if len(want) < len(got) {
				t.Fatalf("depth error after %d tokens, encoding/xml gave %d", len(got), len(want))
			}
			want = want[:len(got)]
		} else if (err == nil) != (refErr == nil) {
			t.Fatalf("tokenizer err = %v, encoding/xml err = %v", err, refErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%d tokens, encoding/xml %d\ngot  %q\nwant %q", len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] && !(got[i] == "D*" && strings.HasPrefix(want[i], "D")) {
				t.Fatalf("token %d: got %s, encoding/xml %s", i, got[i], want[i])
			}
		}

		if len(data) > maxFuzzInput {
			return
		}
		chunked, cerr := tokenize(NewTokenizer(&chunkReader{b: data, n: 1 + len(data)%13}))
		if (cerr == nil) != (err == nil) || strings.Join(chunked, "\n") != strings.Join(got, "\n") {
			t.Fatalf("refilled window diverges: err %v vs %v\n%q\nvs\n%q", cerr, err, chunked, got)
		}
	})
}

// FuzzParse: Parse builds the tree the encoding/xml-based reference builds
// wherever both accept, and rejects only what the reference rejects plus
// content after the root element and nesting beyond MaxDepth.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ParseBytes(data)
		if len(data) <= maxFuzzInput {
			got2, err2 := Parse(&chunkReader{b: data, n: 1 + len(data)%13})
			if (err == nil) != (err2 == nil) || err == nil && !got.Equal(got2) {
				t.Fatalf("Parse and ParseBytes disagree: %v vs %v", err2, err)
			}
		}
		if isDepthError(err) {
			return // the reference would recurse without bound
		}
		want, dec, refErr := refParse(data)
		switch {
		case refErr != nil && err == nil:
			t.Fatalf("accepted what the reference rejects (%v):\n%s", refErr, got)
		case refErr == nil && err != nil:
			if refTrailing(dec) {
				t.Fatalf("rejected a document the reference accepts: %v", err)
			}
		case refErr == nil && !got.Equal(want):
			t.Fatalf("trees differ:\n%s\nreference:\n%s", got, want)
		}
	})
}

// FuzzWriteFixpoint: Write's output parses, and parse-then-write reaches a
// fixpoint by the second round. (The first round may merge adjacent text
// nodes that Write puts on separate lines.) Documents are single-namespace
// trees: a prefixed name keeps only its local part, which need not be a name
// on its own (<p:0/>), and such a tree has no XML form to write.
func FuzzWriteFixpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := ParseBytes(data)
		if err != nil || !namedLabels(n) {
			return
		}
		round := func(n *doc.Node) (string, *doc.Node) {
			s := MustString(n)
			back, err := ParseString(s)
			if err != nil {
				t.Fatalf("Write output does not parse: %v\n%s", err, s)
			}
			return s, back
		}
		_, n1 := round(n)
		w2, n2 := round(n1)
		w3, _ := round(n2)
		if w2 != w3 {
			t.Fatalf("no fixpoint:\n%s\nvs\n%s", w2, w3)
		}
	})
}

// FuzzWriteText: for any text or attribute value, Write emits a document
// Parse accepts. A lone text child comes back as the input with every
// rune XML cannot carry replaced by U+FFFD, then trimmed of the white space
// the parser drops.
func FuzzWriteText(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		s := MustString(doc.Elem("a", doc.TextNode(v)))
		back, err := ParseString(s)
		if err != nil {
			t.Fatalf("text %q: written document does not parse: %v\n%s", v, err, s)
		}
		want := strings.TrimSpace(xmlSafe(v))
		got := ""
		if len(back.Children) == 1 {
			got = back.Children[0].Value
		}
		if len(back.Children) > 1 || got != want {
			t.Fatalf("text %q came back as %q, want %q", v, back.Children, want)
		}
		s = MustString(doc.Elem("a", doc.CallAt(doc.ServiceRef{Endpoint: v, Method: "m" + v, Namespace: v})))
		if _, err := ParseString(s); err != nil {
			t.Fatalf("attribute %q: written document does not parse: %v\n%s", v, err, s)
		}
		var esc, ref strings.Builder
		(&printer{b: &esc}).escape(v)
		_ = xml.EscapeText(&ref, []byte(v))
		if esc.String() != ref.String() {
			t.Fatalf("escape(%q) = %q, xml.EscapeText gives %q", v, esc.String(), ref.String())
		}
		if app := AppendEscaped([]byte("<"), v); string(app[1:]) != ref.String() || app[0] != '<' {
			t.Fatalf("AppendEscaped(%q) = %q, xml.EscapeText gives %q", v, app, ref.String())
		}
	})
}

// xmlSafe replaces every rune of s that XML cannot carry — invalid UTF-8,
// and code points outside the XML Char production — with U+FFFD.
func xmlSafe(s string) string {
	var b strings.Builder
	for i, r := range s {
		_, w := utf8.DecodeRuneInString(s[i:])
		ok := r == '\t' || r == '\n' || r == '\r' ||
			(r >= 0x20 && r <= 0xD7FF) || (r >= 0xE000 && r <= 0xFFFD) || r >= 0x10000
		if !ok || (r == utf8.RuneError && w == 1) {
			r = utf8.RuneError
		}
		b.WriteRune(r)
	}
	return b.String()
}

// namedLabels reports whether every element label of n is an XML name.
func namedLabels(n *doc.Node) bool {
	if n.Kind == doc.Element && (n.Label == "" || !isName([]byte(n.Label))) {
		return false
	}
	for _, c := range n.Children {
		if !namedLabels(c) {
			return false
		}
	}
	return true
}
