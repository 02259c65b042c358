package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/schema"
)

// The tests below pin the boundary of what the executors may take from a
// successful static check: call-free subtrees the check covered are left
// alone, while parameter forests whose sub-check failed, and everything an
// invocation returns, are still rewritten and verified.

// TestUnvalidatedReturnStillVerified: with SkipValidation, a service
// returning a call-free element that violates the target is still refused
// by the executor's verification of the returned subtree.
func TestUnvalidatedReturnStillVerified(t *testing.T) {
	boxSchema := schema.MustParseText(`
root page
elem page = (Mk|box)
elem box = a.b
elem a = data
elem b = data
func Mk = data -> box
`, nil)
	boxTarget, err := schema.ParseTextShared(schema.NewShared(boxSchema.Table), `
root page
elem page = box
elem box = a.b
elem a = data
elem b = data
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		rw   func() *Rewriter
		root *doc.Node
		want string
	}{
		{
			name: "data element with element content",
			rw: func() *Rewriter {
				return paperRewriter(t, "title.date.temp.(TimeOut|exhibit*)",
					stubInvoker{"Get_Temp": ret(doc.Elem("temp", doc.Elem("bogus")))})
			},
			root: fig2doc(),
			want: `core: /newspaper[0]/temp[2]: element "bogus" where atomic data is required`,
		},
		{
			name: "structured element with a short word",
			rw: func() *Rewriter {
				return NewRewriterWithConfig(boxSchema, boxTarget, RewriterConfig{Depth: 2, Invoker: stubInvoker{"Mk": ret(doc.Elem("box", doc.Elem("a", doc.TextNode("x"))))}})
			},
			root: doc.Elem("page", doc.Call("Mk", doc.TextNode("m"))),
			want: `core: /page[0]/box[0]: rewriting finished on [a] which does not match a.b (mode safe, 1 calls made)`,
		},
	}
	for _, c := range cases {
		for _, degree := range []int{1, 4} {
			rw := c.rw()
			rw.ValidateReturns = false
			rw.Parallelism = degree
			_, err := rw.RewriteDocument(context.Background(), c.root.Clone(), Safe)
			if err == nil || err.Error() != c.want {
				t.Errorf("%s, degree %d: err = %v\nwant %s", c.name, degree, err, c.want)
			}
		}
	}
}

// TestRefusalTextBounded: a refusal of a word wider than maxListedLabels
// lists its first labels, names its length and the first child at which
// the content model stops matching, so its text does not grow with the
// width of the word: for the document word, an element's children and the
// executor's final verification alike. A word as wide as the cap is
// listed whole.
func TestRefusalTextBounded(t *testing.T) {
	const wide = 1000
	sender := schema.MustParseText(`
root page
elem page = (Mk|box)
elem box = a*.b
elem a = data
elem b = data
elem c = data
func Mk = data -> box
`, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), `
root page
elem page = box
elem box = a*.b
elem a = data
elem b = data
elem c = data
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	many := func(tail ...*doc.Node) []*doc.Node {
		kids := make([]*doc.Node, 0, wide+len(tail))
		for i := 0; i < wide; i++ {
			kids = append(kids, doc.Elem("a", doc.TextNode("x")))
		}
		return append(kids, tail...)
	}
	rewriter := func(inv Invoker) *Rewriter {
		rw := NewRewriterWithConfig(sender, target, RewriterConfig{Depth: 2, Invoker: inv})
		rw.ValidateReturns = false
		return rw
	}
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"document word", func() error {
			return rewriter(nil).CheckForest(many(), regex.Star(regex.Sym(sender.Table.Intern("b"))), Safe)
		}, "core: word [a a a a a a a a …] (length 1000) does not safe-rewrite into b* within depth 2: " +
			"the model stops matching at child 0 <a>"},
		{"element children", func() error {
			_, err := rewriter(stubInvoker{}).RewriteDocument(context.Background(),
				doc.Elem("page", doc.Elem("box", many(doc.Elem("b"), doc.Elem("c"))...)), Safe)
			return err
		}, "core: /page[0]/box[0]: children [a a a a a a a a …] (length 1002) do not safe-rewrite into a*.b within depth 2: " +
			"the model stops matching at child 1001 <c>"},
		{"final verification", func() error {
			inv := stubInvoker{"Mk": ret(doc.Elem("box", many()...))}
			_, err := rewriter(inv).RewriteDocument(context.Background(), doc.Elem("page", doc.Call("Mk", doc.TextNode("m"))), Safe)
			return err
		}, "core: /page[0]/box[0]: rewriting finished on [a a a a a a a a …] (length 1000) which does not match a*.b: " +
			"the word ends before the model does (mode safe, 1 calls made)"},
		{"a word as wide as the cap", func() error {
			_, err := rewriter(stubInvoker{}).RewriteDocument(context.Background(),
				doc.Elem("page", doc.Elem("box", doc.Elem("a"), doc.Elem("a"), doc.Elem("a"), doc.Elem("a"),
					doc.Elem("a"), doc.Elem("a"), doc.Elem("b"), doc.Elem("c"))), Safe)
			return err
		}, "core: /page[0]/box[0]: children [a a a a a a b c] do not safe-rewrite into a*.b within depth 2"},
	}
	for _, c := range cases {
		err := c.run()
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v\nwant %s", c.name, err, c.want)
		}
	}
}

// TestGeneratedDocumentsAcrossModes runs random generated documents through
// every mode at parallelism 1 and 4: every output is an instance of the
// target.
func TestGeneratedDocumentsAcrossModes(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		root := propDoc(rand.New(rand.NewSource(seed)), 1+int(seed%7))
		for _, degree := range []int{1, 4} {
			for _, mode := range []Mode{Safe, Possible, Mixed} {
				rw := propRewriter(t, degree)
				out, err := rw.RewriteDocument(context.Background(), root.Clone(), mode)
				if err != nil {
					t.Fatalf("seed %d degree %d mode %v: %v", seed, degree, mode, err)
				}
				if err := rw.Context().Validate(out); err != nil {
					t.Errorf("seed %d degree %d mode %v: output is no instance: %v", seed, degree, mode, err)
				}
			}
		}
	}
}

// TestGeneratedDocumentsEnginesAgree runs the same generated documents at
// parallelism 1 and 4, in every mode: every run agrees with the sequential
// one on the output tree and the audit order. Then it holds the eager word
// analyses to the lazy ones (LazySafe, and the test reference LazyPossible)
// on every word of those documents, under every target fuzzRewriter
// builds, with its function occurrences in turn free, kept (frozen) and
// returned by a call (depth 1).
func TestGeneratedDocumentsEnginesAgree(t *testing.T) {
	var pairs [16]*Compiled
	for forbid := range pairs {
		pairs[forbid] = fuzzRewriter(t, 1, uint8(forbid), false, nil).Compiled
	}
	for seed := int64(0); seed < 12; seed++ {
		root := propDoc(rand.New(rand.NewSource(seed)), 1+int(seed%7))
		for _, mode := range []Mode{Safe, Possible, Mixed} {
			var refOut *doc.Node
			var refAudit []string
			for _, degree := range []int{1, 4} {
				rw := propRewriter(t, degree)
				out, err := rw.RewriteDocument(context.Background(), root.Clone(), mode)
				if err != nil {
					t.Fatalf("seed %d degree %d mode %v: %v", seed, degree, mode, err)
				}
				if refOut == nil {
					refOut, refAudit = out, auditKeys(rw.Audit)
					continue
				}
				if !out.Equal(refOut) {
					t.Errorf("seed %d mode %v: degree %d output diverges\n%s\nsequential\n%s", seed, mode, degree, out, refOut)
				}
				if got := auditKeys(rw.Audit); !slices.Equal(got, refAudit) {
					t.Errorf("seed %d mode %v: degree %d audit diverges\n%v\nsequential\n%v", seed, mode, degree, got, refAudit)
				}
			}
		}
		var words func(n *doc.Node)
		words = func(n *doc.Node) {
			for forbid, c := range pairs {
				model := c.Target.Labels[n.Label]
				if model == nil || model.Content == nil {
					break // data, or foreign: no word
				}
				for v := 0; v < 3; v++ {
					tokens := TokensOf(c, n)
					for i := range tokens {
						if c.Func(tokens[i].Sym) != nil {
							tokens[i].Frozen = (i+v)%3 == 1
							tokens[i].Depth = ((i + v) % 3) / 2
						}
					}
					wordsAgree(t, c, tokens, model.Content, fmt.Sprintf("seed %d forbid %04b <%s> variant %d", seed, forbid, n.Label, v))
				}
			}
			for _, ch := range n.Children {
				if ch.Kind == doc.Element {
					words(ch)
				}
			}
		}
		words(root)
	}
}

// wordsAgree holds WordSafe to LazySafe and WordPossible to LazyPossible on
// one word at depth 2.
func wordsAgree(t *testing.T, c *Compiled, tokens []Token, model *regex.Regex, where string) {
	t.Helper()
	safe, err := WordSafe(c, tokens, model, 2)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	lazy, err := LazySafe(c, tokens, model, 2)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	possible, err := WordPossible(c, tokens, model, 2)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	lazyPossible, err := LazyPossible(c, tokens, model, 2)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if safe != lazy.Verdict || possible != lazyPossible.Verdict {
		t.Errorf("%s: safe %v, lazily %v; possible %v, lazily %v", where, safe, lazy.Verdict, possible, lazyPossible.Verdict)
	}
}

// TestErrorPathsAcrossDegrees pins NotSafeError.Path literally at
// parallelism 1 and 4, for failures at the document word, in a nested
// element, inside a function's parameter forest and in a data element. The
// whole message agrees across degrees too.
func TestErrorPathsAcrossDegrees(t *testing.T) {
	sec := func(kids ...*doc.Node) *doc.Node {
		return doc.Elem("sec", append([]*doc.Node{doc.Elem("ttl", doc.TextNode("t"))}, kids...)...)
	}
	hdr := doc.Elem("hdr", doc.TextNode("h"))
	cases := []struct {
		name string
		root *doc.Node
		path string
	}{
		{"document word", doc.Elem("hdr", doc.TextNode("h")), ""},
		{"root element text", doc.Elem("page", hdr.Clone(), doc.TextNode("stray")), "/page[0]"},
		{"nested element text", doc.Elem("page", hdr.Clone(), sec(), sec(doc.TextNode("stray"))), "/page[0]/sec[2]"},
		{"parameter forest", doc.Elem("page", hdr.Clone(),
			sec(doc.Call("Deep", doc.Elem("ttl", doc.Elem("x"))))), "/@Deep/ttl[0]"},
		{"data element", doc.Elem("page", hdr.Clone(), sec(),
			doc.Elem("sec", doc.Elem("ttl", doc.TextNode("t"), doc.Elem("x")))), "/page[0]/sec[2]/ttl[0]"},
	}
	for _, c := range cases {
		var first error
		for _, degree := range []int{1, 4} {
			rw := propRewriter(t, degree)
			_, err := rw.RewriteDocument(context.Background(), c.root.Clone(), Safe)
			var nse *NotSafeError
			if !errors.As(err, &nse) {
				t.Fatalf("%s, degree %d: want NotSafeError, got %v", c.name, degree, err)
			}
			if nse.Path != c.path {
				t.Errorf("%s, degree %d: path %q, want %q (%v)", c.name, degree, nse.Path, c.path, err)
			}
			if first == nil {
				first = err
			} else if err.Error() != first.Error() {
				t.Errorf("%s, degree %d: message differs:\n%v\nfirst run:\n%v", c.name, degree, err, first)
			}
		}
	}
}
