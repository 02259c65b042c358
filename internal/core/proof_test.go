package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/schema"
	"axml/internal/telemetry"
)

// The tests below pin the boundary of what the executors may take from a
// successful static check: call-free subtrees the check covered are left
// alone, while parameter forests whose sub-check failed, and everything an
// invocation returns, are still rewritten and verified.

// TestLenientFrozenParamsNeverInvoked: with LenientParams, a function whose
// call-free parameter forest fails its input type stays frozen: it never
// becomes a keep-or-invoke candidate and is never invoked, and its
// parameters are left as they were.
func TestLenientFrozenParamsNeverInvoked(t *testing.T) {
	for _, mode := range []Mode{Safe, Possible} {
		for _, degree := range []int{1, 4} {
			sender := schema.MustParseText(senderText, nil)
			target := targetSchema(t, sender, "title.date.(Get_Temp|temp).(TimeOut|exhibit*)")
			reg := telemetry.NewRegistry()
			inv := ContextInvokerFunc(func(_ context.Context, call *doc.Node) ([]*doc.Node, error) {
				t.Errorf("mode %v degree %d: %s invoked", mode, degree, call.Label)
				return nil, errors.New("unexpected call")
			})
			rw := NewRewriterWithConfig(sender, target, RewriterConfig{
				Invoker: inv, LenientParams: true, Parallelism: degree, Telemetry: reg,
			})
			root := doc.Elem("newspaper",
				doc.Elem("title", doc.TextNode("The Sun")),
				doc.Elem("date", doc.TextNode("04/10/2002")),
				doc.Call("Get_Temp", doc.Elem("date", doc.TextNode("not a city"))))
			want := root.Clone()
			out, err := rw.RewriteDocument(context.Background(), root, mode)
			if err != nil {
				t.Fatalf("mode %v degree %d: %v", mode, degree, err)
			}
			if !out.Equal(want) {
				t.Errorf("mode %v degree %d: frozen call or its parameters changed:\n%s", mode, degree, out)
			}
			if v, _ := reg.Value("axml_word_decisions_total", "decision", "keep"); v != 0 {
				t.Errorf("mode %v degree %d: %v keep decisions, want 0 (a frozen call is no candidate)", mode, degree, v)
			}
			if n := rw.Audit.Len(); n != 0 {
				t.Errorf("mode %v degree %d: %d calls audited", mode, degree, n)
			}
		}
	}
}

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

// TestGeneratedDocumentsEnginesAgree runs the same generated documents on
// the eager and lazy engines at parallelism 1 and 4, in every mode: every
// run agrees with the sequential eager one on the output tree and the audit
// order.
func TestGeneratedDocumentsEnginesAgree(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		root := propDoc(rand.New(rand.NewSource(seed)), 1+int(seed%7))
		for _, mode := range []Mode{Safe, Possible, Mixed} {
			var refOut *doc.Node
			var refAudit []string
			for _, engine := range []EngineKind{Eager, Lazy} {
				for _, degree := range []int{1, 4} {
					rw := propRewriter(t, degree)
					rw.Engine = engine
					out, err := rw.RewriteDocument(context.Background(), root.Clone(), mode)
					if err != nil {
						t.Fatalf("seed %d engine %d degree %d mode %v: %v", seed, engine, degree, mode, err)
					}
					if refOut == nil {
						refOut, refAudit = out, auditKeys(rw.Audit)
						continue
					}
					if !out.Equal(refOut) {
						t.Errorf("seed %d mode %v: engine %d degree %d output diverges\n%s\nsequential eager\n%s", seed, mode, engine, degree, out, refOut)
					}
					if got := auditKeys(rw.Audit); !slices.Equal(got, refAudit) {
						t.Errorf("seed %d mode %v: engine %d degree %d audit diverges\n%v\nsequential eager\n%v", seed, mode, engine, degree, got, refAudit)
					}
				}
			}
		}
	}
}

// TestErrorPathsBothEngines pins NotSafeError.Path literally on the eager
// and lazy engines, at parallelism 1 and 4, for failures at the document
// word, in a nested element, inside a function's parameter forest and in a
// data element. The whole message agrees across engines and degrees too.
func TestErrorPathsBothEngines(t *testing.T) {
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
		for _, engine := range []EngineKind{Eager, Lazy} {
			for _, degree := range []int{1, 4} {
				rw := propRewriter(t, degree)
				rw.Engine = engine
				_, err := rw.RewriteDocument(context.Background(), c.root.Clone(), Safe)
				var nse *NotSafeError
				if !errors.As(err, &nse) {
					t.Fatalf("%s, engine %d, degree %d: want NotSafeError, got %v", c.name, engine, degree, err)
				}
				if nse.Path != c.path {
					t.Errorf("%s, engine %d, degree %d: path %q, want %q (%v)", c.name, engine, degree, nse.Path, c.path, err)
				}
				if first == nil {
					first = err
				} else if err.Error() != first.Error() {
					t.Errorf("%s, engine %d, degree %d: message differs:\n%v\nfirst run:\n%v", c.name, engine, degree, err, first)
				}
			}
		}
	}
}
