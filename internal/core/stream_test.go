package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"axml/internal/doc"
	"axml/internal/schema"
	"axml/internal/xmlio"
)

// pureInvoker is a deterministic, concurrency-safe invoker: the result is a
// pure function of the call's name and first text parameter, so tree and
// streaming runs over clones of one document receive identical answers.
type pureInvoker struct {
	mu    sync.Mutex
	calls []string
	// out maps function names to the label of the single element returned;
	// "page" results carry a conforming hdr child instead of text.
	out map[string]string
}

func newPureInvoker() *pureInvoker {
	return &pureInvoker{out: map[string]string{
		"Get": "val", "Deep": "val", "MkTtl": "ttl",
		"Stamp": "stamp", "Note": "note", "Mk": "page",
	}}
}

func firstText(n *doc.Node) string {
	if n.Kind == doc.Text {
		return n.Value
	}
	for _, c := range n.Children {
		if v := firstText(c); v != "" {
			return v
		}
	}
	return ""
}

func (p *pureInvoker) Invoke(_ context.Context, call *doc.Node) ([]*doc.Node, error) {
	label, ok := p.out[call.Label]
	if !ok {
		return nil, errors.New("pureInvoker: no result shape for " + call.Label)
	}
	key := call.Label + ":" + firstText(call)
	p.mu.Lock()
	p.calls = append(p.calls, key)
	p.mu.Unlock()
	if label == "page" {
		return []*doc.Node{doc.Elem("page", doc.Elem("hdr", doc.TextNode(key)))}, nil
	}
	return []*doc.Node{doc.Elem(label, doc.TextNode(key))}, nil
}

func (p *pureInvoker) sorted() []string {
	p.mu.Lock()
	out := append([]string(nil), p.calls...)
	p.mu.Unlock()
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// propSenderText is the sender schema of the streaming property tests: a
// page of sections whose content mixes plain elements, directly invocable
// functions, and a function (Deep) whose parameters need a nested call.
const propSenderText = `
root page
elem page = hdr.sec*.ftr*
elem hdr = data
elem ftr = (Stamp|stamp)
elem stamp = data
elem sec = ttl.(Get|val|Deep)*.sub*
elem ttl = data
elem sub = (Get|val).(Note|note)
elem note = data
elem val = data
func Get = data -> val
func Deep = ttl -> val
func MkTtl = data -> ttl
func Stamp = data -> stamp
func Note = data -> note
func Mk = data -> page
`

// propTargetText strips every function alternative out of the content
// models, making the target streamable: functions can only be invoked.
func propTargetText() string {
	r := strings.NewReplacer(
		"(Stamp|stamp)", "stamp",
		"(Get|val|Deep)*", "val*",
		"(Get|val).(Note|note)", "val.note",
	)
	return r.Replace(propSenderText)
}

func propRewriter(t *testing.T, degree int) (*Rewriter, *pureInvoker) {
	t.Helper()
	sender := schema.MustParseText(propSenderText, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), propTargetText(), nil)
	if err != nil {
		t.Fatal(err)
	}
	inv := newPureInvoker()
	rw := NewRewriterForConfig(Compile(sender, target), RewriterConfig{
		Depth: 2, Invoker: inv, Parallelism: degree,
	})
	return rw, inv
}

// propDoc builds a random page instance: every random choice flows from rng,
// so a seed fully determines the document.
func propDoc(rng *rand.Rand, secs int) *doc.Node {
	kids := []*doc.Node{doc.Elem("hdr", doc.TextNode("h"))}
	for i := 0; i < secs; i++ {
		sk := []*doc.Node{doc.Elem("ttl", doc.TextNode(fmt.Sprintf("t%d", i)))}
		for j, m := 0, rng.Intn(4); j < m; j++ {
			switch rng.Intn(3) {
			case 0:
				sk = append(sk, doc.Call("Get", doc.TextNode(fmt.Sprintf("g%d.%d", i, j))))
			case 1:
				sk = append(sk, doc.Call("Deep", doc.Call("MkTtl", doc.TextNode(fmt.Sprintf("d%d.%d", i, j)))))
			default:
				sk = append(sk, doc.Elem("val", doc.TextNode("v")))
			}
		}
		for s, m := 0, rng.Intn(3); s < m; s++ {
			var first, second *doc.Node
			if rng.Intn(2) == 0 {
				first = doc.Call("Get", doc.TextNode(fmt.Sprintf("s%d.%d", i, s)))
			} else {
				first = doc.Elem("val", doc.TextNode("v"))
			}
			if rng.Intn(2) == 0 {
				second = doc.Call("Note", doc.TextNode(fmt.Sprintf("n%d.%d", i, s)))
			} else {
				second = doc.Elem("note", doc.TextNode("n"))
			}
			sk = append(sk, doc.Elem("sub", first, second))
		}
		kids = append(kids, doc.Elem("sec", sk...))
	}
	if rng.Intn(2) == 0 {
		if rng.Intn(2) == 0 {
			kids = append(kids, doc.Elem("ftr", doc.Call("Stamp", doc.TextNode("f"))))
		} else {
			kids = append(kids, doc.Elem("ftr", doc.Elem("stamp", doc.TextNode("s"))))
		}
	}
	return doc.Elem("page", kids...)
}

func auditKeys(a *Audit) []string {
	calls := a.Calls()
	out := make([]string, len(calls))
	for i, c := range calls {
		out[i] = fmt.Sprintf("%s/d%d/n%d", c.Func, c.Depth, c.ResultNodes)
	}
	return out
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// streamVsTree runs one document through the tree engine plus batch
// serialization and through RewriteDocumentStream, demanding the same
// verdict; on success, byte-identical output and identical audit trails.
// The tree-side reference bytes come from xmlio.Write, so the fallback
// path's WriteTo is cross-checked against the original serializer too.
func streamVsTree(t *testing.T, mk func() *Rewriter, root *doc.Node, mode Mode) *StreamResult {
	t.Helper()
	ctx := context.Background()
	rwT := mk()
	outT, errT := rwT.RewriteDocument(ctx, root.Clone(), mode)
	var want bytes.Buffer
	if errT == nil {
		if err := xmlio.Write(&want, outT); err != nil {
			t.Fatal(err)
		}
	}
	rwS := mk()
	var got bytes.Buffer
	res, errS := rwS.RewriteDocumentStream(ctx, root.Clone(), &got, mode)
	if (errT == nil) != (errS == nil) {
		t.Fatalf("mode %v: verdict diverged: tree err=%v, stream err=%v", mode, errT, errS)
	}
	if errT != nil {
		return res
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("mode %v: output diverged\n--- tree ---\n%s\n--- stream ---\n%s", mode, want.Bytes(), got.Bytes())
	}
	if tk, sk := auditKeys(rwT.Audit), auditKeys(rwS.Audit); !eqStrings(tk, sk) {
		t.Fatalf("mode %v: audit diverged\ntree:   %v\nstream: %v", mode, tk, sk)
	}
	return res
}

// streamableFigSchemas builds the Figure 2 rewriter over a target whose
// content models admit no function symbol: schema (**) with the TimeOut
// alternative dropped from newspaper and Get_Date dropped from exhibit.
func streamableFigRewriter(t *testing.T, inv Invoker) *Rewriter {
	t.Helper()
	text := strings.NewReplacer(
		"elem newspaper = title.date.(Get_Temp|temp).(TimeOut|exhibit*)",
		"elem newspaper = title.date.temp.exhibit*",
		"elem exhibit = title.(Get_Date|date)",
		"elem exhibit = title.date",
	).Replace(senderText)
	sender := schema.MustParseText(senderText, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), text, nil)
	if err != nil {
		t.Fatal(err)
	}
	rw := NewRewriterWithConfig(sender, target, RewriterConfig{Depth: 2, Invoker: inv})
	rw.Audit = &Audit{}
	return rw
}

// TestStreamFig2Streamed: the paper's document, minus the kept TimeOut call,
// streams against a function-free target and invokes exactly Get_Temp.
func TestStreamFig2Streamed(t *testing.T) {
	root := doc.Elem("newspaper",
		doc.Elem("title", doc.TextNode("The Sun")),
		doc.Elem("date", doc.TextNode("04/10/2002")),
		doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))),
	)
	mk := func() *Rewriter {
		return streamableFigRewriter(t, stubInvoker{
			"Get_Temp": ret(doc.Elem("temp", doc.TextNode("15"))),
		})
	}
	if ok, reason := mk().CanStream(Safe); !ok {
		t.Fatalf("expected streamable configuration, got fallback %q", reason)
	}
	res := streamVsTree(t, mk, root, Safe)
	if !res.Streamed {
		t.Fatalf("expected streamed execution, got fallback %q", res.FallbackReason)
	}
	if res.Calls != 1 {
		t.Errorf("calls = %d, want 1", res.Calls)
	}
	if res.PeakBufferedNodes == 0 || res.BytesWritten == 0 {
		t.Errorf("missing stream accounting: %+v", res)
	}
}

// TestStreamFig2FallbackTarget: schema (**) itself admits TimeOut in the
// newspaper content model, so streaming falls back — with identical output.
func TestStreamFig2FallbackTarget(t *testing.T) {
	mk := func() *Rewriter {
		return paperRewriter(t, "title.date.temp.(TimeOut|exhibit*)", stubInvoker{
			"Get_Temp": ret(doc.Elem("temp", doc.TextNode("15"))),
		})
	}
	if mk().Compiled.StreamableTarget() {
		t.Fatal("target admitting TimeOut must not be streamable")
	}
	res := streamVsTree(t, mk, fig2doc(), Safe)
	if res.Streamed || res.FallbackReason != "target" {
		t.Fatalf("want target fallback, got %+v", res)
	}
}

// TestStreamFig8RefusalEquivalence: against the streamable target, the full
// Figure 2 document (TimeOut included) is refused by both engines without a
// single invocation.
func TestStreamFig8RefusalEquivalence(t *testing.T) {
	mk := func() *Rewriter {
		return streamableFigRewriter(t, ContextInvokerFunc(func(context.Context, *doc.Node) ([]*doc.Node, error) {
			t.Error("refused rewriting must not invoke")
			return nil, nil
		}))
	}
	res := streamVsTree(t, mk, fig2doc(), Safe)
	if !res.Streamed {
		t.Fatalf("refusal should happen on the streaming path, got fallback %q", res.FallbackReason)
	}
}

// TestStreamFallbackMode: non-Safe modes take the tree path with identical
// results.
func TestStreamFallbackMode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	root := propDoc(rng, 4)
	for _, mode := range []Mode{Possible, Mixed} {
		mk := func() *Rewriter { rw, _ := propRewriter(t, 1); return rw }
		res := streamVsTree(t, mk, root, mode)
		if res.Streamed || res.FallbackReason != "mode" {
			t.Fatalf("mode %v: want mode fallback, got %+v", mode, res)
		}
	}
}

// TestStreamFallbackFuncRoot: a function-node document root cannot stream
// (there is no element event to anchor the frame stack on the tree path's
// terms) and falls back, byte-identically.
func TestStreamFallbackFuncRoot(t *testing.T) {
	mk := func() *Rewriter { rw, _ := propRewriter(t, 1); return rw }
	res := streamVsTree(t, mk, doc.Call("Mk", doc.TextNode("m")), Safe)
	if res.Streamed || res.FallbackReason != "func-root" {
		t.Fatalf("want func-root fallback, got %+v", res)
	}
}

// Wildcard schemas: x is mentioned by page's content model but never
// declared, so x subtrees are foreign content both engines pass through.
const wildSenderText = `
root page
elem page = hdr.x*
elem hdr = data
elem val = data
func Get = data -> val
`

func wildRewriter(t *testing.T, degree int) *Rewriter {
	t.Helper()
	sender := schema.MustParseText(wildSenderText, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), wildSenderText, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewRewriterForConfig(Compile(sender, target), RewriterConfig{
		Depth: 2, Invoker: newPureInvoker(), Parallelism: degree,
	})
}

// TestStreamWildPassthrough: foreign subtrees stream through verbatim in
// lenient mode, and a strict context refuses them on both engines.
func TestStreamWildPassthrough(t *testing.T) {
	root := doc.Elem("page",
		doc.Elem("hdr", doc.TextNode("h")),
		doc.Elem("x",
			doc.Elem("y", doc.TextNode("w")),
			doc.TextNode("free  text"),
			doc.Elem("z"),
		),
		doc.Elem("x", doc.TextNode("only")),
		doc.Elem("x"),
	)
	mk := func() *Rewriter { return wildRewriter(t, 1) }
	res := streamVsTree(t, mk, root, Safe)
	if !res.Streamed {
		t.Fatalf("wildcard content without functions should stream, got fallback %q", res.FallbackReason)
	}

	strict := func() *Rewriter {
		rw := wildRewriter(t, 1)
		rw.Context().Strict = true
		return rw
	}
	streamVsTree(t, strict, root, Safe) // both must refuse; divergence fails the test
}

// TestStreamFallbackWildFunc: a function under a wildcard element survives
// rewriting untouched, which the emitter cannot represent; the tree path
// takes over and the bytes still match.
func TestStreamFallbackWildFunc(t *testing.T) {
	root := doc.Elem("page",
		doc.Elem("hdr", doc.TextNode("h")),
		doc.Elem("x", doc.Call("Get", doc.TextNode("frozen"))),
	)
	mk := func() *Rewriter { return wildRewriter(t, 1) }
	res := streamVsTree(t, mk, root, Safe)
	if res.Streamed || res.FallbackReason != "wild-func" {
		t.Fatalf("want wild-func fallback, got %+v", res)
	}
}

// TestStreamPropertyRandomized is the satellite equivalence property: over
// seeded random documents, engines, degrees and modes, the streaming path
// and the tree path agree on verdict, bytes and audit trail.
func TestStreamPropertyRandomized(t *testing.T) {
	for _, degree := range []int{1, 4} {
		for _, engine := range []EngineKind{Eager, Lazy} {
			for seed := int64(0); seed < 10; seed++ {
				rng := rand.New(rand.NewSource(seed))
				root := propDoc(rng, 1+rng.Intn(7))
				mk := func() *Rewriter {
					rw, _ := propRewriter(t, degree)
					rw.Engine = engine
					return rw
				}
				res := streamVsTree(t, mk, root, Safe)
				if !res.Streamed {
					t.Fatalf("degree %d engine %d seed %d: unexpected fallback %q",
						degree, engine, seed, res.FallbackReason)
				}
				if degree == 1 && engine == Eager {
					res = streamVsTree(t, mk, root, Possible)
					if res.Streamed {
						t.Fatalf("seed %d: Possible mode must not stream", seed)
					}
				}
			}
		}
	}
}

// TestStreamReaderSourceEquivalence drives RewriteStream from serialized
// bytes — no tree on the streaming side at all — and compares with the tree
// engine run on the parsed equivalent.
func TestStreamReaderSourceEquivalence(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		rng := rand.New(rand.NewSource(seed))
		root := propDoc(rng, 1+rng.Intn(6))
		var input bytes.Buffer
		if err := xmlio.Write(&input, root); err != nil {
			t.Fatal(err)
		}

		rwT, _ := propRewriter(t, 1)
		outT, err := rwT.RewriteDocument(context.Background(), root.Clone(), Safe)
		if err != nil {
			t.Fatalf("seed %d: tree: %v", seed, err)
		}
		var want bytes.Buffer
		if err := xmlio.Write(&want, outT); err != nil {
			t.Fatal(err)
		}

		rwS, _ := propRewriter(t, 1)
		src := xmlio.NewReaderSource(bytes.NewReader(input.Bytes()))
		var got bytes.Buffer
		res, err := rwS.RewriteStream(context.Background(), src, &got, Safe)
		src.Close()
		if err != nil {
			t.Fatalf("seed %d: stream: %v", seed, err)
		}
		if !res.Streamed {
			t.Fatalf("seed %d: reader source must stream", seed)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("seed %d: output diverged\n--- tree ---\n%s\n--- stream ---\n%s",
				seed, want.Bytes(), got.Bytes())
		}
		if tk, sk := auditKeys(rwT.Audit), auditKeys(rwS.Audit); !eqStrings(tk, sk) {
			t.Fatalf("seed %d: audit diverged\ntree:   %v\nstream: %v", seed, tk, sk)
		}
	}
}

// TestStreamReaderErrors: malformed, truncated and unsupported inputs fail
// cleanly on the pure streaming entry point.
func TestStreamReaderErrors(t *testing.T) {
	rw, _ := propRewriter(t, 1)

	t.Run("unsupported target", func(t *testing.T) {
		bad := paperRewriter(t, "title.date.temp.(TimeOut|exhibit*)", newPureInvoker())
		src := xmlio.NewReaderSource(strings.NewReader("<newspaper/>"))
		defer src.Close()
		var out bytes.Buffer
		res, err := bad.RewriteStream(context.Background(), src, &out, Safe)
		if !errors.Is(err, ErrStreamUnsupported) {
			t.Fatalf("err = %v, want ErrStreamUnsupported", err)
		}
		if res.FallbackReason != "target" {
			t.Fatalf("reason = %q, want target", res.FallbackReason)
		}
	})

	t.Run("unsupported mode", func(t *testing.T) {
		src := xmlio.NewReaderSource(strings.NewReader("<page><hdr>h</hdr></page>"))
		defer src.Close()
		var out bytes.Buffer
		if _, err := rw.RewriteStream(context.Background(), src, &out, Possible); !errors.Is(err, ErrStreamUnsupported) {
			t.Fatalf("err = %v, want ErrStreamUnsupported", err)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		rng := rand.New(rand.NewSource(99))
		var input bytes.Buffer
		if err := xmlio.Write(&input, propDoc(rng, 5)); err != nil {
			t.Fatal(err)
		}
		cut := input.Bytes()[:input.Len()/2]
		src := xmlio.NewReaderSource(bytes.NewReader(cut))
		defer src.Close()
		var out bytes.Buffer
		if _, err := rw.RewriteStream(context.Background(), src, &out, Safe); err == nil {
			t.Fatal("truncated stream must fail")
		}
	})

	t.Run("mismatched tag", func(t *testing.T) {
		src := xmlio.NewReaderSource(strings.NewReader("<page><hdr>h</hdrr></page>"))
		defer src.Close()
		var out bytes.Buffer
		if _, err := rw.RewriteStream(context.Background(), src, &out, Safe); err == nil {
			t.Fatal("mismatched close tag must fail")
		}
	})

	t.Run("stray intensional element", func(t *testing.T) {
		src := xmlio.NewReaderSource(strings.NewReader(
			`<page xmlns:int="http://www.activexml.com/ns/int"><int:bogus/></page>`))
		defer src.Close()
		var out bytes.Buffer
		if _, err := rw.RewriteStream(context.Background(), src, &out, Safe); err == nil {
			t.Fatal("unknown intensional element must fail")
		}
	})

	t.Run("wild func mid-stream", func(t *testing.T) {
		wrw := wildRewriter(t, 1)
		var input bytes.Buffer
		if err := xmlio.Write(&input, doc.Elem("page",
			doc.Elem("hdr", doc.TextNode("h")),
			doc.Elem("x", doc.Call("Get", doc.TextNode("frozen"))),
		)); err != nil {
			t.Fatal(err)
		}
		src := xmlio.NewReaderSource(bytes.NewReader(input.Bytes()))
		defer src.Close()
		var out bytes.Buffer
		if _, err := wrw.RewriteStream(context.Background(), src, &out, Safe); !errors.Is(err, ErrStreamUnsupported) {
			t.Fatalf("err = %v, want ErrStreamUnsupported", err)
		}
	})

	t.Run("func root via reader", func(t *testing.T) {
		frw, _ := propRewriter(t, 1)
		var input bytes.Buffer
		if err := xmlio.Write(&input, doc.Call("Mk", doc.TextNode("m"))); err != nil {
			t.Fatal(err)
		}
		src := xmlio.NewReaderSource(bytes.NewReader(input.Bytes()))
		defer src.Close()
		var out bytes.Buffer
		res, err := frw.RewriteStream(context.Background(), src, &out, Safe)
		if err != nil {
			t.Fatalf("function root via reader should stream: %v", err)
		}
		if !res.Streamed || res.Calls == 0 {
			t.Fatalf("unexpected result %+v", res)
		}
		if !strings.Contains(out.String(), "<page>") {
			t.Fatalf("output missing materialized page:\n%s", out.String())
		}
	})
}

// TestStreamPeakBufferedBounded is the O(depth) acceptance check: on a wide
// megabyte-scale document with sparse function nodes, the streamed rewrite
// buffers a small fraction of the document while producing identical bytes.
func TestStreamPeakBufferedBounded(t *testing.T) {
	fat := strings.Repeat("x", 200)
	var kids []*doc.Node
	kids = append(kids, doc.Elem("hdr", doc.TextNode("h")))
	for i := 0; i < 1500; i++ {
		sk := []*doc.Node{doc.Elem("ttl", doc.TextNode(fat))}
		for j := 0; j < 3; j++ {
			sk = append(sk, doc.Elem("val", doc.TextNode(fat)))
		}
		if i%8 == 0 {
			sk = append(sk, doc.Call("Get", doc.TextNode(fmt.Sprintf("g%d", i))))
		}
		kids = append(kids, doc.Elem("sec", sk...))
	}
	root := doc.Elem("page", kids...)

	var input bytes.Buffer
	if err := xmlio.Write(&input, root); err != nil {
		t.Fatal(err)
	}
	docBytes := input.Len()
	if docBytes < 1<<20 {
		t.Fatalf("test document too small: %d bytes", docBytes)
	}

	mk := func() *Rewriter { rw, _ := propRewriter(t, 1); return rw }
	res := streamVsTree(t, mk, root, Safe)
	if !res.Streamed {
		t.Fatalf("unexpected fallback %q", res.FallbackReason)
	}
	if res.PeakBufferedBytes >= docBytes/10 {
		t.Errorf("peak buffered %d bytes on a %d-byte document; want ≪ doc size",
			res.PeakBufferedBytes, docBytes)
	}
	if res.BytesWritten < int64(docBytes)/2 {
		t.Errorf("only %d bytes written for a %d-byte document", res.BytesWritten, docBytes)
	}
	if res.FirstByte <= 0 {
		t.Error("first-byte latency not recorded on a multi-flush document")
	}
}
