package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unicode"

	"axml/internal/doc"
	"axml/internal/schema"
)

// pureInvoker is a deterministic, read-only invoker: the result is a pure
// function of the call's name and first text parameter, so runs over clones
// of one document, at any degree, receive identical answers. It maps
// function names to the label of the single node returned: an element
// holding the call's key as text, one of several labels "a|b" picked by
// the key, or, for a label starting in upper case, a call of that function
// with the key as its parameter. "page" results carry a conforming hdr
// child instead of text.
type pureInvoker map[string]string

func newPureInvoker() pureInvoker {
	return pureInvoker{
		"Get": "val", "Deep": "val", "MkTtl": "ttl",
		"Stamp": "stamp", "Note": "note", "Mk": "page",
		"Pick": "val|alt", "Defer": "Get",
	}
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

func (p pureInvoker) Invoke(_ context.Context, call *doc.Node) ([]*doc.Node, error) {
	label, ok := p[call.Label]
	if !ok {
		return nil, errors.New("pureInvoker: no result shape for " + call.Label)
	}
	key := call.Label + ":" + firstText(call)
	if alts := strings.Split(label, "|"); len(alts) > 1 {
		sum := 0
		for _, b := range []byte(key) {
			sum += int(b)
		}
		label = alts[sum%len(alts)]
	}
	switch {
	case label == "page":
		return []*doc.Node{doc.Elem("page", doc.Elem("hdr", doc.TextNode(key)))}, nil
	case unicode.IsUpper(rune(label[0])):
		return []*doc.Node{doc.Call(label, doc.TextNode(key))}, nil
	}
	return []*doc.Node{doc.Elem(label, doc.TextNode(key))}, nil
}

// propSenderText is the sender schema of the generated-document tests: a
// page of sections whose content mixes plain elements, directly invocable
// functions, and a function (Deep) whose parameters need a nested call,
// then pairs (duo) whose first call (Pick) may answer either of two words
// and whose second may be a call (Defer) that answers with a call.
const propSenderText = `
root page
elem page = hdr.sec*.duo*.ftr*
elem hdr = data
elem ftr = (Stamp|stamp)
elem stamp = data
elem sec = ttl.(Get|val|Deep)*.sub*
elem ttl = data
elem sub = (Get|val).(Note|note)
elem duo = (Pick|val|alt).(Get|val|Defer)
elem alt = data
elem note = data
elem val = data
func Get = data -> val
func Deep = ttl -> val
func MkTtl = data -> ttl
func Stamp = data -> stamp
func Note = data -> note
func Pick = data -> (val|alt)
func Defer = data -> Get
func Mk = data -> page
`

// propTargetText strips every function alternative out of the content
// models: a target no call may survive in, so every function is invoked.
func propTargetText() string {
	r := strings.NewReplacer(
		"(Stamp|stamp)", "stamp",
		"(Get|val|Deep)*", "val*",
		"(Get|val).(Note|note)", "val.note",
		"(Pick|val|alt).(Get|val|Defer)", "(val|alt).val",
	)
	return r.Replace(propSenderText)
}

func propRewriter(t *testing.T, degree int) *Rewriter {
	t.Helper()
	sender := schema.MustParseText(propSenderText, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), propTargetText(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewRewriterForConfig(Compile(sender, target), RewriterConfig{
		Depth: 2, Invoker: newPureInvoker(), Parallelism: degree,
	})
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
	var ftr *doc.Node
	if rng.Intn(2) == 0 {
		if rng.Intn(2) == 0 {
			ftr = doc.Elem("ftr", doc.Call("Stamp", doc.TextNode("f")))
		} else {
			ftr = doc.Elem("ftr", doc.Elem("stamp", doc.TextNode("s")))
		}
	}
	// The pairs draw last, after the footer they precede, so the sections
	// and footer a seed generates do not depend on them.
	for d, m := 0, rng.Intn(3); d < m; d++ {
		var first, second *doc.Node
		switch rng.Intn(3) {
		case 0:
			first = doc.Call("Pick", doc.TextNode(fmt.Sprintf("p%d", d)))
		case 1:
			first = doc.Elem("val", doc.TextNode("v"))
		default:
			first = doc.Elem("alt", doc.TextNode("a"))
		}
		switch rng.Intn(3) {
		case 0:
			second = doc.Call("Get", doc.TextNode(fmt.Sprintf("q%d", d)))
		case 1:
			second = doc.Call("Defer", doc.TextNode(fmt.Sprintf("r%d", d)))
		default:
			second = doc.Elem("val", doc.TextNode("v"))
		}
		kids = append(kids, doc.Elem("duo", first, second))
	}
	if ftr != nil {
		kids = append(kids, ftr)
	}
	return doc.Elem("page", kids...)
}

// auditKeys renders the retained calls of an audit, in audit order, as
// function/depth/result-node keys.
func auditKeys(a *Audit) []string {
	calls := a.Calls()
	out := make([]string, len(calls))
	for i, c := range calls {
		out[i] = fmt.Sprintf("%s/d%d/n%d", c.Func, c.Depth, c.ResultNodes)
	}
	return out
}
