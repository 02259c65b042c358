package xmlio

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"axml/internal/doc"
)

// spliceFixtures covers the printer's forms: empty, inline single text and
// block elements, function nodes at the root and nested in parameters,
// service references, and text needing escapes; the last one renders
// across several of Render's chunks.
func spliceFixtures() []*doc.Node {
	para := func(s string) *doc.Node { return doc.Elem("para", doc.TextNode(s)) }
	long := doc.Elem("report")
	for i := 0; i < 2000; i++ {
		long.Children = append(long.Children, doc.Elem("block", para(fmt.Sprintf("paragraph %d & more", i))))
		if i == 1000 {
			long.Children = append(long.Children, doc.Call("F", para("k")))
		}
	}
	return []*doc.Node{
		doc.Elem("empty"),
		doc.Elem("a", doc.TextNode("x < y & z")),
		doc.Elem("report", doc.Elem("title", doc.TextNode("t")),
			doc.Elem("block", para("one"), para("two")),
			doc.Elem("block", para("three"), doc.Call("F", doc.Elem("key", doc.TextNode("k")))),
			doc.Elem("tail")),
		doc.Call("Root", doc.Elem("p", doc.Call("Inner", doc.TextNode("v"))), doc.Elem("q")),
		doc.Elem("news", doc.TextNode("lead"), doc.Elem("x"),
			doc.CallAt(doc.ServiceRef{Endpoint: "http://e/x?a&b", Method: "G", Namespace: "urn:n"},
				doc.Elem("city", doc.TextNode("Paris")), doc.Elem("deep", doc.Elem("deeper", doc.TextNode("d")))),
			doc.TextNode("trailer")),
		long,
	}
}

// TestRenderMatchesWrite: a rendering's bytes are Write's, it holds exactly
// the elements a spine copy shares, and each span holds the bytes its
// element prints at its depth.
func TestRenderMatchesWrite(t *testing.T) {
	for _, n := range spliceFixtures() {
		r := Render(n)
		want := MustString(n)
		if string(r.Bytes()) != want {
			t.Fatalf("rendering\n%s\nwant\n%s", r.Bytes(), want)
		}
		stored := map[*doc.Node]bool{}
		n.Walk(func(m *doc.Node) bool { stored[m] = true; return true })
		shared := 0
		var walk func(*doc.Node)
		walk = func(m *doc.Node) {
			if stored[m] && m.Kind == doc.Element {
				shared++
				if !r.holds(m) {
					t.Errorf("<%s> is shared by the spine copy but not held", m.Label)
				}
				return
			}
			for _, c := range m.Children {
				walk(c)
			}
		}
		walk(n.SpineCopy())
		if !sameCopy(n.SpineCopyAlong(r.Spine()), n.SpineCopy(), stored) {
			t.Errorf("the copy along the rendering's spine differs from SpineCopy")
		}
		if len(r.spans) != shared {
			t.Errorf("rendering holds %d elements, the spine copy shares %d", len(r.spans), shared)
		}
		for el, sp := range r.spans {
			want := AppendFragment(nil, []*doc.Node{el}, int(sp.depth), false)
			if got := r.Bytes()[sp.start:sp.end]; !bytes.Equal(got, want) {
				t.Errorf("span of <%s> at depth %d is\n%q\nwant\n%q", el.Label, sp.depth, got, want)
			}
		}
	}
}

// TestWriteSplicedToMatchesWriteTo rewrites spine copies the way an
// executor does — each function node replaced by a forest — and requires
// the spliced output to equal WriteTo's, with the stored tree untouched.
func TestWriteSplicedToMatchesWriteTo(t *testing.T) {
	for i, stored := range spliceFixtures() {
		r := Render(stored)
		before := string(r.Bytes())
		forests := [][]*doc.Node{
			nil,
			{doc.Elem("r", doc.TextNode("v"))},
			{doc.TextNode("loose"), doc.Elem("s")},
			stored.Children, // stored subtrees one level deeper than stored
		}
		for j, forest := range forests {
			out := replaceCalls(stored.SpineCopy(), r, func(*doc.Node) []*doc.Node { return forest })
			var got, want bytes.Buffer
			if err := WriteSplicedTo(&got, out, r); err != nil {
				t.Fatal(err)
			}
			if err := WriteTo(&want, out); err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Errorf("fixture %d, forest %d: spliced\n%s\nwant\n%s", i, j, got.String(), want.String())
			}
		}
		if after := MustString(stored); after != before {
			t.Errorf("fixture %d: rewriting the spine copy changed the stored tree:\n%s", i, after)
		}
	}
}

// replaceCalls rewrites a spine copy of r's document the way an executor
// does: every function node on the copied spine is replaced, in place, by
// forest(call), and a function root by the forest when it has exactly one
// node. The copied spine elements are the elements r does not hold.
func replaceCalls(out *doc.Node, r *Rendering, forest func(call *doc.Node) []*doc.Node) *doc.Node {
	if out.Kind == doc.Func {
		if rep := forest(out); len(rep) == 1 {
			return rep[0]
		}
		return out
	}
	var walk func(*doc.Node)
	walk = func(m *doc.Node) {
		var kids []*doc.Node
		for _, c := range m.Children {
			switch {
			case c.Kind == doc.Func:
				kids = append(kids, forest(c)...)
			case c.Kind == doc.Element && !r.holds(c):
				walk(c)
				kids = append(kids, c)
			default:
				kids = append(kids, c)
			}
		}
		m.Children = kids
	}
	if !r.holds(out) {
		walk(out)
	}
	return out
}

// countSink counts the writes the printer makes.
type countSink struct {
	appendSink
	writes int
}

func (s *countSink) Write(b []byte) (int, error) {
	s.writes++
	return s.appendSink.Write(b)
}

// TestSpliceMergesAdjacentSiblings: a run of untouched siblings goes out as
// one write, and the run stops where a sibling is not held at that depth.
func TestSpliceMergesAdjacentSiblings(t *testing.T) {
	root := doc.Elem("report")
	for i := 0; i < 100; i++ {
		root.Children = append(root.Children, doc.Elem("block", doc.Elem("p", doc.TextNode(fmt.Sprint(i)))))
	}
	root.Children = append(root.Children, doc.Call("F"))
	stored := root.Clone()
	r := Render(stored)
	out := replaceCalls(stored.SpineCopy(), r, func(*doc.Node) []*doc.Node { return []*doc.Node{doc.Elem("r", doc.TextNode("v"))} })
	out.Children = append(out.Children, stored.Children[3]) // held, but not adjacent to the run
	var s countSink
	p := &printer{b: &s, from: r}
	p.node(out, 0, false)
	if s.writes != 2 {
		t.Errorf("spliced %d writes, want 2: one for the run of 100 blocks, one for the block re-used after it", s.writes)
	}
	if want := MustString(out); !strings.Contains(want, string(s.appendSink)) {
		t.Errorf("spliced body\n%s\nis not part of\n%s", s.appendSink, want)
	}
}

// FuzzSplice: spliced bytes are printed bytes. The first input is a
// document, the second picks, for each function node of its spine copy in
// document order, the forest that replaces it: nothing, the call itself,
// fresh elements and text, or subtrees of the stored tree at any depth.
// WriteSplicedTo of the result must equal WriteTo byte for byte, and the
// stored tree must not change.
func FuzzSplice(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, pick []byte) {
		if len(data) > maxFuzzInput {
			return
		}
		stored, err := ParseBytes(data)
		if err != nil || !namedLabels(stored) {
			return
		}
		r := Render(stored)
		before := MustString(stored)
		if string(r.Bytes()) != before {
			t.Fatalf("rendering differs from Write:\n%s\nvs\n%s", r.Bytes(), before)
		}
		var pool []*doc.Node
		stored.Walk(func(n *doc.Node) bool { pool = append(pool, n); return true })
		next := func() int {
			if len(pick) == 0 {
				return 0
			}
			b := int(pick[0])
			pick = pick[1:]
			return b
		}
		forest := func(call *doc.Node) []*doc.Node {
			switch b := next(); b % 4 {
			case 0:
				return []*doc.Node{call}
			case 1:
				return nil
			case 2:
				var out []*doc.Node
				for k := b / 4 % 4; k > 0; k-- {
					out = append(out, pool[next()%len(pool)])
				}
				return out
			default:
				return []*doc.Node{doc.Elem("fresh", doc.TextNode(fmt.Sprint(b))), doc.TextNode("t&t"), doc.Elem("e")}
			}
		}
		copied := stored.SpineCopy()
		if !sameCopy(stored.SpineCopyAlong(r.Spine()), copied, nodeSet(pool)) {
			t.Fatalf("the copy along the rendering's spine differs from SpineCopy")
		}
		out := replaceCalls(copied, r, forest)
		var got, want bytes.Buffer
		if err := WriteSplicedTo(&got, out, r); err != nil {
			t.Fatal(err)
		}
		if err := WriteTo(&want, out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("spliced\n%s\nprinted\n%s", got.Bytes(), want.Bytes())
		}
		if after := MustString(stored); after != before {
			t.Fatalf("rewriting the spine copy changed the stored tree:\n%s\nwas\n%s", after, before)
		}
	})
}

// sameCopy reports whether a and b, two copies of the tree whose nodes are
// orig, match node for node: where one shares a node of orig the other
// shares the same node, and where one copies a node the other copies it
// into the same shape.
func sameCopy(a, b *doc.Node, orig map[*doc.Node]bool) bool {
	if orig[a] || orig[b] {
		return a == b
	}
	if a.Kind != b.Kind || a.Label != b.Label || a.Value != b.Value ||
		(a.Service == nil) != (b.Service == nil) || a.Service != nil && *a.Service != *b.Service ||
		len(a.Children) != len(b.Children) || cap(a.Children) != cap(b.Children) {
		return false
	}
	for i := range a.Children {
		if !sameCopy(a.Children[i], b.Children[i], orig) {
			return false
		}
	}
	return true
}

// nodeSet returns the set of the given nodes.
func nodeSet(nodes []*doc.Node) map[*doc.Node]bool {
	set := make(map[*doc.Node]bool, len(nodes))
	for _, n := range nodes {
		set[n] = true
	}
	return set
}

// holds reports whether r has a span for n.
func (r *Rendering) holds(n *doc.Node) bool {
	_, ok := r.spans[n]
	return ok
}
