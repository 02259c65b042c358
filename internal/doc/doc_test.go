package doc

import (
	"strings"
	"testing"
)

// newspaper builds the intensional document of Figure 2.a of the paper.
func newspaper() *Node {
	return Elem("newspaper",
		Elem("title", TextNode("The Sun")),
		Elem("date", TextNode("04/10/2002")),
		Call("Get_Temp", Elem("city", TextNode("Paris"))),
		Call("TimeOut", TextNode("exhibits")),
	)
}

func TestConstructorsAndKinds(t *testing.T) {
	n := newspaper()
	if n.Kind != Element || n.Label != "newspaper" {
		t.Fatalf("root wrong: %v %q", n.Kind, n.Label)
	}
	if len(n.Children) != 4 {
		t.Fatalf("children = %d want 4", len(n.Children))
	}
	if n.Children[2].Kind != Func || n.Children[2].Label != "Get_Temp" {
		t.Error("Get_Temp call wrong")
	}
	if n.Children[0].Children[0].Kind != Text {
		t.Error("title text wrong")
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Error("unknown Kind String")
	}
	if Element.String() != "element" || Text.String() != "text" || Func.String() != "func" {
		t.Error("Kind strings wrong")
	}
}

func TestCallAt(t *testing.T) {
	ref := ServiceRef{Endpoint: "http://forecast.example/soap", Method: "Get_Temp", Namespace: "urn:weather"}
	n := CallAt(ref, Elem("city"))
	if n.Label != "Get_Temp" || n.Service == nil || n.Service.Endpoint != ref.Endpoint {
		t.Error("CallAt did not record the service reference")
	}
	// The ref must be copied, not aliased.
	ref.Endpoint = "changed"
	if n.Service.Endpoint == "changed" {
		t.Error("CallAt aliased its argument")
	}
}

func TestCloneAndEqual(t *testing.T) {
	n := newspaper()
	c := n.Clone()
	if !n.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Children[0].Children[0].Value = "The Moon"
	if n.Equal(c) {
		t.Fatal("mutating clone affected equality — aliasing bug")
	}
	if n.Children[0].Children[0].Value != "The Sun" {
		t.Fatal("clone aliased original")
	}
	var nilNode *Node
	if nilNode.Clone() != nil {
		t.Error("Clone(nil) should be nil")
	}
	if !nilNode.Equal(nil) || nilNode.Equal(n) {
		t.Error("nil equality wrong")
	}
}

// TestCloneAppendIsolated: clones carve every child list from one shared
// array, so each list must be capped at its length — appending to any
// cloned node's children must leave every other node's children as they
// were.
func TestCloneAppendIsolated(t *testing.T) {
	d := Elem("root", newspaper(), Elem("empty"),
		CallAt(ServiceRef{Method: "f", Endpoint: "http://e", Namespace: "urn:f"},
			Elem("p", TextNode("x")), Elem("q")),
		newspaper())
	c := d.Clone()
	if !c.Equal(d) || !d.Equal(c) {
		t.Fatal("Clone(d) is not equal to d")
	}
	var nodes []*Node
	c.Walk(func(n *Node) bool { nodes = append(nodes, n); return true })
	kids := make([][]*Node, len(nodes))
	for j, m := range nodes {
		kids[j] = append([]*Node(nil), m.Children...)
	}
	for i, n := range nodes {
		n.Children = append(n.Children, TextNode("appended"))
		for j, m := range nodes {
			if j == i {
				continue
			}
			if len(m.Children) != len(kids[j]) {
				t.Fatalf("appending under node %d resized node %d's children", i, j)
			}
			for k := range m.Children {
				if m.Children[k] != kids[j][k] {
					t.Fatalf("appending under node %d overwrote child %d of node %d", i, k, j)
				}
			}
		}
		n.Children = n.Children[:len(n.Children)-1]
	}
	if !c.Equal(d) {
		t.Fatal("clone drifted from the original")
	}
	c.Children[2].Service.Endpoint = "http://other"
	if d.Children[2].Service.Endpoint != "http://e" {
		t.Fatal("clone shares a service reference with the original")
	}
}

// TestCloneAllocations pins the two-allocation copy: one node array and
// one child-pointer array, plus one service array when references exist.
func TestCloneAllocations(t *testing.T) {
	d := Elem("root")
	for i := 0; i < 100; i++ {
		d.Children = append(d.Children, Elem("block", Elem("para", TextNode("text"))))
	}
	if got := testing.AllocsPerRun(20, func() { d.Clone() }); got != 2 {
		t.Errorf("Clone = %v allocations, want 2", got)
	}
	d.Children = append(d.Children, CallAt(ServiceRef{Method: "f", Endpoint: "e"}))
	if got := testing.AllocsPerRun(20, func() { d.Clone() }); got != 3 {
		t.Errorf("Clone with a service reference = %v allocations, want 3", got)
	}
	if got := testing.AllocsPerRun(20, func() { CloneForest(d.Children) }); got != 4 {
		t.Errorf("CloneForest = %v allocations, want 4", got)
	}
}

func TestEqualService(t *testing.T) {
	a := CallAt(ServiceRef{Method: "f", Endpoint: "x"})
	b := CallAt(ServiceRef{Method: "f", Endpoint: "y"})
	c := Call("f")
	if a.Equal(b) {
		t.Error("different endpoints should not be equal")
	}
	if a.Equal(c) || c.Equal(a) {
		t.Error("service vs no-service should not be equal")
	}
}

func TestWalkAndCounts(t *testing.T) {
	n := newspaper()
	if got := n.Count(); got != 10 {
		t.Errorf("Count = %d want 10", got)
	}
	if got := n.CountFuncs(); got != 2 {
		t.Errorf("CountFuncs = %d want 2", got)
	}
	if !n.HasFuncs() {
		t.Error("HasFuncs should be true")
	}
	if Elem("a", TextNode("x")).HasFuncs() {
		t.Error("HasFuncs false positive")
	}
	// Prune: stop below the root.
	visited := 0
	n.Walk(func(m *Node) bool { visited++; return m == n })
	if visited != 5 {
		t.Errorf("pruned walk visited %d want 5 (root + 4 children)", visited)
	}
}

func TestChildLabels(t *testing.T) {
	n := newspaper()
	got := n.ChildLabels()
	want := []string{"title", "date", "Get_Temp", "TimeOut"}
	if len(got) != len(want) {
		t.Fatalf("ChildLabels = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ChildLabels = %v want %v", got, want)
		}
	}
	// Text children are skipped.
	mixed := Elem("x", TextNode("data"), Elem("a"))
	if labels := mixed.ChildLabels(); len(labels) != 1 || labels[0] != "a" {
		t.Errorf("ChildLabels with text = %v", labels)
	}
}

func TestOutermostFuncs(t *testing.T) {
	inner := Call("inner")
	outer := Call("outer", Elem("param", inner))
	root := Elem("root", outer, Call("sibling"), Elem("wrap", Call("nested")))
	got := OutermostFuncs([]*Node{root})
	if len(got) != 3 {
		t.Fatalf("OutermostFuncs = %d want 3", len(got))
	}
	for _, f := range got {
		if f == inner {
			t.Error("inner call (a parameter) reported as outermost")
		}
	}
}

func TestFuncsBottomUp(t *testing.T) {
	inner := Call("inner")
	outer := Call("outer", Elem("param", inner))
	root := Elem("root", outer)
	got := FuncsBottomUp(root)
	if len(got) != 2 {
		t.Fatalf("FuncsBottomUp = %d want 2", len(got))
	}
	if got[0] != inner || got[1] != outer {
		t.Error("bottom-up order wrong: inner must come before outer")
	}
}

func TestReplaceChild(t *testing.T) {
	n := newspaper()
	temp := Elem("temp", TextNode("15"))
	if err := n.ReplaceChild(2, []*Node{temp}); err != nil {
		t.Fatal(err)
	}
	labels := n.ChildLabels()
	if labels[2] != "temp" {
		t.Errorf("splice failed: %v", labels)
	}
	// Replace by a forest of two nodes.
	if err := n.ReplaceChild(3, []*Node{Elem("exhibit"), Elem("exhibit")}); err != nil {
		t.Fatal(err)
	}
	if len(n.Children) != 5 {
		t.Errorf("children after forest splice = %d want 5", len(n.Children))
	}
	// Replace by nothing (function returning the empty forest).
	if err := n.ReplaceChild(4, nil); err != nil {
		t.Fatal(err)
	}
	if len(n.Children) != 4 {
		t.Errorf("children after empty splice = %d want 4", len(n.Children))
	}
	if err := n.ReplaceChild(99, nil); err == nil {
		t.Error("out-of-range splice should error")
	}
	if err := n.ReplaceChild(-1, nil); err == nil {
		t.Error("negative splice should error")
	}
}

func TestIndexOfChild(t *testing.T) {
	n := newspaper()
	if got := n.IndexOfChild(n.Children[2]); got != 2 {
		t.Errorf("IndexOfChild = %d want 2", got)
	}
	if got := n.IndexOfChild(Elem("stranger")); got != -1 {
		t.Errorf("IndexOfChild of stranger = %d want -1", got)
	}
}

func TestCloneForest(t *testing.T) {
	forest := []*Node{Elem("a"), Call("f")}
	c := CloneForest(forest)
	if len(c) != 2 || !c[0].Equal(forest[0]) || !c[1].Equal(forest[1]) {
		t.Fatal("CloneForest wrong")
	}
	c[0].Label = "mutated"
	if forest[0].Label != "a" {
		t.Error("CloneForest aliased")
	}
}

func TestString(t *testing.T) {
	s := newspaper().String()
	for _, want := range []string{"<newspaper>", "@Get_Temp()", `"Paris"`, "<city>"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q in:\n%s", want, s)
		}
	}
	fs := ForestString([]*Node{Elem("a"), Elem("b")})
	if !strings.Contains(fs, "<a>") || !strings.Contains(fs, "<b>") {
		t.Error("ForestString wrong")
	}
}

// TestSpineCopy: the copy is equal to the original, copies exactly the
// elements above function nodes, deep-copies function subtrees, and shares
// every other subtree with the original.
func TestSpineCopy(t *testing.T) {
	shared := Elem("block", Elem("para", TextNode("p")))
	inner := Elem("block", Elem("heading", TextNode("h")), Call("F", Elem("key", TextNode("k"))))
	d := Elem("report", Elem("title", TextNode("t")), shared, inner, TextNode("tail"))
	c := d.SpineCopy()
	if !c.Equal(d) {
		t.Fatalf("spine copy differs:\n%s\nwant\n%s", c, d)
	}
	if c == d || c.Children[2] == inner {
		t.Error("spine elements were not copied")
	}
	for _, i := range []int{0, 1, 3} {
		if c.Children[i] != d.Children[i] {
			t.Errorf("function-free child %d was copied, not shared", i)
		}
	}
	if c.Children[2].Children[0] != inner.Children[0] {
		t.Error("function-free child of a spine element was copied")
	}
	call := c.Children[2].Children[1]
	if call == inner.Children[1] || call.Children[0] == inner.Children[1].Children[0] {
		t.Error("function subtree was shared, not deep-copied")
	}

	// Rewriting the copy the way an executor does leaves d unchanged.
	want := d.String()
	call.Children[0].Children[0].Value = "rewritten"
	c.Children[2].Children = []*Node{c.Children[2].Children[0], Elem("out")}
	c.Children = append(c.Children, Elem("appended"))
	if d.String() != want {
		t.Errorf("rewriting the spine copy changed the original:\n%s", d)
	}

	if free := Elem("a", Elem("b", TextNode("x"))); free.SpineCopy() != free {
		t.Error("a function-free tree was copied")
	}
	root := Call("R", Elem("p", Call("Q")))
	if rc := root.SpineCopy(); rc == root || rc.Children[0] == root.Children[0] || !rc.Equal(root) {
		t.Error("a function root was not deep-copied")
	}
	if (*Node)(nil).SpineCopy() != nil {
		t.Error("nil spine copy")
	}
}

// spineOf lists n's spine in document order: the elements holding a
// function node outside every function's parameters.
func spineOf(n *Node, out []*Node) []*Node {
	if n.Kind != Element || !n.HasFuncs() {
		return out
	}
	out = append(out, n)
	for _, c := range n.Children {
		out = spineOf(c, out)
	}
	return out
}

// sameCopy reports whether a and b, two copies of the tree orig, match node
// for node: where one shares a node of orig the other shares the same node,
// and where one copies a node the other copies it into the same shape.
func sameCopy(a, b *Node, orig map[*Node]bool) bool {
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

// TestSpineCopyAlong: driven by the tree's spine, the copy matches
// SpineCopy node for node, and its allocations grow with neither the
// shared part nor the walk SpineCopy makes over it.
func TestSpineCopyAlong(t *testing.T) {
	fixtures := []*Node{
		Elem("report", Elem("title", TextNode("t")), Elem("block", Elem("para", TextNode("p"))),
			Elem("block", Elem("heading", TextNode("h")), Call("F", Elem("key", Call("G")))), TextNode("tail")),
		Elem("a", Elem("b", TextNode("x"))),
		Call("R", Elem("p", Call("Q"))),
		Elem("news", Elem("x", Elem("y", CallAt(ServiceRef{Method: "G", Endpoint: "e"}))), Call("H"), Elem("z")),
	}
	for _, d := range fixtures {
		orig := map[*Node]bool{}
		d.Walk(func(n *Node) bool { orig[n] = true; return true })
		want := d.SpineCopy()
		if got := d.SpineCopyAlong(spineOf(d, nil)); !sameCopy(got, want, orig) {
			t.Errorf("copy along the spine of\n%s\ndiffers from SpineCopy", d)
		}
	}
	if (*Node)(nil).SpineCopyAlong(nil) != nil {
		t.Error("nil spine copy")
	}
	allocs := func(blocks int) float64 {
		d := Elem("root")
		for i := 0; i < blocks; i++ {
			d.Children = append(d.Children, Elem("block", Elem("para", TextNode("text"))))
		}
		d.Children = append(d.Children, Elem("block", Call("f", Elem("k", TextNode("v")))))
		spine := spineOf(d, nil)
		return testing.AllocsPerRun(20, func() { d.SpineCopyAlong(spine) })
	}
	if small, large := allocs(10), allocs(1000); large != small {
		t.Errorf("SpineCopyAlong = %v allocations at 1000 shared blocks, %v at 10", large, small)
	}
}

// TestSpineCopyAllocations: like Clone, a spine copy is carved from one
// allocation per kind, so its allocations do not grow with the shared part.
func TestSpineCopyAllocations(t *testing.T) {
	allocs := func(blocks int, ref bool) float64 {
		d := Elem("root")
		for i := 0; i < blocks; i++ {
			d.Children = append(d.Children, Elem("block", Elem("para", TextNode("text"))))
		}
		d.Children = append(d.Children, Elem("block", Call("f", Elem("k", TextNode("v")))))
		if ref {
			d.Children = append(d.Children, CallAt(ServiceRef{Method: "g", Endpoint: "e"}))
		}
		return testing.AllocsPerRun(20, func() { d.SpineCopy() })
	}
	for _, ref := range []bool{false, true} {
		if small, large := allocs(10, ref), allocs(1000, ref); large != small {
			t.Errorf("service reference %t: SpineCopy = %v allocations at 1000 shared blocks, %v at 10", ref, large, small)
		}
	}
}
