// Package doc implements the intensional document model of Milo et al.
// (Definition 1): ordered labeled trees whose nodes are either extensional
// data (elements and text values) or *function nodes* — embedded Web-service
// calls whose children subtrees are the call's parameters. Invoking a
// function node replaces it, in place, by the forest the service returns.
package doc

import (
	"fmt"
	"strings"
)

// Kind discriminates the three node kinds of an intensional document.
type Kind uint8

const (
	// Element is an ordinary XML element with a label and children.
	Element Kind = iota
	// Text is a leaf holding an atomic data value.
	Text
	// Func is a function node: an embedded service call whose children are
	// its parameters.
	Func
)

func (k Kind) String() string {
	switch k {
	case Element:
		return "element"
	case Text:
		return "text"
	case Func:
		return "func"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ServiceRef carries the information needed to reach the Web service behind
// a function node — in the XML syntax, the endpointURL, methodName and
// namespaceURI attributes of an int:fun element. The Method alone identifies
// the function in the simple model; the other fields matter for SOAP
// transport.
type ServiceRef struct {
	Endpoint  string
	Method    string
	Namespace string
}

// Node is one node of an intensional document. Fields are used according to
// Kind:
//
//   - Element: Label is the element name, Children its content;
//   - Text: Value holds the data value (Label is empty, no Children);
//   - Func: Label is the function name, Children are the parameter forest,
//     and Service optionally pins the concrete endpoint.
//
// Nodes are mutable; rewriting splices returned forests into Children
// slices. Use Clone before handing a document to code that mutates it, or
// SpineCopy before handing it to a rewriting.
type Node struct {
	Kind     Kind
	Label    string
	Value    string
	Service  *ServiceRef
	Children []*Node
}

// Elem builds an element node.
func Elem(label string, children ...*Node) *Node {
	return &Node{Kind: Element, Label: label, Children: children}
}

// TextNode builds a text leaf.
func TextNode(value string) *Node {
	return &Node{Kind: Text, Value: value}
}

// Call builds a function node with the given parameters.
func Call(name string, params ...*Node) *Node {
	return &Node{Kind: Func, Label: name, Children: params}
}

// CallAt is Call with an explicit service reference.
func CallAt(ref ServiceRef, params ...*Node) *Node {
	r := ref
	return &Node{Kind: Func, Label: ref.Method, Service: &r, Children: params}
}

// Clone returns a deep copy of the node. The copy costs two allocations
// whatever its size (three when it holds service references): the subtree
// is sized first, then its nodes are carved from one []Node and its child
// lists from one []*Node. Every carved Children slice has cap == len, so an
// append to it reallocates instead of writing into a sibling's span.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	var c cloner
	c.size(n)
	c.alloc()
	return c.clone(n)
}

// CloneForest deep-copies a forest, carving every tree from the same
// allocations.
func CloneForest(forest []*Node) []*Node {
	var c cloner
	for _, n := range forest {
		c.size(n)
	}
	c.alloc()
	out := make([]*Node, len(forest))
	for i, n := range forest {
		out[i] = c.clone(n)
	}
	return out
}

// cloner sizes a deep copy, then hands out its storage.
type cloner struct {
	numNodes, numLists, numRefs int
	nodes                       []Node
	lists                       []*Node
	refs                        []ServiceRef
}

func (c *cloner) size(n *Node) {
	if n == nil {
		return
	}
	c.count(n)
	for _, ch := range n.Children {
		c.size(ch)
	}
}

// count reserves the storage a copy of n itself takes.
func (c *cloner) count(n *Node) {
	c.numNodes++
	c.numLists += len(n.Children)
	if n.Service != nil {
		c.numRefs++
	}
}

func (c *cloner) alloc() {
	c.nodes = make([]Node, c.numNodes)
	c.lists = make([]*Node, c.numLists)
	if c.numRefs > 0 {
		c.refs = make([]ServiceRef, c.numRefs)
	}
}

func (c *cloner) clone(n *Node) *Node {
	if n == nil {
		return nil
	}
	m := c.carve(n)
	for i, ch := range n.Children {
		m.Children[i] = c.clone(ch)
	}
	return m
}

// carve copies n's own fields into the next node of the storage, with an
// empty child list of n's length.
func (c *cloner) carve(n *Node) *Node {
	m := &c.nodes[0]
	c.nodes = c.nodes[1:]
	m.Kind, m.Label, m.Value = n.Kind, n.Label, n.Value
	if n.Service != nil {
		m.Service = &c.refs[0]
		*m.Service = *n.Service
		c.refs = c.refs[1:]
	}
	if k := len(n.Children); k > 0 {
		m.Children = c.lists[:k:k]
		c.lists = c.lists[k:]
	}
	return m
}

// SpineCopy returns a copy of n for rewriting that shares every
// function-free subtree with n. The elements on the paths from n to its
// function nodes (the spine) are copied, each function node's subtree is
// deep-copied, and every other child of a spine element is n's own node.
// Rewriting replaces function nodes and rewrites the words of spine
// elements; it never writes into a function-free subtree, so rewriting the
// copy leaves n unchanged, and a stored tree can be shared by concurrent
// readers. A function-free n is returned as is. Like Clone, the copy is
// carved from one allocation per kind (nodes, child lists, service
// references), and every copied Children slice has cap == len.
func (n *Node) SpineCopy() *Node {
	if n == nil {
		return nil
	}
	spine, _ := appendSpine(n, make([]*Node, 0, 16))
	return n.SpineCopyAlong(spine)
}

// SpineCopyAlong returns what SpineCopy returns, given n's spine: the
// elements of n that hold a function node outside every function's
// parameters, in document order (xmlio.Rendering records it once per stored
// version). Where SpineCopy walks all of n to find the spine, SpineCopyAlong
// visits only the spine elements, their child lists and the function
// subtrees, so its cost follows the calls, not the document.
func (n *Node) SpineCopyAlong(spine []*Node) *Node {
	switch {
	case n == nil:
		return nil
	case n.Kind == Func:
		return n.Clone()
	case len(spine) == 0:
		return n
	}
	s := spiner{spine: spine}
	for _, e := range spine {
		s.c.count(e)
		for _, ch := range e.Children {
			if ch.Kind == Func {
				s.c.size(ch)
			}
		}
	}
	s.c.alloc()
	return s.copy(n)
}

// appendSpine reports whether n's subtree holds a function node outside
// every function's parameters, appending to spine, in document order, the
// elements of the subtree that do.
func appendSpine(n *Node, spine []*Node) ([]*Node, bool) {
	switch n.Kind {
	case Func:
		return spine, true
	case Text:
		return spine, false
	}
	at := len(spine)
	spine = append(spine, n)
	holds := false
	for _, ch := range n.Children {
		var h bool
		if spine, h = appendSpine(ch, spine); h {
			holds = true
		}
	}
	if !holds {
		return spine[:at], false
	}
	return spine, true
}

// spiner builds a spine copy from a cloner's storage. spine lists the
// spine elements in document order; the copy pass meets them in the same
// order.
type spiner struct {
	c     cloner
	spine []*Node
	next  int
}

// copy copies the spine element n, which is s.spine[s.next].
func (s *spiner) copy(n *Node) *Node {
	s.next++
	m := s.c.carve(n)
	for i, ch := range n.Children {
		switch {
		case ch.Kind == Func:
			m.Children[i] = s.c.clone(ch)
		case s.next < len(s.spine) && s.spine[s.next] == ch:
			m.Children[i] = s.copy(ch)
		default:
			m.Children[i] = ch
		}
	}
	return m
}

// Equal reports deep structural equality (Service references are compared by
// value; nil Service equals nil only).
func (n *Node) Equal(m *Node) bool {
	if n == nil || m == nil {
		return n == m
	}
	if n.Kind != m.Kind || n.Label != m.Label || n.Value != m.Value {
		return false
	}
	if (n.Service == nil) != (m.Service == nil) {
		return false
	}
	if n.Service != nil && *n.Service != *m.Service {
		return false
	}
	if len(n.Children) != len(m.Children) {
		return false
	}
	for i := range n.Children {
		if !n.Children[i].Equal(m.Children[i]) {
			return false
		}
	}
	return true
}

// Walk visits n and its descendants in document order (pre-order). The visit
// function may mutate the node it receives; returning false prunes the walk
// below that node.
func (n *Node) Walk(visit func(*Node) bool) {
	if n == nil || !visit(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// Count returns the number of nodes in the tree.
func (n *Node) Count() int {
	count := 0
	n.Walk(func(*Node) bool { count++; return true })
	return count
}

// CountFuncs returns the number of function nodes in the tree.
func (n *Node) CountFuncs() int {
	count := 0
	n.Walk(func(m *Node) bool {
		if m.Kind == Func {
			count++
		}
		return true
	})
	return count
}

// HasFuncs reports whether any function node remains — i.e. whether the
// document is still intensional.
func (n *Node) HasFuncs() bool {
	found := false
	n.Walk(func(m *Node) bool {
		if m.Kind == Func {
			found = true
		}
		return !found
	})
	return found
}

// ChildLabels returns the labels of the node's children, in order — the word
// w the per-node rewriting step works on. Text children have no label in the
// word model; they are skipped (atomic content is typed by the "data"
// keyword, not by the content-model word).
func (n *Node) ChildLabels() []string {
	out := make([]string, 0, len(n.Children))
	for _, c := range n.Children {
		if c.Kind != Text {
			out = append(out, c.Label)
		}
	}
	return out
}

// OutermostFuncs returns the function nodes of the forest that are not
// nested inside another function node's parameters (but may be nested inside
// elements). These are exactly the calls the top-down rewriting phase is
// allowed to invoke; inner calls become invocable only after their enclosing
// call's parameters have been dealt with.
func OutermostFuncs(forest []*Node) []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Kind == Func {
			out = append(out, n)
			return // children are parameters: not outermost
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, n := range forest {
		walk(n)
	}
	return out
}

// FuncsBottomUp returns every function node of the tree ordered so that a
// function nested in another's parameters appears before it — the order the
// parameter-checking phase of the rewriting algorithm needs ("start from the
// deepest functions and recursively move upward").
func FuncsBottomUp(root *Node) []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			walk(c)
		}
		if n.Kind == Func {
			out = append(out, n)
		}
	}
	walk(root)
	return out
}

// ReplaceChild splices repl in place of the i-th child of n, returning an
// error if i is out of range. It is the tree operation behind Definition 4's
// rewriting step t →v t'.
func (n *Node) ReplaceChild(i int, repl []*Node) error {
	if i < 0 || i >= len(n.Children) {
		return fmt.Errorf("doc: ReplaceChild index %d out of range [0,%d)", i, len(n.Children))
	}
	next := make([]*Node, 0, len(n.Children)-1+len(repl))
	next = append(next, n.Children[:i]...)
	next = append(next, repl...)
	next = append(next, n.Children[i+1:]...)
	n.Children = next
	return nil
}

// IndexOfChild returns the index of child in n.Children (pointer identity),
// or -1.
func (n *Node) IndexOfChild(child *Node) int {
	for i, c := range n.Children {
		if c == child {
			return i
		}
	}
	return -1
}

// String renders the tree in a compact indented form for debugging and
// error messages.
func (n *Node) String() string {
	var b strings.Builder
	n.write(&b, 0)
	return b.String()
}

func (n *Node) write(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	switch n.Kind {
	case Text:
		fmt.Fprintf(b, "%s%q\n", indent, n.Value)
	case Element:
		fmt.Fprintf(b, "%s<%s>\n", indent, n.Label)
		for _, c := range n.Children {
			c.write(b, depth+1)
		}
	case Func:
		fmt.Fprintf(b, "%s@%s()\n", indent, n.Label)
		for _, c := range n.Children {
			c.write(b, depth+1)
		}
	}
}

// ForestString renders a forest.
func ForestString(forest []*Node) string {
	var b strings.Builder
	for _, n := range forest {
		n.write(&b, 0)
	}
	return b.String()
}
