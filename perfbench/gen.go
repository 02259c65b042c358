package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"

	"axml/internal/doc"
	"axml/internal/schema"
	"axml/internal/xmlio"
	"axml/internal/xsdint"
)

// numFuncs is the number of functions the sender schema declares. Receivers
// forbid non-empty subsets of them, so 2^numFuncs-1 distinct receivers exist:
// 255, about four times the compile cache's 64 entries.
const numFuncs = 8

// corpus is everything the seeded generator derives from one seed: the
// sender schema (in the DSL the peers parse), the function output types, and
// helpers to build documents and receivers over it.
type corpus struct {
	senderText string
	sender     *schema.Schema // parsed once, for oracles and generation
	outTypes   [numFuncs]string
}

// newCorpus draws the function output types from rng and assembles the
// sender schema. Every function takes a key and returns an instance of its
// output type; every block offers each function as an optional slot next to
// that same output type, so invoking any call yields a conforming block.
func newCorpus(rng *rand.Rand) (*corpus, error) {
	c := &corpus{}
	// Each output shape serves two functions; the seed decides which.
	shapes := []string{"r%d", "r%d.s%d?", "r%d.s%d*", "r%d*"}
	perm := rng.Perm(numFuncs)
	for j := range c.outTypes {
		shape := shapes[perm[j]%len(shapes)]
		if strings.Count(shape, "%d") == 2 {
			c.outTypes[j] = fmt.Sprintf(shape, j, j)
		} else {
			c.outTypes[j] = fmt.Sprintf(shape, j)
		}
	}
	c.senderText = c.schemaText(0)
	s, err := schema.ParseText(c.senderText, nil)
	if err != nil {
		return nil, fmt.Errorf("sender schema: %w", err)
	}
	c.sender = s
	return c, nil
}

// schemaText renders the schema that forbids the functions in the bit set
// forbidden (0 for the sender schema): a forbidden function's slot admits
// only its output type, and the function is not declared.
func (c *corpus) schemaText(forbidden uint) string {
	var b strings.Builder
	b.WriteString("root report\nelem report = title.block*\nelem block = heading.para*")
	for j := 0; j < numFuncs; j++ {
		if forbidden&(1<<j) != 0 {
			fmt.Fprintf(&b, ".(%s)?", c.outTypes[j])
		} else {
			fmt.Fprintf(&b, ".(F%d|%s)?", j, c.outTypes[j])
		}
	}
	b.WriteString("\nelem title = data\nelem heading = data\nelem para = data\nelem key = data\n")
	for j := 0; j < numFuncs; j++ {
		fmt.Fprintf(&b, "elem r%d = data\nelem s%d = data\n", j, j)
	}
	for j := 0; j < numFuncs; j++ {
		if forbidden&(1<<j) == 0 {
			fmt.Fprintf(&b, "func F%d = key -> %s\n", j, c.outTypes[j])
		}
	}
	return b.String()
}

// receiver is one exchange schema: the body POSTed to /exchange and the
// parsed schema the oracle validates responses against.
type receiver struct {
	forbidden uint
	xsd       []byte
	schema    *schema.Schema // shares the corpus sender's symbol table
}

// newReceiver renders the receiver forbidding the given non-empty function
// set as XML Schema_int.
func (c *corpus) newReceiver(forbidden uint) (*receiver, error) {
	if forbidden == 0 || forbidden >= 1<<numFuncs {
		return nil, fmt.Errorf("receiver must forbid a non-empty subset of %d functions, got %b", numFuncs, forbidden)
	}
	s, err := schema.ParseTextShared(schema.NewShared(c.sender.Table), c.schemaText(forbidden), nil)
	if err != nil {
		return nil, fmt.Errorf("receiver %b: %w", forbidden, err)
	}
	x, err := xsdint.String(s, nil)
	if err != nil {
		return nil, fmt.Errorf("receiver %b: %w", forbidden, err)
	}
	return &receiver{forbidden: forbidden, xsd: []byte(x), schema: s}, nil
}

// subsetsOfSizes draws one distinct non-empty function subset for each
// requested size.
func subsetsOfSizes(rng *rand.Rand, sizes []int) []uint {
	var out []uint
	seen := map[uint]bool{}
	for _, n := range sizes {
		for {
			var m uint
			for _, j := range rng.Perm(numFuncs)[:n] {
				m |= 1 << j
			}
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
				break
			}
		}
	}
	return out
}

// allSubsets lists every non-empty function subset.
func allSubsets() []uint {
	out := make([]uint, 0, 1<<numFuncs-1)
	for m := uint(1); m < 1<<numFuncs; m++ {
		out = append(out, m)
	}
	return out
}

// genDoc is one generated document: its name, canonical serialization (the
// bytes GET /doc returns for it) and its function calls per function.
type genDoc struct {
	name  string
	body  []byte
	calls [numFuncs]int
}

// forbiddenCalls counts the calls a receiver forbidding the bit set must
// have the peer invoke: services return data only, so this is the exact
// invocation count of a Safe-mode exchange.
func (d *genDoc) forbiddenCalls(forbidden uint) int {
	n := 0
	for j, k := range d.calls {
		if forbidden&(1<<j) != 0 {
			n += k
		}
	}
	return n
}

// docShape parameterizes document generation. Sizes and slot counts are
// fixed by the caller, so the population's totals do not depend on the
// seed; the seed decides the text, the keys and where the slots fall.
type docShape struct {
	bytes          int     // target serialized size
	callsPerBlock  float64 // function calls beyond one of every function, per block
	valuesPerBlock float64 // slots holding a materialized output instead, per block
	paraWords      [2]int  // words per paragraph, min and max
	tailCall       int     // if >= 0: the only slot is a call of this function in the last block
}

// makeDoc generates one document of the sender schema: blocks of text up to
// the target size, then the slots. Unless the shape asks for a single tail
// call, every function is called at least once, so every receiver forces at
// least one invocation.
func (c *corpus) makeDoc(rng *rand.Rand, name string, sh docShape) (*genDoc, error) {
	g := &genDoc{name: name}
	root := doc.Elem("report", elemText("title", words(rng, 3, 6)))
	for size := 120; size < sh.bytes; {
		blk := doc.Elem("block", elemText("heading", words(rng, 2, 5)))
		for p := 1 + rng.Intn(3); p > 0; p-- {
			blk.Children = append(blk.Children, elemText("para", words(rng, sh.paraWords[0], sh.paraWords[1])))
		}
		size += estimateSize(blk)
		root.Children = append(root.Children, blk)
	}
	blocks := root.Children[1:]
	// slots[b][j] is block b's content for function j's slot.
	slots := make([][numFuncs][]*doc.Node, len(blocks))
	free := make([]int, 0, len(blocks)*numFuncs) // free (block, function) positions
	for i := 0; i < len(blocks)*numFuncs; i++ {
		free = append(free, i)
	}
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	take := func(j int) int { // a free block for function j, or -1
		for i, pos := range free {
			if pos%numFuncs == j {
				free = append(free[:i], free[i+1:]...)
				return pos / numFuncs
			}
		}
		return -1
	}
	if sh.tailCall >= 0 {
		slots[len(blocks)-1][sh.tailCall] = c.slot(rng, g, sh.tailCall, true)
	} else {
		for j := 0; j < numFuncs; j++ {
			b := take(j)
			if b < 0 {
				return nil, fmt.Errorf("document %s: no room for a call of F%d", name, j)
			}
			slots[b][j] = c.slot(rng, g, j, true)
		}
		calls := int(math.Round(sh.callsPerBlock * float64(len(blocks))))
		values := int(math.Round(sh.valuesPerBlock * float64(len(blocks))))
		if calls+values > len(free) {
			return nil, fmt.Errorf("document %s: %d slots do not fit", name, calls+values)
		}
		for i, pos := range free[:calls+values] {
			b, j := pos/numFuncs, pos%numFuncs
			slots[b][j] = c.slot(rng, g, j, i < calls)
		}
	}
	for b, blk := range blocks {
		for j := range slots[b] {
			blk.Children = append(blk.Children, slots[b][j]...)
		}
	}
	var buf bytes.Buffer
	if err := xmlio.Write(&buf, root); err != nil {
		return nil, err
	}
	g.body = buf.Bytes()
	if err := checkCanonical(g.body); err != nil {
		return nil, fmt.Errorf("document %s: %w", name, err)
	}
	return g, nil
}

// slot builds slot j's content: a call of Fj with a fresh key, or a
// materialized instance of Fj's output type.
func (c *corpus) slot(rng *rand.Rand, g *genDoc, j int, call bool) []*doc.Node {
	key := fmt.Sprintf("k%d", rng.Intn(1_000_000))
	if call {
		g.calls[j]++
		return []*doc.Node{doc.Call(fmt.Sprintf("F%d", j), elemText("key", key))}
	}
	return serviceOutput(c.outTypes[j], j, key)
}

// slotIndex maps a slot label (Fj, rj or sj) to j, and anything else to -1.
func slotIndex(label string) int {
	if len(label) == 2 && strings.IndexByte("Frs", label[0]) >= 0 && label[1] >= '0' && label[1] < '0'+numFuncs {
		return int(label[1] - '0')
	}
	return -1
}

// serviceOutput is the simulated service Fj: a deterministic instance of its
// output type derived from the key, so a (document, receiver) pair always
// yields the same response bytes while different keys exercise different
// output words.
func serviceOutput(outType string, j int, key string) []*doc.Node {
	h := fnv.New32a()
	h.Write([]byte(key))
	v := h.Sum32()
	r, s := fmt.Sprintf("r%d", j), fmt.Sprintf("s%d", j)
	val := func(i uint32) *doc.Node { return elemText(r, fmt.Sprintf("v%x-%d", v, i)) }
	sval := func(i uint32) *doc.Node { return elemText(s, fmt.Sprintf("w%x-%d", v, i)) }
	switch {
	case outType == r:
		return []*doc.Node{val(0)}
	case outType == r+"*":
		out := make([]*doc.Node, 0, 3)
		for i := uint32(0); i < v%4; i++ {
			out = append(out, val(i))
		}
		return out
	case strings.HasSuffix(outType, "?"):
		if v%2 == 0 {
			return []*doc.Node{val(0)}
		}
		return []*doc.Node{val(0), sval(0)}
	default: // rj.sj*
		out := []*doc.Node{val(0)}
		for i := uint32(0); i < v%4; i++ {
			out = append(out, sval(i))
		}
		return out
	}
}

func elemText(label, text string) *doc.Node { return doc.Elem(label, doc.TextNode(text)) }

// words draws between lo and hi lowercase words.
func words(rng *rand.Rand, lo, hi int) string {
	n := lo + rng.Intn(hi-lo+1)
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		for k := 3 + rng.Intn(7); k > 0; k-- {
			b.WriteByte(byte('a' + rng.Intn(26)))
		}
	}
	return b.String()
}

// estimateSize approximates a subtree's serialized size at block depth.
func estimateSize(n *doc.Node) int {
	switch n.Kind {
	case doc.Text:
		return len(n.Value) + 1
	case doc.Func:
		size := 64 + len(n.Label)
		for _, ch := range n.Children {
			size += 40 + estimateSize(ch)
		}
		return size
	}
	size := 2*len(n.Label) + 8
	for _, ch := range n.Children {
		size += estimateSize(ch)
	}
	return size
}

// checkCanonical requires that parsing and re-serializing body reproduces
// it byte for byte, so the read-your-writes oracle can compare GET bodies
// with the PUT bodies directly.
func checkCanonical(body []byte) error {
	d, err := xmlio.Parse(bytes.NewReader(body))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := xmlio.Write(&buf, d); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), body) {
		return fmt.Errorf("serialization is not a parse fixpoint")
	}
	return nil
}

// countForbidden counts function nodes of the forbidden set in a response.
func countForbidden(root *doc.Node, forbidden uint) int {
	n := 0
	root.Walk(func(x *doc.Node) bool {
		if x.Kind == doc.Func {
			if j := slotIndex(x.Label); j >= 0 && forbidden&(1<<j) != 0 {
				n++
			}
		}
		return true
	})
	return n
}
