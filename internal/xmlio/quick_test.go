package xmlio

import (
	"math/rand"
	"testing"
	"testing/quick"

	"axml/internal/doc"
)

// randDoc builds a random intensional document. Text values avoid
// leading/trailing whitespace (the parser trims) and empty strings (dropped).
func randDoc(rng *rand.Rand, depth int) *doc.Node {
	// Colon-containing labels are excluded: XML namespace prefixes other
	// than int: are not modeled and collapse to local names on parse (see
	// the package documentation).
	labels := []string{"a", "b", "cd", "x-y", "_под"}
	texts := []string{"v", "hello world", "<&>", `"quoted"`, "123", "héllo"}
	label := labels[rng.Intn(len(labels))]
	if depth <= 0 {
		return doc.Elem(label, doc.TextNode(texts[rng.Intn(len(texts))]))
	}
	n := rng.Intn(4)
	kids := make([]*doc.Node, 0, n)
	onlyText := n == 1 && rng.Intn(2) == 0
	if onlyText {
		kids = append(kids, doc.TextNode(texts[rng.Intn(len(texts))]))
	} else {
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				params := []*doc.Node{}
				if rng.Intn(2) == 0 {
					params = append(params, randDoc(rng, depth-1))
				}
				call := doc.Call("F"+labels[rng.Intn(len(labels))], params...)
				if rng.Intn(2) == 0 {
					call.Service = &doc.ServiceRef{
						Endpoint: "http://svc.example/soap",
						Method:   call.Label,
					}
				}
				kids = append(kids, call)
				continue
			}
			kids = append(kids, randDoc(rng, depth-1))
		}
	}
	return doc.Elem(label, kids...)
}

// Property: serialize-then-parse is the identity on random documents.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		orig := randDoc(rng, 4)
		s, err := String(orig)
		if err != nil {
			t.Logf("seed %d: serialize: %v", seed, err)
			return false
		}
		back, err := ParseString(s)
		if err != nil {
			t.Logf("seed %d: parse: %v\n%s", seed, err, s)
			return false
		}
		if !orig.Equal(back) {
			t.Logf("seed %d: round trip changed document:\n%s\nvs\n%s", seed, orig, back)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: AppendFragment output re-parses to the same tree.
func TestQuickFragmentRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		orig := randDoc(rng, 3)
		frag := AppendFragment(nil, []*doc.Node{orig}, 0, orig.HasFuncs())
		back, err := ParseBytes(frag)
		if err != nil {
			return false
		}
		return orig.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
