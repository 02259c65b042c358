package xmlio

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"math/rand"
	"testing"

	"axml/internal/doc"
)

func sampleDocs() map[string]*doc.Node {
	return map[string]*doc.Node{
		"empty":  doc.Elem("a"),
		"inline": doc.Elem("a", doc.TextNode("hello & <world>")),
		"block": doc.Elem("a",
			doc.Elem("b", doc.TextNode("x")),
			doc.Elem("c"),
			doc.Elem("d", doc.Elem("e", doc.TextNode("deep")), doc.TextNode("mixed")),
		),
		"func": doc.Elem("root",
			doc.Elem("plain", doc.TextNode("v")),
			doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))),
		),
		"funcroot": doc.Call("Mk", doc.TextNode("m"), doc.Elem("p", doc.TextNode("q"))),
	}
}

// TestWriteToMatchesWrite: the pooled serializer that writes through a
// fixed window is byte-identical to the buffer-based one.
func TestWriteToMatchesWrite(t *testing.T) {
	for name, d := range sampleDocs() {
		var a, b bytes.Buffer
		if err := Write(&a, d); err != nil {
			t.Fatalf("%s: Write: %v", name, err)
		}
		if err := WriteTo(&b, d); err != nil {
			t.Fatalf("%s: WriteTo: %v", name, err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: WriteTo diverges from Write\n--- Write ---\n%s\n--- WriteTo ---\n%s",
				name, a.Bytes(), b.Bytes())
		}
	}
}

// TestAppendMatchesWrite: the append-style printer writes Write's bytes
// after whatever dst already holds, on fixtures and random documents.
func TestAppendMatchesWrite(t *testing.T) {
	docs := sampleDocs()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		docs[fmt.Sprintf("rand%d", i)] = randDoc(rng, 4)
	}
	for name, d := range docs {
		var want bytes.Buffer
		if err := Write(&want, d); err != nil {
			t.Fatalf("%s: Write: %v", name, err)
		}
		got := Append([]byte("prefix"), d)
		if string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want.Bytes()) {
			t.Errorf("%s: Append diverges from Write\n--- Write ---\n%s\n--- Append ---\n%s",
				name, want.Bytes(), got)
		}
	}
}

// TestAppendFragmentMatchesWrite: a fragment at depth 0 is Write's output
// without the declaration and the trailing newline, and one call over a
// forest appends what one call per node appends.
func TestAppendFragmentMatchesWrite(t *testing.T) {
	docs := sampleDocs()
	for name, d := range docs {
		var want bytes.Buffer
		if err := Write(&want, d); err != nil {
			t.Fatalf("%s: Write: %v", name, err)
		}
		got := AppendFragment([]byte(xml.Header), []*doc.Node{d}, 0, d.HasFuncs())
		if !bytes.Equal(append(got, '\n'), want.Bytes()) {
			t.Errorf("%s: AppendFragment diverges from Write\n--- Write ---\n%s\n--- AppendFragment ---\n%s",
				name, want.Bytes(), got)
		}
	}
	forest := []*doc.Node{docs["block"], doc.TextNode("t"), docs["func"], docs["funcroot"]}
	one := []byte("prefix")
	for _, n := range forest {
		one = AppendFragment(one, []*doc.Node{n}, 3, false)
	}
	if all := AppendFragment([]byte("prefix"), forest, 3, false); !bytes.Equal(all, one) {
		t.Errorf("forest in one call:\n%s\nnode by node:\n%s", all, one)
	}
}

// TestAppendAllocations: appending into a buffer with room allocates
// nothing, for a document and for a fragment with text to escape.
func TestAppendAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	d := sampleDocs()["func"]
	forest := []*doc.Node{d, doc.Elem("e", doc.TextNode(`a<b & "c"`))}
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() { Append(buf[:0], d) }); n != 0 {
		t.Errorf("Append = %v allocations", n)
	}
	if n := testing.AllocsPerRun(100, func() { AppendFragment(buf[:0], forest, 3, false) }); n != 0 {
		t.Errorf("AppendFragment = %v allocations", n)
	}
}
