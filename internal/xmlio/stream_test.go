package xmlio

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
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

// TestWriteToMatchesWrite: the pooled streaming serializer is byte-identical
// to the buffer-based one.
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

// replay drives an emitter from a tree source, the way the streaming engine
// does for accepted content.
func replay(t *testing.T, root *doc.Node) []byte {
	t.Helper()
	var out bytes.Buffer
	em := NewEmitter(&out)
	src := NewTreeSource(root)
	for {
		ev, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case EventStart:
			em.StartElement(ev.Label)
		case EventText:
			em.Text(ev.Text)
		case EventFunc:
			em.Tree(ev.Node)
		case EventEnd:
			em.EndElement()
		case EventEOF:
			if err := em.End(); err != nil {
				t.Fatal(err)
			}
			return out.Bytes()
		}
	}
}

// TestEmitterMatchesWrite: replaying function-free documents event by event
// reproduces the batch printer's bytes — all three element forms, nesting,
// escaping.
func TestEmitterMatchesWrite(t *testing.T) {
	for name, d := range sampleDocs() {
		if d.HasFuncs() {
			continue // emitted documents are function-free by construction
		}
		var want bytes.Buffer
		if err := Write(&want, d); err != nil {
			t.Fatal(err)
		}
		got := replay(t, d)
		if !bytes.Equal(want.Bytes(), got) {
			t.Errorf("%s: emitter diverges from Write\n--- Write ---\n%s\n--- Emitter ---\n%s",
				name, want.Bytes(), got)
		}
	}
}

// TestEmitterFinish: Finish with the full child list in hand reaches the
// empty and inline forms the incremental API alone cannot.
func TestEmitterFinish(t *testing.T) {
	cases := map[string]struct {
		kids []*doc.Node
		want *doc.Node
	}{
		"empty":  {nil, doc.Elem("r", doc.Elem("a"))},
		"inline": {[]*doc.Node{doc.TextNode("t")}, doc.Elem("r", doc.Elem("a", doc.TextNode("t")))},
		"block": {[]*doc.Node{doc.Elem("b"), doc.TextNode("t")},
			doc.Elem("r", doc.Elem("a", doc.Elem("b"), doc.TextNode("t")))},
	}
	for name, tc := range cases {
		var want bytes.Buffer
		if err := Write(&want, tc.want); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		em := NewEmitter(&out)
		em.StartElement("r")
		em.StartElement("a")
		em.Finish(tc.kids)
		em.EndElement()
		if err := em.End(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), out.Bytes()) {
			t.Errorf("%s: Finish diverges\n--- want ---\n%s\n--- got ---\n%s",
				name, want.Bytes(), out.Bytes())
		}
	}
}

// TestReaderSourceMatchesTreeSource: parsing serialized bytes yields the
// exact event sequence of walking the original tree.
func TestReaderSourceMatchesTreeSource(t *testing.T) {
	for name, d := range sampleDocs() {
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatal(err)
		}
		rs := NewReaderSource(bytes.NewReader(buf.Bytes()))
		ts := NewTreeSource(d)
		for i := 0; ; i++ {
			want, err := ts.Next()
			if err != nil {
				t.Fatal(err)
			}
			got, err := rs.Next()
			if err != nil {
				t.Fatalf("%s: event %d: reader: %v", name, i, err)
			}
			if got.Kind != want.Kind || got.Label != want.Label || got.Text != want.Text {
				t.Fatalf("%s: event %d: reader %+v, tree %+v", name, i, got, want)
			}
			if want.Kind == EventFunc && !got.Node.Equal(want.Node) {
				t.Fatalf("%s: event %d: function subtrees differ:\n%s\nvs\n%s",
					name, i, got.Node, want.Node)
			}
			if want.Kind == EventEOF {
				break
			}
		}
		rs.Close()
	}
}

// TestReaderSourceErrors mirrors Parse's error behavior on broken inputs.
func TestReaderSourceErrors(t *testing.T) {
	drain := func(input string) error {
		s := NewReaderSource(strings.NewReader(input))
		defer s.Close()
		for {
			ev, err := s.Next()
			if err != nil {
				return err
			}
			if ev.Kind == EventEOF {
				return nil
			}
		}
	}
	for name, input := range map[string]string{
		"empty":           "",
		"stray text":      "junk<a/>",
		"unclosed":        "<a><b>",
		"mismatched":      "<a></b>",
		"bad intension":   `<a xmlns:int="http://www.activexml.com/ns/int"><int:nope/></a>`,
		"truncated func":  `<a xmlns:int="http://www.activexml.com/ns/int"><int:fun name="F">`,
		"after the root":  "<a><b>ok</b></a>trailing garbage",
		"after func root": `<int:fun xmlns:int="http://www.activexml.com/ns/int" methodName="F"/><b/>`,
	} {
		if err := drain(input); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	if err := drain("<a><b>ok</b></a>\n<!-- c --><?pi x?>\n"); err != nil {
		t.Errorf("white space, comments and processing instructions may follow the root: %v", err)
	}
}
