package store

import (
	"fmt"
	"testing"

	"axml/internal/doc"
)

// TestRenderedVersionsBounded: a Repository keeps rendering slots for at
// most renderedVersions documents, dropping the least recently exchanged.
func TestRenderedVersionsBounded(t *testing.T) {
	r := NewRepository()
	name := func(i int) string { return fmt.Sprint("d", i) }
	for i := 0; i <= renderedVersions; i++ {
		if err := r.Put(name(i), doc.Elem("page", doc.TextNode(name(i)))); err != nil {
			t.Fatal(err)
		}
		r.GetRendered(name(i))
		if _, rd, _ := r.GetRendered(name(i)); rd == nil {
			t.Fatalf("%s read twice has no rendering", name(i))
		}
	}
	if got := r.renders.len(); got != renderedVersions {
		t.Errorf("%d rendering slots kept, want %d", got, renderedVersions)
	}
	if _, rd, _ := r.GetRendered(name(0)); rd != nil {
		t.Error("the least recently exchanged version kept its rendering")
	}
	if _, rd, _ := r.GetRendered(name(renderedVersions)); rd == nil {
		t.Error("the most recently exchanged version lost its rendering")
	}
}
