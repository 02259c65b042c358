package core

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"axml/internal/doc"
	"axml/internal/schema"
)

// TestConverterRename: a service speaks a synonymous vocabulary; the rename
// converter reconciles it.
func TestConverterRename(t *testing.T) {
	sender := schema.MustParseText(`
root page
elem page = temp
elem temp = data
elem city = data
func Get_Temp = city -> temp
`, nil)
	inv := stubInvoker{
		// Returns <temperature> instead of the declared <temp>.
		"Get_Temp": ret(doc.Elem("temperature", doc.TextNode("15"))),
	}
	rw := NewRewriterWithConfig(sender, sender, RewriterConfig{Depth: 1, Invoker: inv})
	root := doc.Elem("page", doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))))

	// Without converters the exchange fails.
	if _, err := rw.RewriteDocument(context.Background(), root.Clone(), Safe); err == nil {
		t.Fatal("non-conforming result should fail without converters")
	}
	// With the rename converter it heals.
	rw.Converters = Converters{RenameLabels(map[string]string{"temperature": "temp"})}
	out, err := rw.RewriteDocument(context.Background(), root.Clone(), Safe)
	if err != nil {
		t.Fatal(err)
	}
	if out.Children[0].Label != "temp" {
		t.Errorf("converted result = %v", out.Children[0])
	}
}

// TestConverterUnwrap: the service wraps its answer in an envelope element.
func TestConverterUnwrap(t *testing.T) {
	sender := schema.MustParseText(`
root page
elem page = temp
elem temp = data
elem city = data
func Get_Temp = city -> temp
`, nil)
	inv := stubInvoker{
		"Get_Temp": ret(doc.Elem("result", doc.Elem("temp", doc.TextNode("15")))),
	}
	rw := NewRewriterWithConfig(sender, sender, RewriterConfig{Depth: 1, Invoker: inv})
	rw.Converters = Converters{Unwrap("result")}
	root := doc.Elem("page", doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))))
	out, err := rw.RewriteDocument(context.Background(), root, Safe)
	if err != nil {
		t.Fatal(err)
	}
	if out.Children[0].Label != "temp" {
		t.Errorf("unwrapped result = %v", out.Children[0])
	}
}

// TestConverterMapValues: the paper's Celsius-to-Fahrenheit example — the
// value is translated, the structure already matches.
func TestConverterMapValues(t *testing.T) {
	// The structure conforms but the value is in the wrong unit; structural
	// validation cannot see that, so this test exercises MapValues directly
	// combined with a renaming that makes the structural mismatch visible.
	celsiusToF := func(s string) (string, bool) {
		c, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return "", false
		}
		return strconv.FormatFloat(c*9/5+32, 'g', -1, 64), true
	}
	conv := MapValues("temp", celsiusToF)
	out, ok := conv.Convert("Get_Temp", []*doc.Node{doc.Elem("temp", doc.TextNode("15"))})
	if !ok {
		t.Fatal("conversion refused")
	}
	if out[0].Children[0].Value != "59" {
		t.Errorf("15°C = %s°F, want 59", out[0].Children[0].Value)
	}
	// Non-numeric content refuses, leaving the original untouched.
	orig := []*doc.Node{doc.Elem("temp", doc.TextNode("warm"))}
	if _, ok := conv.Convert("Get_Temp", orig); ok {
		t.Error("non-numeric conversion should refuse")
	}
	if orig[0].Children[0].Value != "warm" {
		t.Error("failed conversion mutated its input")
	}
}

// TestConverterChainOrder: the first conforming restructuring wins; failing
// converters are skipped.
func TestConverterChainOrder(t *testing.T) {
	sender := schema.MustParseText(`
root page
elem page = temp
elem temp = data
elem city = data
func Get_Temp = city -> temp
`, nil)
	inv := stubInvoker{
		"Get_Temp": ret(doc.Elem("warmth", doc.TextNode("15"))),
	}
	rw := NewRewriterWithConfig(sender, sender, RewriterConfig{Depth: 1, Invoker: inv})
	rw.Converters = Converters{
		Unwrap("result"), // does not apply
		RenameLabels(map[string]string{"warmth": "wrongname"}), // applies but still invalid
		RenameLabels(map[string]string{"warmth": "temp"}),      // heals
	}
	root := doc.Elem("page", doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))))
	out, err := rw.RewriteDocument(context.Background(), root, Safe)
	if err != nil {
		t.Fatal(err)
	}
	if out.Children[0].Label != "temp" {
		t.Errorf("result = %v", out.Children[0])
	}
}
