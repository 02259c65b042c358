package service

import (
	"context"
	"errors"
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/schema"
)

func tempHandler(params []*doc.Node) ([]*doc.Node, error) {
	return []*doc.Node{doc.Elem("temp", doc.TextNode("15"))}, nil
}

func TestRegistryBasics(t *testing.T) {
	s := schema.MustParseText("elem city = data\nelem temp = data", nil)
	r := NewRegistry()
	if err := r.RegisterFunc(s, "Get_Temp", "city", "temp", tempHandler); err != nil {
		t.Fatal(err)
	}
	if s.Funcs["Get_Temp"] == nil {
		t.Fatal("RegisterFunc did not declare the function")
	}
	op, ok := r.Lookup("Get_Temp")
	if !ok || op.Def.Name != "Get_Temp" {
		t.Fatal("Lookup failed")
	}
	out, err := r.Call(context.Background(), "Get_Temp", nil)
	if err != nil || len(out) != 1 || out[0].Label != "temp" {
		t.Fatalf("Call = %v, %v", out, err)
	}
	if _, err := r.Call(context.Background(), "nope", nil); err == nil {
		t.Error("unknown operation should error")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "Get_Temp" {
		t.Errorf("Names = %v", names)
	}
}

func TestRegistryInvalid(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(nil); err == nil {
		t.Error("nil op accepted")
	}
	if err := r.Register(&Operation{Name: "x"}); err == nil {
		t.Error("handler-less op accepted")
	}
}

func TestRegistryInvoke(t *testing.T) {
	s := schema.MustParseText("elem city = data\nelem temp = data", nil)
	r := NewRegistry()
	if err := r.RegisterFunc(s, "Get_Temp", "city", "temp", func(params []*doc.Node) ([]*doc.Node, error) {
		if len(params) != 1 || params[0].Label != "city" {
			t.Errorf("params = %v", params)
		}
		return tempHandler(params)
	}); err != nil {
		t.Fatal(err)
	}
	out, err := r.Invoke(context.Background(), doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))))
	if err != nil || len(out) != 1 {
		t.Fatalf("Invoke = %v, %v", out, err)
	}
}

func TestChain(t *testing.T) {
	s := schema.MustParseText("elem temp = data", nil)
	first := NewRegistry()
	second := NewRegistry()
	if err := second.RegisterFunc(s, "Remote", "data", "temp", tempHandler); err != nil {
		t.Fatal(err)
	}
	chain := Chain{first, second}
	out, err := chain.Invoke(context.Background(), doc.Call("Remote"))
	if err != nil || len(out) != 1 {
		t.Fatalf("chain fallthrough failed: %v, %v", out, err)
	}
	if _, err := chain.Invoke(context.Background(), doc.Call("Nowhere")); err == nil {
		t.Error("unresolvable call should error")
	}
	if _, err := (Chain{}).Invoke(context.Background(), doc.Call("X")); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("empty chain error = %v", err)
	}
}

func TestChainStopsOnSuccess(t *testing.T) {
	s := schema.MustParseText("elem temp = data", nil)
	first := NewRegistry()
	if err := first.RegisterFunc(s, "Op", "data", "temp", tempHandler); err != nil {
		t.Fatal(err)
	}
	second := NewRegistry()
	if err := second.RegisterFunc(s, "Op", "data", "temp", func([]*doc.Node) ([]*doc.Node, error) {
		t.Error("second invoker must not be reached")
		return nil, errors.New("x")
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := (Chain{first, second}).Invoke(context.Background(), doc.Call("Op")); err != nil {
		t.Fatal(err)
	}
}

func TestPredicateRegistry(t *testing.T) {
	p := NewPredicateRegistry()
	p.Define("always", func(string, *regex.Regex, *regex.Regex) bool { return true })
	pred, ok := p.Get("always")
	if !ok || !pred("anything", nil, nil) {
		t.Error("predicate registry lookup failed")
	}
	if _, ok := p.Get("missing"); ok {
		t.Error("missing predicate found")
	}
	m := p.Map()
	if len(m) != 1 || m["always"] == nil {
		t.Errorf("Map = %v", m)
	}
}

func TestBuiltinPredicates(t *testing.T) {
	s := schema.MustParseText("elem temp = data", nil)
	reg := NewRegistry()
	if err := reg.RegisterFunc(s, "Listed", "data", "temp", tempHandler); err != nil {
		t.Fatal(err)
	}
	uddi := RegistryListed(reg)
	if !uddi("Listed", nil, nil) || uddi("Ghost", nil, nil) {
		t.Error("RegistryListed wrong")
	}
	acl := ACL("Listed", "Other")
	if !acl("Listed", nil, nil) || acl("Ghost", nil, nil) {
		t.Error("ACL wrong")
	}
	both := And(uddi, acl)
	if !both("Listed", nil, nil) {
		t.Error("And should pass Listed")
	}
	aclOnly := And(uddi, ACL("Ghost"))
	if aclOnly("Listed", nil, nil) {
		t.Error("And should fail when one predicate fails")
	}
	if !And()("x", nil, nil) {
		t.Error("empty And should pass")
	}
	if !And(nil, acl)("Listed", nil, nil) {
		t.Error("nil predicates are skipped")
	}
}

// TestFindBySignature: UDDI-style search for services by signature.
func TestFindBySignature(t *testing.T) {
	s := schema.MustParseText(`
elem city = data
elem temp = data
func Get_Temp_Paris = city -> temp
func Get_Temp_Oslo = city -> temp
func Get_City = data -> city
`, nil)
	reg := NewRegistry()
	for _, name := range s.SortedFuncs() {
		def := s.Funcs[name]
		must := reg.Register(&Operation{Name: name, Def: def, Handler: tempHandler})
		if must != nil {
			t.Fatal(must)
		}
	}
	in := regex.MustParse(s.Table, "city")
	out := regex.MustParse(s.Table, "temp")
	got := reg.FindBySignature(in, out)
	if len(got) != 2 || got[0] != "Get_Temp_Oslo" || got[1] != "Get_Temp_Paris" {
		t.Errorf("FindBySignature = %v", got)
	}
	if got := reg.FindBySignature(nil, nil); len(got) != 0 {
		t.Errorf("data->data should match nothing here: %v", got)
	}
}

// TestRegistryWithRewriter wires a registry into a core.Rewriter: the
// paper's Figure 2 flow against a live (in-process) service.
func TestRegistryWithRewriter(t *testing.T) {
	sender := schema.MustParseText(`
root newspaper
elem newspaper = title.(Get_Temp|temp)
elem title = data
elem temp = data
elem city = data
func Get_Temp = city -> temp
`, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), `
root newspaper
elem newspaper = title.temp
elem title = data
elem temp = data
elem city = data
func Get_Temp = city -> temp
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Register(&Operation{Name: "Get_Temp", Def: sender.Funcs["Get_Temp"], Handler: tempHandler}); err != nil {
		t.Fatal(err)
	}
	rw := core.NewRewriterWithConfig(sender, target, core.RewriterConfig{Depth: 1, Invoker: reg})
	root := doc.Elem("newspaper",
		doc.Elem("title", doc.TextNode("The Sun")),
		doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))))
	out, err := rw.RewriteDocument(context.Background(), root, core.Safe)
	if err != nil {
		t.Fatal(err)
	}
	if out.Children[1].Label != "temp" {
		t.Errorf("temp not materialized: %v", out.ChildLabels())
	}
}
