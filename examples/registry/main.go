// UDDI-like service registry with function patterns (Section 2.1 of the
// paper): the exchange schema does not name a particular weather service —
// it admits *any* function that (a) is listed in the registry (the UDDIF
// predicate), (b) the client may call (the InACL predicate), and (c) has the
// city -> temp signature. Non-invocable functions demonstrate the §2.1
// restriction: a helpful sender must materialize what the receiver refuses
// to call.
//
//	go run ./examples/registry
package main

import (
	"context"
	"fmt"
	"log"

	"axml"
)

func main() {
	ctx := context.Background()
	// The registry knows three weather services.
	registry := axml.NewPeer("uddi", axml.MustParseSchemaText(`
elem city = data
elem temp = data
`)).Services
	sharedSchema := axml.MustParseSchemaText(`
root newspaper
elem newspaper = title.(Forecast|temp)
elem title = data
elem temp = data
elem city = data
func Get_Temp_Paris = city -> temp
func Get_Temp_Oslo = city -> temp
func Rogue_Temp = city -> temp
func Wrong_Shape = data -> city
`)
	tempHandler := func(value string) axml.ServiceHandler {
		return func(params []*axml.Node) ([]*axml.Node, error) {
			return []*axml.Node{axml.Elem("temp", axml.Text(value))}, nil
		}
	}
	for name, value := range map[string]string{
		"Get_Temp_Paris": "15",
		"Get_Temp_Oslo":  "-3",
		// Rogue_Temp is deliberately NOT registered: it fails UDDIF.
	} {
		err := registry.Register(&axml.ServiceOperation{
			Name: name, Def: sharedSchema.Funcs[name], Handler: tempHandler(value),
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// The exchange schema's Forecast pattern: listed in the registry AND on
	// the client's ACL AND signature city -> temp.
	uddif := axml.RegistryListed(registry)
	inACL := axml.ACL("Get_Temp_Paris") // the client may only call the Paris service
	preds := map[string]axml.Predicate{"uddif_and_acl": axml.AndPredicates(uddif, inACL)}

	exchangeSrc := `
root newspaper
elem newspaper = title.(Forecast|temp)
elem title = data
elem temp = data
elem city = data
pattern Forecast = city -> temp {pred=uddif_and_acl}
`
	exchange, err := axml.ParseSchemaTextShared(sharedSchema, exchangeSrc, preds)
	if err != nil {
		log.Fatal(err)
	}

	page := func(service string) *axml.Node {
		return axml.Elem("newspaper",
			axml.Elem("title", axml.Text("Local News")),
			axml.Call(service, axml.Elem("city", axml.Text("Paris"))),
		)
	}

	fmt.Println("== which documents conform to the pattern-based exchange schema? ==")
	for _, svc := range []string{"Get_Temp_Paris", "Get_Temp_Oslo", "Rogue_Temp", "Wrong_Shape"} {
		err := axml.Validate(exchange, sharedSchema, page(svc))
		verdict := "accepted (matches Forecast)"
		if err != nil {
			verdict = "rejected — " + err.Error()
		}
		fmt.Printf("  %-16s %s\n", svc, verdict)
	}

	fmt.Println("\n== the sender must materialize what the receiver cannot call ==")
	// Get_Temp_Oslo is registered but not on the receiver's ACL, so it does
	// not match Forecast; the receiver's schema then only admits a concrete
	// temp. The sender materializes before sending.
	strict, err := axml.ParseSchemaTextShared(sharedSchema, `
root newspaper
elem newspaper = title.temp
elem title = data
elem temp = data
elem city = data
`, nil)
	if err != nil {
		log.Fatal(err)
	}
	rw := axml.NewRewriterWithConfig(sharedSchema, strict, axml.RewriterConfig{Depth: 1, Invoker: registry})
	out, err := rw.RewriteDocument(ctx, page("Get_Temp_Oslo"), axml.Safe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  sent: %v (after %d call)\n", out.ChildLabels(), rw.Audit.Len())

	fmt.Println("\n== non-invocable functions block materialization (§2.1) ==")
	// The same request against a sender schema that marks the service
	// non-invocable (e.g. it costs money): the safe rewriting is refused
	// before anything is called.
	frozenSender, err := axml.ParseSchemaTextShared(sharedSchema, `
root newspaper
elem newspaper = title.(Get_Temp_Oslo|temp)
elem title = data
elem temp = data
elem city = data
func Get_Temp_Oslo = city -> temp {noninvoke}
`, nil)
	if err != nil {
		log.Fatal(err)
	}
	strict2, err := axml.ParseSchemaTextShared(sharedSchema, `
root newspaper
elem newspaper = title.temp
elem title = data
elem temp = data
elem city = data
func Get_Temp_Oslo = city -> temp {noninvoke}
`, nil)
	if err != nil {
		log.Fatal(err)
	}
	rw2 := axml.NewRewriterWithConfig(frozenSender, strict2, axml.RewriterConfig{Depth: 1, Invoker: registry})
	if _, err := rw2.RewriteDocument(ctx, page("Get_Temp_Oslo"), axml.Safe); err != nil {
		fmt.Printf("  refused as required: %v\n", err)
	} else {
		log.Fatal("a non-invocable function was invoked")
	}
}
