// Quickstart: materialize an intensional newspaper document so that it
// conforms to a receiver's exchange schema.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"axml"
)

func main() {
	ctx := context.Background()
	// The sender's schema: a newspaper may carry either a materialized
	// temperature or a call to a weather service.
	sender := axml.MustParseSchemaText(`
root newspaper
elem newspaper = title.(Get_Temp|temp)
elem title = data
elem temp = data
elem city = data
func Get_Temp = city -> temp
`)
	// The agreed exchange schema: the receiver insists on a concrete temp.
	target := axml.MustParseSchemaTextShared(sender, `
root newspaper
elem newspaper = title.temp
elem title = data
elem temp = data
elem city = data
func Get_Temp = city -> temp
`)

	// The intensional document: temperature still a service call.
	page := axml.Elem("newspaper",
		axml.Elem("title", axml.Text("The Sun")),
		axml.Call("Get_Temp", axml.Elem("city", axml.Text("Paris"))),
	)
	fmt.Println("--- before ---")
	_ = axml.WriteDocument(os.Stdout, page)

	// The "Web service" (in-process here; see examples/searchengine for a
	// real SOAP endpoint).
	weather := axml.ContextInvokerFunc(func(_ context.Context, call *axml.Node) ([]*axml.Node, error) {
		city := call.Children[0].Children[0].Value
		fmt.Printf("... Get_Temp(%s) invoked\n", city)
		return []*axml.Node{axml.Elem("temp", axml.Text("15"))}, nil
	})

	// Safe rewriting: the rewriter proves success before calling anything.
	rw := axml.NewRewriterWithConfig(sender, target, axml.RewriterConfig{Depth: 1, Invoker: weather})
	out, err := rw.RewriteDocument(ctx, page, axml.Safe)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("--- after ---")
	_ = axml.WriteDocument(os.Stdout, out)
	fmt.Printf("calls made: %d\n", rw.Audit.Len())

	if err := axml.Validate(target, nil, out); err != nil {
		log.Fatal("result does not conform: ", err)
	}
	fmt.Println("result conforms to the exchange schema ✓")
}
