// The paper's running example, end to end: the newspaper document of
// Figure 2 against the three schemas (*), (**) and (***) of Section 2,
// exercising safe, possible and mixed rewriting plus schema-level
// compatibility (Section 6).
//
//	go run ./examples/newspaper
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"axml"
)

const starSchema = `
root newspaper
elem newspaper = title.date.(Get_Temp|temp).(TimeOut|exhibit*)
elem title = data
elem date = data
elem temp = data
elem city = data
elem exhibit = title.date
elem performance = data
func Get_Temp = city -> temp
func TimeOut = data -> (exhibit|performance)*
`

func newspaper() *axml.Node {
	return axml.Elem("newspaper",
		axml.Elem("title", axml.Text("The Sun")),
		axml.Elem("date", axml.Text("04/10/2002")),
		axml.Call("Get_Temp", axml.Elem("city", axml.Text("Paris"))),
		axml.Call("TimeOut", axml.Text("exhibits")),
	)
}

// services simulates the two Web services. TimeOut's reply is configurable
// so we can show both the lucky and the unlucky possible-rewriting runs.
func services(timeOutReturnsPerformance bool) axml.Invoker {
	return axml.ContextInvokerFunc(func(_ context.Context, call *axml.Node) ([]*axml.Node, error) {
		switch call.Label {
		case "Get_Temp":
			return []*axml.Node{axml.Elem("temp", axml.Text("15"))}, nil
		case "TimeOut":
			if timeOutReturnsPerformance {
				return []*axml.Node{axml.Elem("performance", axml.Text("Carmen"))}, nil
			}
			return []*axml.Node{
				axml.Elem("exhibit", axml.Elem("title", axml.Text("Dali")), axml.Elem("date", axml.Text("2002"))),
				axml.Elem("exhibit", axml.Elem("title", axml.Text("Monet")), axml.Elem("date", axml.Text("2003"))),
			}, nil
		default:
			return nil, fmt.Errorf("unknown service %q", call.Label)
		}
	})
}

func main() {
	ctx := context.Background()
	sender := axml.MustParseSchemaText(starSchema)
	mk := func(model string) *axml.Schema {
		return axml.MustParseSchemaTextShared(sender, strings.Replace(starSchema,
			"elem newspaper = title.date.(Get_Temp|temp).(TimeOut|exhibit*)",
			"elem newspaper = "+model, 1))
	}
	starStar := mk("title.date.temp.(TimeOut|exhibit*)") // (**)
	tripleStar := mk("title.date.temp.exhibit*")         // (***)

	fmt.Println("== document-level checks (Figure 2's word) ==")
	check := func(name string, target *axml.Schema, mode axml.Mode) {
		rw := axml.NewRewriterWithConfig(sender, target, axml.RewriterConfig{Depth: 1})
		err := rw.CheckDocument(newspaper(), mode)
		verdict := "YES"
		if err != nil {
			verdict = "no — " + err.Error()
		}
		fmt.Printf("  %-10s into %-12s: %s\n", mode, name, verdict)
	}
	check("(**)", starStar, axml.Safe)        // YES  (Figure 6)
	check("(***)", tripleStar, axml.Safe)     // no   (Figure 8)
	check("(***)", tripleStar, axml.Possible) // YES  (Figure 11)

	fmt.Println("\n== safe execution into (**) ==")
	rw := axml.NewRewriterWithConfig(sender, starStar, axml.RewriterConfig{Depth: 1, Invoker: services(false)})
	out, err := rw.RewriteDocument(ctx, newspaper(), axml.Safe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  children after: %v\n", out.ChildLabels())
	for _, c := range rw.Audit.Calls() {
		fmt.Printf("  invoked %s (returned %d nodes)\n", c.Func, c.ResultNodes)
	}

	fmt.Println("\n== possible execution into (***) — lucky TimeOut ==")
	rw = axml.NewRewriterWithConfig(sender, tripleStar, axml.RewriterConfig{Depth: 1, Invoker: services(false)})
	out, err = rw.RewriteDocument(ctx, newspaper(), axml.Possible)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  children after: %v (calls: %d)\n", out.ChildLabels(), rw.Audit.Len())

	fmt.Println("\n== possible execution into (***) — unlucky TimeOut ==")
	rw = axml.NewRewriterWithConfig(sender, tripleStar, axml.RewriterConfig{Depth: 1, Invoker: services(true)})
	if _, err = rw.RewriteDocument(ctx, newspaper(), axml.Possible); err != nil {
		fmt.Printf("  failed as expected: %v\n", err)
		fmt.Printf("  side effects on record: %d calls\n", rw.Audit.Len())
	} else {
		log.Fatal("unexpected success")
	}

	fmt.Println("\n== mixed execution into (***) — pre-invoke, then prove safety ==")
	rw = axml.NewRewriterWithConfig(sender, tripleStar, axml.RewriterConfig{Depth: 1, Invoker: services(false)})
	out, err = rw.RewriteDocument(ctx, newspaper(), axml.Mixed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  children after: %v\n", out.ChildLabels())

	fmt.Println("\n== schema-level compatibility (Section 6) ==")
	for _, tc := range []struct {
		name   string
		target *axml.Schema
	}{
		{"(**)", starStar},
		{"(***)", tripleStar},
	} {
		report, err := axml.SchemaCompatible(sender, tc.target, "", 1)
		if err != nil {
			log.Fatal(err)
		}
		if report.Safe() {
			fmt.Printf("  every (*) document safely rewrites into %s\n", tc.name)
		} else {
			fmt.Printf("  (*) does NOT safely rewrite into %s:\n", tc.name)
			for _, f := range report.Failures() {
				fmt.Printf("    %s: %s\n", f.Label, f.Reason)
			}
		}
	}
}
