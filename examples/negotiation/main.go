// Negotiation and automatic converters — the two extensions sketched in the
// paper's conclusion (§8). A sender peer holds an intensional document and
// three receivers propose different exchange schemas; the negotiator picks
// the weakest discipline that works for each. A legacy weather service then
// returns data in a synonymous vocabulary, and a converter chain heals it.
//
//	go run ./examples/negotiation
package main

import (
	"fmt"
	"log"

	"axml"
)

const senderSrc = `
root newspaper
elem newspaper = title.(Get_Temp|temp).(TimeOut|exhibit*)
elem title = data
elem temp = data
elem city = data
elem exhibit = title
elem performance = data
func Get_Temp = city -> temp
func TimeOut = data -> (exhibit|performance)*
`

func main() {
	s := axml.MustParseSchemaText(senderSrc)
	p := axml.NewPeer("news", s)
	p.Repo.Put("today", axml.Elem("newspaper",
		axml.Elem("title", axml.Text("The Sun")),
		axml.Call("Get_Temp", axml.Elem("city", axml.Text("Paris"))),
		axml.Call("TimeOut", axml.Text("exhibits")),
	))

	mk := func(model string) *axml.Schema {
		return axml.MustParseSchemaTextShared(s, `
root newspaper
elem newspaper = `+model+`
elem title = data
elem temp = data
elem city = data
elem exhibit = title
elem performance = data
func Get_Temp = city -> temp
func TimeOut = data -> (exhibit|performance)*
`)
	}

	fmt.Println("== negotiating an exchange schema per receiver ==")
	receivers := []struct {
		name      string
		proposals []string
	}{
		{"browser (wants everything concrete)", []string{"title.temp.exhibit*"}},
		{"cautious peer (temp concrete, listing may stay a call)", []string{"title.temp.(TimeOut|exhibit*)"}},
		{"axml peer (accepts fully intensional)", []string{
			"title.(Get_Temp|temp).(TimeOut|exhibit*)",
			"title.temp.(TimeOut|exhibit*)",
		}},
	}
	for _, rcv := range receivers {
		var props []axml.PeerProposal
		for i, model := range rcv.proposals {
			props = append(props, axml.PeerProposal{
				Name:   fmt.Sprintf("option-%d (%s)", i+1, model),
				Schema: mk(model),
			})
		}
		agreement, err := p.Negotiate("today", props)
		if err != nil {
			fmt.Printf("  %-55s no agreement: %v\n", rcv.name, err)
			continue
		}
		how := string(agreement.Mode.String())
		if agreement.AsIs {
			how = "as-is (zero calls)"
		}
		fmt.Printf("  %-55s -> %s via %s rewriting\n", rcv.name, agreement.Proposal.Name, how)
	}

	fmt.Println("\n== converters heal a legacy service's vocabulary ==")
	legacy := axml.InvokerFunc(func(call *axml.Node) ([]*axml.Node, error) {
		switch call.Label {
		case "Get_Temp":
			// Legacy vocabulary AND an envelope wrapper.
			return []*axml.Node{axml.Elem("weatherResult",
				axml.Elem("temperature", axml.Text("15")))}, nil
		case "TimeOut":
			return []*axml.Node{axml.Elem("exhibit", axml.Elem("title", axml.Text("Dali")))}, nil
		default:
			return nil, fmt.Errorf("unknown service %q", call.Label)
		}
	})
	target := mk("title.temp.exhibit*")
	rw := axml.NewRewriter(s, target, 1, legacy)
	rw.Audit = &axml.Audit{}

	// The store shares its tree read-only; each rewriting takes its own copy.
	stored, _ := p.Repo.Get("today")
	if _, err := rw.RewriteDocument(stored.Clone(), axml.Possible); err != nil {
		fmt.Printf("  without converters: %v\n", err)
	}
	rw.Converters = axml.Converters{axml.InlineConverter(
		func(fn string, forest []*axml.Node) ([]*axml.Node, bool) {
			unwrapped, ok1 := axml.UnwrapElement("weatherResult").Convert(fn, forest)
			if !ok1 {
				unwrapped = forest
			}
			renamed, ok2 := axml.RenameLabels(map[string]string{"temperature": "temp"}).Convert(fn, unwrapped)
			if !ok2 {
				renamed = unwrapped
			}
			return renamed, ok1 || ok2
		})}
	out, err := rw.RewriteDocument(stored.Clone(), axml.Possible)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  with converters: %v\n", out.ChildLabels())
	if err := axml.Validate(target, s, out); err != nil {
		log.Fatal("result invalid: ", err)
	}
	fmt.Println("  healed result conforms to the exchange schema ✓")
}
