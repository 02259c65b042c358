// Search-engine handles over real SOAP (Sections 3 and 7 of the paper): a
// search peer returns a page of URLs plus a Get_More function node — an
// intensional "next page" handle. A client whose exchange schema demands
// plain data must chase the handle; the k-depth bound (Definition 7) decides
// how far it will go.
//
// The example starts an Active XML peer on a random localhost port, fetches
// its WSDL_int description, and exchanges documents over HTTP.
//
//	go run ./examples/searchengine
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"axml"
)

const searchSchema = `
root results
elem results = url*.Get_More?
elem url = data
func Search = data -> url*.Get_More?
func Get_More = data -> url*.Get_More?
`

func main() {
	ctx := context.Background()
	s := axml.MustParseSchemaText(searchSchema)
	p := axml.NewPeer("search", s)

	// The engine has 7 hits and serves them 3 per page, returning a
	// Get_More handle while more remain.
	hits := []string{"a.example", "b.example", "c.example", "d.example", "e.example", "f.example", "g.example"}
	page := func(from int) []*axml.Node {
		var out []*axml.Node
		end := from + 3
		if end > len(hits) {
			end = len(hits)
		}
		for _, h := range hits[from:end] {
			out = append(out, axml.Elem("url", axml.Text("http://"+h)))
		}
		if end < len(hits) {
			out = append(out, axml.Call("Get_More", axml.Text(fmt.Sprint(end))))
		}
		return out
	}
	pageHandler := func(params []*axml.Node) ([]*axml.Node, error) {
		from := 0
		if len(params) > 0 && params[0].Kind == axml.KindText {
			fmt.Sscan(params[0].Value, &from)
		}
		return page(from), nil
	}
	for _, op := range []string{"Search", "Get_More"} {
		err := p.Services.Register(&axml.ServiceOperation{Name: op, Def: s.Funcs[op], Handler: pageHandler})
		if err != nil {
			log.Fatal(err)
		}
	}
	// The repository holds an intensional result document: first page plus
	// handle.
	p.Repo.Put("query-42", axml.Elem("results", page(0)...))

	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	p.Endpoint = ts.URL + "/soap"
	fmt.Printf("search peer serving at %s\n", ts.URL)

	// A client fetches the peer's WSDL_int description.
	resp, err := http.Get(ts.URL + "/wsdl")
	if err != nil {
		log.Fatal(err)
	}
	desc, err := axml.FetchWSDL(resp.Body, nil)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discovered service %q with operations %v\n\n", desc.Name, desc.Operations())

	// Exchange the stored document under increasingly demanding schemas.
	// The function nodes carry no endpoint, so the client routes calls to
	// the peer's default SOAP address.
	invoker := axml.SOAPInvoker(ts.URL + "/soap")

	fetch := func() *axml.Node {
		r, err := http.Get(ts.URL + "/doc/query-42")
		if err != nil {
			log.Fatal(err)
		}
		defer r.Body.Close()
		d, err := axml.ParseDocument(r.Body)
		if err != nil {
			log.Fatal(err)
		}
		return d
	}

	intensional := axml.MustParseSchemaTextShared(s, searchSchema)
	flat := axml.MustParseSchemaTextShared(s, strings.Replace(searchSchema,
		"elem results = url*.Get_More?",
		"elem results = url*", 1))

	fmt.Println("receiver accepts intensional results (keep the handle):")
	rw := axml.NewRewriterWithConfig(s, intensional, axml.RewriterConfig{Depth: 1, Invoker: invoker})
	out, err := rw.RewriteDocument(ctx, fetch(), axml.Safe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %v  (calls: %d)\n\n", out.ChildLabels(), rw.Audit.Len())

	fmt.Println("receiver demands plain data — chase the handle (possible mode):")
	for _, k := range []int{1, 2, 3} {
		rw := axml.NewRewriterWithConfig(s, flat, axml.RewriterConfig{Depth: k, Invoker: invoker})
		out, err := rw.RewriteDocument(ctx, fetch(), axml.Possible)
		if err != nil {
			fmt.Printf("  k=%d: failed (%d calls): handle still alive beyond the depth bound\n", k, rw.Audit.Len())
			continue
		}
		urls := 0
		for _, ch := range out.Children {
			if ch.Label == "url" {
				urls++
			}
		}
		fmt.Printf("  k=%d: %d urls, %d calls, intensional=%v\n", k, urls, rw.Audit.Len(), out.HasFuncs())
	}

	fmt.Println("\nsafe mode can never promise a flat result (the handle may recur):")
	rw = axml.NewRewriterWithConfig(s, flat, axml.RewriterConfig{Depth: 3, Invoker: invoker})
	if err := rw.CheckDocument(fetch(), axml.Safe); err != nil {
		fmt.Printf("  refused: %v\n", err)
	} else {
		log.Fatal("safe flattening of a recursive handle should be refused")
	}
}
