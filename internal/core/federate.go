package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"axml/internal/doc"
)

// This file is the federation-aware half of service resolution: a static
// roster of named peers and an Invoker that resolves peer:// service
// references against it. The paper's function nodes already carry explicit
// service references (endpointURL / methodName); federation adds one more
// endpoint form — "this function is another axml peer" — without changing
// the data model. Transport stays out of core: the SOAP/HTTP legs are
// injected (PeerRouter.Next, PeerRouter.Fetch) by the peer wiring.

// PeerScheme prefixes service-reference endpoints that name a federated
// peer instead of a raw URL:
//
//	peer://<name>          — a SOAP operation on the named peer: the
//	                         endpoint resolves to <base>/soap and the call
//	                         proceeds over the ordinary remote transport.
//	peer://<name>/<doc>    — an intensional-document fetch: the call
//	                         resolves to the named peer's /doc or /exchange
//	                         endpoint (see ExchangeFunc) and the returned
//	                         document replaces the function node.
const PeerScheme = "peer://"

// Roster is the static federation membership: peer name to base URL
// (scheme://host:port, no trailing slash required).
type Roster map[string]string

// ParseRoster parses the -peers flag syntax: comma-separated name=url
// pairs, e.g. "east=http://10.0.0.1:8080,west=http://10.0.0.2:8080".
func ParseRoster(s string) (Roster, error) {
	r := make(Roster)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("core: bad roster entry %q (want name=url)", part)
		}
		if _, dup := r[name]; dup {
			return nil, fmt.Errorf("core: duplicate roster entry %q", name)
		}
		r[name] = strings.TrimRight(url, "/")
	}
	if len(r) == 0 {
		return nil, fmt.Errorf("core: empty roster")
	}
	return r, nil
}

// Names returns the roster's peer names, sorted — for /stats and logs.
func (r Roster) Names() []string {
	names := make([]string, 0, len(r))
	for name := range r {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ExchangeFunc is the transport leg of a cross-peer document fetch: it
// retrieves docName from the peer at base, handing along the call's
// parameter forest (a parameter carrying an exchange schema selects the
// peer's enforcing /exchange endpoint; none selects the raw document).
// internal/soap provides the HTTP implementation.
type ExchangeFunc func(ctx context.Context, base, docName string, params []*doc.Node) ([]*doc.Node, error)

// PeerRouter resolves peer:// service references against a roster before
// invocation; every other call passes to Next untouched. It implements
// Invoker and composes with the policy chain like any other, so cross-peer
// hops inherit timeouts, retries and circuit breaking — and, because the
// transports inject the caller's traceparent per attempt, a materialization
// that hops machines shows up as one trace.
//
// A rewriting's first round (Round) rides on to Next untouched: a peer://
// call goes on as a resolved copy, which is no planned node, so it is a
// request of its own, and a planned call's peer:// endpoint never equals
// the URL a transport routes another call to.
type PeerRouter struct {
	// Roster resolves peer names to base URLs.
	Roster Roster
	// Next handles non-peer calls and the SOAP form (after endpoint
	// rewriting). Required.
	Next Invoker
	// Fetch performs document-fetch calls (peer://name/doc). Required when
	// such references occur.
	Fetch ExchangeFunc
}

// Invoke implements Invoker.
func (pr *PeerRouter) Invoke(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
	if call.Service == nil || !strings.HasPrefix(call.Service.Endpoint, PeerScheme) {
		return pr.Next.Invoke(ctx, call)
	}
	name, docName, _ := strings.Cut(strings.TrimPrefix(call.Service.Endpoint, PeerScheme), "/")
	base, ok := pr.Roster[name]
	if !ok {
		// A typo'd or unconfigured peer is a wiring error no retry fixes.
		return nil, fmt.Errorf("core: %q references unknown peer %q (roster: %v)",
			call.Label, name, pr.Roster.Names())
	}
	if docName == "" {
		// SOAP form: pin the resolved endpoint on a copy of the call (the
		// rewriter still owns the original node) and send it down the
		// ordinary remote path.
		ref := *call.Service
		ref.Endpoint = base + "/soap"
		resolved := *call
		resolved.Service = &ref
		return pr.Next.Invoke(ctx, &resolved)
	}
	if pr.Fetch == nil {
		return nil, fmt.Errorf("core: %q references document %q of peer %q but no exchange transport is configured",
			call.Label, docName, name)
	}
	return pr.Fetch(ctx, base, docName, call.Children)
}
