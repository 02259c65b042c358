package peer

import (
	"fmt"

	"axml/internal/core"
	"axml/internal/schema"
)

// Negotiation implements the "negotiator" extension from the paper's
// conclusion: when sender and receiver have not fixed a single exchange
// schema, the sender examines the candidates the receiver would accept and
// picks the cheapest discipline that works — safe with no calls beats safe
// with calls beats possible.

// Proposal is one candidate exchange agreement.
type Proposal struct {
	// Name identifies the candidate in the negotiation outcome.
	Name string
	// Schema is the candidate exchange schema (sharing the peer's symbol
	// table).
	Schema *schema.Schema
}

// Agreement is a successful negotiation outcome.
type Agreement struct {
	Proposal Proposal
	// Mode is the weakest discipline that suffices: Safe when a safe
	// rewriting exists, otherwise Possible.
	Mode core.Mode
	// AsIs reports that the document already conforms — no calls needed.
	AsIs bool
}

// Negotiate picks, for the named document, the best candidate: first any
// proposal the document already satisfies, then any reachable by safe
// rewriting, then any merely possible. Proposals are considered in order
// within each tier, so the caller's preference breaks ties.
func (p *Peer) Negotiate(docName string, proposals []Proposal) (*Agreement, error) {
	d, ok := p.Repo.Get(docName)
	if !ok {
		return nil, fmt.Errorf("peer %s: no document %q: %w", p.Name, docName, ErrNotFound)
	}
	// Tier 1: already an instance.
	for _, prop := range proposals {
		ctx := schema.NewContext(prop.Schema, p.Schema)
		if err := ctx.Validate(d); err == nil {
			return &Agreement{Proposal: prop, Mode: core.Safe, AsIs: true}, nil
		}
	}
	// Tier 2: safe rewriting exists.
	for _, prop := range proposals {
		rw := core.NewRewriter(p.Schema, prop.Schema, p.K, nil)
		if err := rw.CheckDocument(d, core.Safe); err == nil {
			return &Agreement{Proposal: prop, Mode: core.Safe}, nil
		}
	}
	// Tier 3: possibly rewritable.
	for _, prop := range proposals {
		rw := core.NewRewriter(p.Schema, prop.Schema, p.K, nil)
		if err := rw.CheckDocument(d, core.Possible); err == nil {
			return &Agreement{Proposal: prop, Mode: core.Possible}, nil
		}
	}
	return nil, fmt.Errorf("peer %s: no candidate schema can accept %q", p.Name, docName)
}

// NegotiateSchemas is the schema-level variant (Definition 6): pick the
// first candidate that *every* document of this peer's schema safely
// rewrites into.
func (p *Peer) NegotiateSchemas(proposals []Proposal, k int) (*Agreement, error) {
	for _, prop := range proposals {
		report, err := core.SchemaSafeRewrite(core.Compile(p.Schema, prop.Schema), "", k)
		if err != nil {
			continue
		}
		if report.Safe() {
			return &Agreement{Proposal: prop, Mode: core.Safe}, nil
		}
	}
	return nil, fmt.Errorf("peer %s: no candidate schema is safe for all documents", p.Name)
}
