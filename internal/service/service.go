// Package service implements the Web-service substrate of the Active XML
// setting: a registry of named operations with declared signatures, local
// (in-process) implementations, predicate services backing function patterns
// (the paper's UDDIF and InACL examples), and invokers that route function
// nodes to implementations.
//
// Real deployments pair this with internal/soap, which exposes a Registry
// over HTTP and routes calls to remote endpoints; tests and benchmarks pair
// it with internal/workload's simulated services.
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/schema"
)

// Handler implements one service operation: parameters in, result forest
// out. Handlers must not retain or mutate the parameter nodes. The result
// belongs to the caller, which may rewrite it in place: a handler returning
// nodes it keeps (a stored document's subtrees, a cached forest) returns
// copies. Operations that can block should use a ContextHandler instead, so
// the caller's deadline reaches them.
type Handler func(params []*doc.Node) ([]*doc.Node, error)

// ContextHandler is a context-aware operation implementation; it wins over
// Handler when both are set.
type ContextHandler func(ctx context.Context, params []*doc.Node) ([]*doc.Node, error)

// Operation is a registered service operation.
type Operation struct {
	Name string
	// Def is the WSDL-level description: signature, cost, side effects.
	Def *schema.FuncDef
	// Handler executes the operation (context-free legacy form).
	Handler Handler
	// ContextHandler, when set, executes the operation under the caller's
	// context and takes precedence over Handler.
	ContextHandler ContextHandler
}

// Registry holds the operations a peer provides. It is safe for concurrent
// use.
type Registry struct {
	mu  sync.RWMutex
	ops map[string]*Operation
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ops: make(map[string]*Operation)}
}

// Register adds an operation; it replaces any previous one with the same
// name.
func (r *Registry) Register(op *Operation) error {
	if op == nil || op.Name == "" || (op.Handler == nil && op.ContextHandler == nil) {
		return fmt.Errorf("service: operation needs a name and a handler")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops[op.Name] = op
	return nil
}

// RegisterFunc declares the operation in the schema (if not present) and
// registers the handler in one step.
func (r *Registry) RegisterFunc(s *schema.Schema, name, in, out string, h Handler) error {
	if s.Funcs[name] == nil {
		if err := s.SetFunc(name, in, out); err != nil {
			return err
		}
	}
	return r.Register(&Operation{Name: name, Def: s.Funcs[name], Handler: h})
}

// Lookup finds an operation.
func (r *Registry) Lookup(name string) (*Operation, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	op, ok := r.ops[name]
	return op, ok
}

// Names lists registered operation names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.ops))
	for name := range r.ops {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ErrUnknownOperation is the error, tested with errors.Is, of a call
// naming an operation the registry lacks.
var ErrUnknownOperation = errors.New("service: unknown operation")

// unknownOperation is the error of a call naming an operation no member
// provides: ErrUnknownOperation followed by the quoted name.
func unknownOperation(name string) error {
	return fmt.Errorf("%w %q", ErrUnknownOperation, name)
}

// Call executes an operation by name under the caller's context.
// Context-free handlers are checked for cancellation before they run but
// cannot be interrupted once started.
func (r *Registry) Call(ctx context.Context, name string, params []*doc.Node) ([]*doc.Node, error) {
	op, ok := r.Lookup(name)
	if !ok {
		return nil, unknownOperation(name)
	}
	return op.run(ctx, params)
}

// run executes the operation under the caller's context.
func (op *Operation) run(ctx context.Context, params []*doc.Node) ([]*doc.Node, error) {
	if op.ContextHandler != nil {
		return op.ContextHandler(ctx, params)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return op.Handler(params)
}

// Invoke implements core.Invoker: the function node's label selects the
// operation, its children are the parameters.
func (r *Registry) Invoke(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
	return r.Call(ctx, call.Label, call.Children)
}

var _ core.Invoker = (*Registry)(nil)

// Chain tries invokers in order, falling through only on an unknown
// operation (ErrUnknownOperation); it lets a peer resolve local services
// first and remote endpoints second. A *Registry member that lacks the
// call's label is skipped without running anything; any other error ends
// the chain at once, so a failing local operation is never re-sent to a
// later member.
//
// A chain hands the first round of a rewriting (core.Round) riding on the
// context only to a member behind empty registries: behind a registry
// that serves some operation, or behind any other kind of member, a
// planned call could ride to a transport the sequential engine would not
// send it to, so later members see no round.
type Chain []core.Invoker

// Invoke implements core.Invoker.
func (c Chain) Invoke(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
	var lastErr error
	hide := false // an earlier member may serve a planned call
	for _, inv := range c {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if reg, ok := inv.(*Registry); ok {
			reg.mu.RLock()
			op, found := reg.ops[call.Label]
			hide = hide || len(reg.ops) > 0
			reg.mu.RUnlock()
			if found {
				return op.run(ctx, call.Children)
			}
			continue
		}
		mctx := ctx
		if hide && core.RoundFrom(ctx) != nil {
			mctx = core.WithRound(ctx, nil)
		}
		out, err := inv.Invoke(mctx, call)
		if err == nil || !errors.Is(err, ErrUnknownOperation) {
			return out, err
		}
		lastErr = err
		hide = true
	}
	switch {
	case len(c) == 0:
		lastErr = fmt.Errorf("service: empty invoker chain")
	case lastErr == nil:
		lastErr = unknownOperation(call.Label)
	}
	return nil, fmt.Errorf("service: no invoker handled %q: %w", call.Label, lastErr)
}

// FindBySignature implements the UDDI-style search extension from the
// paper's conclusion: it returns the names of registered operations whose
// declared signature equals the requested one up to language equivalence —
// "find me any service that maps a city to a temp".
func (r *Registry) FindBySignature(in, out *regex.Regex) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	probe := &schema.FuncDef{In: in, Out: out}
	var names []string
	for name, op := range r.ops {
		if op.Def == nil {
			continue
		}
		pat := &schema.PatternDef{In: op.Def.In, Out: op.Def.Out}
		if schema.FuncMatchesPattern(&schema.FuncDef{Name: name, In: probe.In, Out: probe.Out}, pat) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// PredicateRegistry resolves named boolean predicates over functions — the
// implementation counterpart of the paper's UDDIF ("is the service listed in
// this UDDI registry?") and InACL ("may this client call it?") predicate
// services.
type PredicateRegistry struct {
	mu    sync.RWMutex
	preds map[string]schema.Predicate
}

// NewPredicateRegistry returns an empty predicate registry.
func NewPredicateRegistry() *PredicateRegistry {
	return &PredicateRegistry{preds: make(map[string]schema.Predicate)}
}

// Define registers a predicate under a name.
func (p *PredicateRegistry) Define(name string, pred schema.Predicate) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.preds[name] = pred
}

// Get resolves a predicate.
func (p *PredicateRegistry) Get(name string) (schema.Predicate, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	pred, ok := p.preds[name]
	return pred, ok
}

// Map exposes the registry as the map schema.ParseText consumes.
func (p *PredicateRegistry) Map() map[string]schema.Predicate {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make(map[string]schema.Predicate, len(p.preds))
	for k, v := range p.preds {
		out[k] = v
	}
	return out
}

// RegistryListed builds a UDDIF-style predicate: a function satisfies it iff
// an operation with that name is registered in reg.
func RegistryListed(reg *Registry) schema.Predicate {
	return func(name string, in, out *regex.Regex) bool {
		_, ok := reg.Lookup(name)
		return ok
	}
}

// ACL builds an InACL-style predicate from an allow-list of function names.
func ACL(allowed ...string) schema.Predicate {
	set := make(map[string]bool, len(allowed))
	for _, a := range allowed {
		set[a] = true
	}
	return func(name string, in, out *regex.Regex) bool { return set[name] }
}

// And conjoins predicates (the paper's UDDIF ∧ InACL example).
func And(preds ...schema.Predicate) schema.Predicate {
	return func(name string, in, out *regex.Regex) bool {
		for _, p := range preds {
			if p != nil && !p(name, in, out) {
				return false
			}
		}
		return true
	}
}
