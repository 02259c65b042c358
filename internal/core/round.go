package core

import (
	"context"
	"fmt"
	"sync"

	"axml/internal/doc"
)

// This file holds the plan of a Safe-mode rewriting and its first round:
// the verdicts the executor can reach before it makes any call, and the
// calls among them a transport may send ahead of the executor, several in
// one request.

// plan is the first round of every word the static check listed
// (staticCheck.words): before the first word is rewritten, it scans each
// (wordRun.scan), so the keeps are made and the calls of each word's first
// round decided, and leaves the runs to the executor (rewriteWord), whose
// round loop dispatches those calls without scanning again. It runs after
// the top-level phase 1, when callable() reports for every listed
// occurrence what it will report when the executor reaches it. The scan
// stops each word before the first position a pending call leaves open,
// so each occurrence is analyzed once: those positions, like the calls
// that calls return, are decided in later rounds.
//
// At degree 1, the planned invocations of speculable functions, in the
// order the executor will make them, ride on the executor's context as its
// Round when there are two or more. Above degree 1 the executor's slots
// already overlap their calls' round trips, and a shared request would
// serialize on the serving peer the calls they send concurrently, so no
// round rides. plan returns the run over the top-level word, if the check
// listed it.
func (ex *executor) plan() (*wordRun, error) {
	proof := ex.st.proof
	c := ex.rw.Compiled
	collect := ex.st.sched == nil
	var buf [8]*doc.Node
	planned := buf[:0]
	// One backing array holds every word's first round; each run's calls
	// is its window, capped so that later rounds grow elsewhere.
	calls := make([]pendingCall, 0, len(proof.words))
	for i := range proof.words {
		cw := &proof.words[i]
		cw.run = wordRun{ex: ex, typ: cw.typ.re}
		w := &cw.run
		w.fill(cw.word)
		start := len(calls)
		var err error
		if calls, err = w.scan(calls); err != nil {
			return nil, err
		}
		w.calls = calls[start:len(calls):len(calls)]
		for _, pc := range w.calls {
			n := w.items[pc.at].node
			if fi := c.funcOf(n.Label); collect && fi != nil && speculable(fi) {
				planned = append(planned, n)
			}
		}
	}
	if len(planned) > 1 {
		ex.ctx = WithRound(ex.ctx, newRound(planned))
	}
	if len(proof.words) > 0 && proof.words[0].typ == proof.top {
		return &proof.words[0].run, nil
	}
	return nil, nil
}

// Round is the first round of a Safe-mode rewriting at degree 1 as one
// transport sees it: the calls the plan decided to invoke, in the order the
// executor will invoke them. It rides on the rewriting's context
// (RoundFrom). Every call still reaches Invoker.Invoke at its sequential
// point, through the policy chain, so timeouts (a call under a deadline
// goes alone), retries, breakers, spans and audit records keep their
// per-call meaning and their order. What a round changes
// is the transport: when one that can carry several calls in a request (a
// RoundSender, such as soap.Invoker) receives the first planned call for a
// destination, Send ships every unsent planned call for that destination in
// one request, and answers each later planned call from the reply.
//
// Only calls of functions declared without side effects and at zero cost
// are planned (speculable): a rewriting that fails may stop before a
// planned call that already ran remotely, and a request refused whole is
// sent again with its first call alone. A planned call the executor never
// reaches is dropped, never recorded, as is every answer it does not
// consume.
type Round struct {
	mu    sync.Mutex
	calls []roundCall
}

// callState is where a planned call stands.
type callState uint8

const (
	callUnsent   callState = iota // in no request yet
	callAnswered                  // answered by a request, awaiting its Invoke
	callDone                      // in a request in flight, handed to an Invoke, or released by a refused request: an Invoke sends it alone
)

type roundCall struct {
	node  *doc.Node
	state callState
	res   []*doc.Node
	err   error
}

// newRound returns the round of the planned calls, in invocation order.
func newRound(calls []*doc.Node) *Round {
	r := &Round{calls: make([]roundCall, len(calls))}
	for i, n := range calls {
		r.calls[i].node = n
	}
	return r
}

type roundKey struct{}

// WithRound returns a context carrying r; a nil r hides any round ctx
// carried.
func WithRound(ctx context.Context, r *Round) context.Context {
	return context.WithValue(ctx, roundKey{}, r)
}

// RoundFrom returns the round riding on ctx, or nil.
func RoundFrom(ctx context.Context) *Round {
	r, _ := ctx.Value(roundKey{}).(*Round)
	return r
}

// RoundSender is a transport that can carry several planned calls in one
// request.
type RoundSender interface {
	// Route names the destination of a call's request: planned calls with
	// one route may share a request.
	Route(call *doc.Node) string
	// SendShare sends calls, which share one route, in one request, and
	// returns the results of the calls its reply answered: a prefix of
	// calls, in order. It may send only a prefix of calls, holding the
	// first, when all of them would make too large a request. A non-nil
	// fault is the outcome of the call after that prefix, and the reply
	// answered none after it. A non-nil err fails the whole request.
	SendShare(ctx context.Context, calls []*doc.Node) (results [][]*doc.Node, fault, err error)
}

// Send answers call, which t received from an Invoke, through the round.
// It reports ok false when call is no planned call of r still to answer —
// one the round does not hold, one handed to an Invoke before (a retry),
// or one whose context carries a deadline — and t then sends it in a
// request of its own. A deadline, such as a per-call timeout policy sets,
// bounds one call's service, which a share would spend on others'.
// Otherwise:
//
//   - a call a reply already answered gets that answer, once;
//   - an unsent call goes out with up to max-1 other unsent planned calls of
//     its route, in round order, as one t.SendShare request. The call gets
//     its own outcome, and each other call the reply answers keeps its
//     outcome for its own Invoke; the calls the reply leaves unanswered
//     return to the round unsent. A request that answers none of its calls
//     may have been refused whole, past a limit set for one call's request
//     or reply: the call then goes again alone, in the same Invoke, and the
//     others will go alone when the executor reaches them, as without a
//     round.
func (r *Round) Send(ctx context.Context, call *doc.Node, t RoundSender, max int) (res []*doc.Node, ok bool, err error) {
	if r == nil {
		return nil, false, nil
	}
	r.mu.Lock()
	i := r.find(call)
	if i < 0 {
		r.mu.Unlock()
		return nil, false, nil
	}
	c := &r.calls[i]
	switch {
	case c.state == callAnswered:
		res, err = c.res, c.err
		c.res, c.err = nil, nil
		ok = true
	case c.state == callUnsent && !bounded(ctx):
		share := r.claim(i, t, max)
		r.mu.Unlock()
		res, err = r.send(ctx, t, share)
		return res, true, err
	}
	c.state = callDone
	r.mu.Unlock()
	return res, ok, err
}

// bounded reports whether ctx carries a deadline.
func bounded(ctx context.Context) bool {
	_, ok := ctx.Deadline()
	return ok
}

// find returns the position of a planned node, or -1. The caller holds mu.
func (r *Round) find(n *doc.Node) int {
	for i := range r.calls {
		if r.calls[i].node == n {
			return i
		}
	}
	return -1
}

// claim marks call i, which is unsent, done, and returns its position
// followed by those of up to max-1 other unsent calls of its route: the
// share its request carries. The caller holds mu.
func (r *Round) claim(i int, t RoundSender, max int) []int {
	r.calls[i].state = callDone
	share := []int{i}
	route := t.Route(r.calls[i].node)
	for j := range r.calls {
		if len(share) == max {
			break
		}
		if c := &r.calls[j]; c.state == callUnsent && t.Route(c.node) == route {
			c.state = callDone
			share = append(share, j)
		}
	}
	return share
}

// send sends a claimed share through t and settles its calls: the first,
// the sender's, gets the outcome returned; see Send for the others.
func (r *Round) send(ctx context.Context, t RoundSender, share []int) ([]*doc.Node, error) {
	nodes := make([]*doc.Node, len(share))
	for k, j := range share {
		nodes[k] = r.calls[j].node
	}
	results, fault, err := t.SendShare(ctx, nodes)
	if len(share) > 1 && len(results) == 0 && ctx.Err() == nil {
		// Refused whole, perhaps: the others stay done, and go alone.
		share = share[:1]
		results, fault, err = t.SendShare(ctx, nodes[:1])
	}
	r.mu.Lock()
	for k, j := range share[1:] {
		c := &r.calls[j]
		switch {
		case err == nil && k+1 < len(results):
			c.state, c.res = callAnswered, results[k+1]
		case err == nil && k+1 == len(results) && fault != nil:
			c.state, c.err = callAnswered, fault
		default:
			c.state = callUnsent
		}
	}
	r.mu.Unlock()
	switch {
	case err != nil:
		return nil, err
	case len(results) > 0:
		return results[0], nil
	case fault != nil:
		return nil, fault
	}
	return nil, fmt.Errorf("core: the reply to %q answered no call", nodes[0].Label)
}
