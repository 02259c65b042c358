package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"axml/internal/doc"
	"axml/internal/schema"
)

// fuzzService runs the pure services of the generated documents (see
// pureInvoker), failing the one call whose key — its function and first
// text parameter — is fail.
type fuzzService struct{ fail string }

func callKey(call *doc.Node) string { return call.Label + ":" + firstText(call) }

func (s fuzzService) run(call *doc.Node) ([]*doc.Node, error) {
	if k := callKey(call); k == s.fail {
		return nil, fmt.Errorf("service %s failed", k)
	}
	return newPureInvoker().Invoke(context.Background(), call)
}

// plainTransport answers every call at its Invoke, reading no round: the
// executor's calls as they were before rounds. Like an attempt policy, it
// emits one event per Invoke; it records the calls' keys in order.
type plainTransport struct {
	svc  fuzzService
	mu   sync.Mutex
	keys []string
}

func (p *plainTransport) Invoke(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
	Emit(ctx, InvokeEvent{Func: call.Label, Endpoint: EndpointOf(call), Kind: EventAttempt, Attempt: 1})
	p.mu.Lock()
	p.keys = append(p.keys, callKey(call))
	p.mu.Unlock()
	return p.svc.run(call)
}

// roundTransport reads the round riding on each call's context: a planned
// call goes out with the unsent planned calls of its route, at most three
// to a request, and a request runs its calls in order, stopping at the
// first that fails, as a SOAP server does. Calls are routed by the parity
// of their label's length. It checks that every call a request carries
// is planned and admissible, and emits one event per Invoke.
type roundTransport struct {
	svc fuzzService
	c   *Compiled

	mu       sync.Mutex
	round    *Round
	requests int
	bad      []string
}

func (t *roundTransport) Invoke(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
	Emit(ctx, InvokeEvent{Func: call.Label, Endpoint: EndpointOf(call), Kind: EventAttempt, Attempt: 1})
	r := RoundFrom(ctx)
	if r != nil {
		t.mu.Lock()
		t.round = r
		t.mu.Unlock()
	}
	if res, ok, err := r.Send(ctx, call, t, 3); ok {
		return res, err
	}
	return t.svc.run(call)
}

func (t *roundTransport) Route(call *doc.Node) string {
	return fmt.Sprint(len(call.Label) % 2)
}

func (t *roundTransport) SendShare(_ context.Context, calls []*doc.Node) ([][]*doc.Node, error, error) {
	t.mu.Lock()
	t.requests++
	for _, call := range calls {
		t.round.mu.Lock()
		planned := t.round.find(call) >= 0
		t.round.mu.Unlock()
		if fi := t.c.funcOf(call.Label); !planned || fi == nil || !speculable(fi) {
			t.bad = append(t.bad, callKey(call))
		}
	}
	t.mu.Unlock()
	var results [][]*doc.Node
	for _, call := range calls {
		res, err := t.svc.run(call)
		if err != nil {
			return results, err, nil
		}
		results = append(results, res)
	}
	return results, nil, nil
}

// unconsumed lists the planned calls of the last round seen that no Invoke
// consumed.
func (t *roundTransport) unconsumed() []string {
	if t.round == nil {
		return nil
	}
	r := t.round
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, c := range r.calls {
		if c.state != callDone {
			out = append(out, callKey(c.node))
		}
	}
	return out
}

// fuzzRewriter builds a rewriter of the generated documents at a degree.
// Bit i < 3 of forbid strips function alternative i out of the target, so
// the functions of a cleared bit are kept when keeping is safe. Bit 3 makes
// a pair's second position depend on its first: a kept Get or Defer may
// follow val, only val may follow alt, so after a Pick the safe choice
// there waits for Pick's answer. note marks Note side-effecting, which the
// first round must never send ahead.
func fuzzRewriter(t *testing.T, degree int, forbid uint8, note bool, inv Invoker) *Rewriter {
	t.Helper()
	sender := schema.MustParseText(propSenderText, nil)
	var pairs []string
	for i, p := range [][2]string{
		{"(Stamp|stamp)", "stamp"},
		{"(Get|val|Deep)*", "val*"},
		{"(Get|val).(Note|note)", "val.note"},
		{"(Pick|val|alt).(Get|val|Defer)", "(val.(Get|val|Defer))|(alt.val)"},
	} {
		if forbid&(1<<i) != 0 {
			pairs = append(pairs, p[0], p[1])
		}
	}
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), strings.NewReplacer(pairs...).Replace(propSenderText), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(sender, target)
	if note {
		c.funcOf("Note").SideEffects = true
	}
	return NewRewriterForConfig(c, RewriterConfig{Depth: 2, Invoker: inv, Parallelism: degree})
}

// engineRun is what one setting of FuzzEnginesAgree observed.
type engineRun struct {
	out    *doc.Node
	err    error
	audit  []string
	events []string
	// lookups counts the word-memo lookups of the rewriting: one per
	// analysis of a word.
	lookups uint64
}

// runEngine rewrites a clone of root in mode at a degree; reference
// selects the sequential reference executor (Rewriter.reference).
func runEngine(t *testing.T, root *doc.Node, mode Mode, degree int, reference bool, forbid uint8, note bool, inv Invoker) engineRun {
	t.Helper()
	rw := fuzzRewriter(t, degree, forbid, note, inv)
	rw.reference = reference
	if rt, ok := inv.(*roundTransport); ok {
		rt.c = rw.Compiled
	}
	out, err := rw.RewriteDocument(context.Background(), root.Clone(), mode)
	st := rw.Compiled.WordCacheStats()
	run := engineRun{out: out, err: err, audit: auditKeys(rw.Audit), lookups: st.Hits + st.Misses}
	for _, e := range rw.Audit.Events() {
		run.events = append(run.events, fmt.Sprintf("%s/%s/%d/%s", e.Kind, e.Func, e.Attempt, e.Err))
	}
	return run
}

// FuzzEnginesAgree is the differential oracle of the executor: a generated
// document (propDoc, from a seed and a size) rewrites in Safe, Possible and
// Mixed mode as the sequential reference does — decideFrom with no plan
// and no round, at degree 1, through a transport that reads no round — at
// degree 1 and at degree 4, each through that transport and through one
// that reads the round: the same tree, audit calls (function, depth,
// result nodes, in order), events, error and word-memo lookups. Every call
// a request carries is planned and admissible, and on success every
// planned call is consumed. Then a fault at the k-th call of the reference
// run must surface as the same error at every setting, with the same audit
// and events at degree 1.
func FuzzEnginesAgree(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(7), false, uint8(0))
	f.Add(int64(2), uint8(5), uint8(2), true, uint8(3))
	f.Add(int64(7), uint8(6), uint8(5), false, uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, size, forbid uint8, note bool, k uint8) {
		secs := 1 + int(size%8)
		root := propDoc(rand.New(rand.NewSource(seed)), secs)
		for _, mode := range []Mode{Safe, Possible, Mixed} {
			var check func(fail string)
			check = func(fail string) {
				plain := &plainTransport{svc: fuzzService{fail: fail}}
				ref := runEngine(t, root, mode, 1, true, forbid, note, plain)
				for _, degree := range []int{1, 4} {
					for _, reads := range []bool{false, true} {
						svc := fuzzService{fail: fail}
						rt := &roundTransport{svc: svc}
						var inv Invoker = rt
						if !reads {
							inv = &plainTransport{svc: svc}
						}
						got := runEngine(t, root, mode, degree, false, forbid, note, inv)
						where := fmt.Sprintf("seed %d secs %d forbid %03b note %v mode %v fail %q degree %d round %v",
							seed, secs, forbid, note, mode, fail, degree, reads)
						if (got.err == nil) != (ref.err == nil) || got.err != nil && got.err.Error() != ref.err.Error() {
							t.Fatalf("%s: error %v, want %v", where, got.err, ref.err)
						}
						if len(rt.bad) > 0 {
							t.Errorf("%s: requests carried unplanned or inadmissible calls %v", where, rt.bad)
						}
						if ref.err != nil && degree > 1 {
							continue // a failed fan-out may have finished other slots' calls
						}
						if ref.err == nil && !got.out.Equal(ref.out) {
							t.Errorf("%s: tree\n%s\nwant\n%s", where, got.out, ref.out)
						}
						if !slices.Equal(got.audit, ref.audit) {
							t.Errorf("%s: audit %v, want %v", where, got.audit, ref.audit)
						}
						if !slices.Equal(got.events, ref.events) {
							t.Errorf("%s: events %v, want %v", where, got.events, ref.events)
						}
						if ref.err == nil && got.lookups != ref.lookups {
							t.Errorf("%s: %d word-memo lookups, want %d", where, got.lookups, ref.lookups)
						}
						if left := rt.unconsumed(); ref.err == nil && len(left) > 0 {
							t.Errorf("%s: planned calls never consumed: %v", where, left)
						}
					}
				}
				if fail == "" && ref.err == nil && len(plain.keys) > 0 && k > 0 {
					// Fail the k-th call the reference run made, counting from 1.
					i := (int(k) - 1) % len(plain.keys)
					check(plain.keys[i])
				}
			}
			check("")
		}
	})
}

// shareSender is a RoundSender over a scripted service: it records each
// request's calls, and answers each call with its label unless reply says
// otherwise.
type shareSender struct {
	shares [][]string
	// reply, when set, decides a request's outcome.
	reply func(calls []*doc.Node) ([][]*doc.Node, error, error)
}

func (s *shareSender) Route(call *doc.Node) string { return "r" }

func (s *shareSender) SendShare(_ context.Context, calls []*doc.Node) ([][]*doc.Node, error, error) {
	var labels []string
	for _, c := range calls {
		labels = append(labels, c.Label)
	}
	s.shares = append(s.shares, labels)
	if s.reply != nil {
		return s.reply(calls)
	}
	return answer(calls), nil, nil
}

func answer(calls []*doc.Node) [][]*doc.Node {
	out := make([][]*doc.Node, len(calls))
	for i, c := range calls {
		out[i] = []*doc.Node{doc.Elem("val", doc.TextNode(c.Label))}
	}
	return out
}

// send invokes one planned call through the round, failing the test when
// the round does not take it.
func send(t *testing.T, r *Round, s RoundSender, call *doc.Node) ([]*doc.Node, error) {
	t.Helper()
	res, ok, err := r.Send(context.Background(), call, s, 8)
	if !ok {
		t.Fatalf("%s: the round did not take the call", call.Label)
	}
	return res, err
}

func roundCalls(n int) []*doc.Node {
	calls := make([]*doc.Node, n)
	for i := range calls {
		calls[i] = doc.Call(fmt.Sprintf("C%d", i))
	}
	return calls
}

func sharesAre(t *testing.T, s *shareSender, want [][]string) {
	t.Helper()
	if !slices.EqualFunc(s.shares, want, slices.Equal[[]string]) {
		t.Errorf("shares %v, want %v", s.shares, want)
	}
}

// TestRoundRefusedRequestGoesAlone: a request that answers none of its
// calls — a transport error, or a fault before any result, as a server
// refusing the whole request sends — may have failed for carrying
// several calls. The sending call goes again alone in the same Invoke and
// gets that request's outcome; the others go alone when the executor
// reaches them, and a retry of the sending call goes alone too.
func TestRoundRefusedRequestGoesAlone(t *testing.T) {
	for _, tc := range []struct {
		name    string
		refusal func() ([][]*doc.Node, error, error)
	}{
		{"transport error", func() ([][]*doc.Node, error, error) { return nil, nil, errors.New("response too large") }},
		{"fault before any result", func() ([][]*doc.Node, error, error) { return nil, errors.New("413"), nil }},
	} {
		calls := roundCalls(3)
		r := newRound(calls)
		s := &shareSender{}
		s.reply = func(share []*doc.Node) ([][]*doc.Node, error, error) {
			if len(share) > 1 {
				return tc.refusal()
			}
			return answer(share), nil, nil
		}
		if res, err := send(t, r, s, calls[0]); err != nil || firstText(res[0]) != "C0" {
			t.Fatalf("%s: the sending call got %v, %v", tc.name, res, err)
		}
		for _, call := range calls {
			if _, ok, _ := r.Send(context.Background(), call, s, 8); ok {
				t.Errorf("%s: %s was taken by the round; it must go alone", tc.name, call.Label)
			}
		}
		sharesAre(t, s, [][]string{{"C0", "C1", "C2"}, {"C0"}})
	}
}

// TestRoundPartialReplies: a reply ending in a fault answers the calls
// before it and fails the faulted one; the calls after it, and those a
// reply leaves unanswered (an old single-entry peer answers only the
// first), return to the round and go out with the next planned call.
func TestRoundPartialReplies(t *testing.T) {
	calls := roundCalls(5)
	r := newRound(calls)
	fault := errors.New("C1 failed")
	s := &shareSender{}
	s.reply = func(share []*doc.Node) ([][]*doc.Node, error, error) {
		if share[0] == calls[0] {
			return answer(share[:1]), fault, nil
		}
		return answer(share[:1]), nil, nil // answers the first entry only
	}
	for i, call := range calls {
		res, err := send(t, r, s, call)
		if i == 1 {
			if err != fault {
				t.Errorf("C1: %v, want its fault", err)
			}
			continue
		}
		if err != nil || len(res) != 1 || firstText(res[0]) != call.Label {
			t.Errorf("%s: %v, %v", call.Label, res, err)
		}
	}
	sharesAre(t, s, [][]string{{"C0", "C1", "C2", "C3", "C4"}, {"C2", "C3", "C4"}, {"C3", "C4"}, {"C4"}})
}

// TestRoundCap: a share larger than the cap is split over the requests the
// executor's calls make.
func TestRoundCap(t *testing.T) {
	calls := roundCalls(5)
	r := newRound(calls)
	s := &shareSender{}
	for _, call := range calls {
		if _, ok, err := r.Send(context.Background(), call, s, 2); !ok || err != nil {
			t.Fatalf("%s: taken %v, %v", call.Label, ok, err)
		}
	}
	sharesAre(t, s, [][]string{{"C0", "C1"}, {"C2", "C3"}, {"C4"}})
	if RoundFrom(WithRound(context.Background(), nil)) != nil {
		t.Error("WithRound(nil) must hide the round")
	}
}

// TestRoundBoundedCallsGoAlone: a call whose context carries a deadline —
// a per-call timeout — goes alone, since a share would spend that call's
// time on the others.
func TestRoundBoundedCallsGoAlone(t *testing.T) {
	calls := roundCalls(3)
	s := &shareSender{}
	r := newRound(calls)
	bounded, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if _, ok, _ := r.Send(bounded, calls[0], s, 8); ok {
		t.Error("a call with a deadline was taken by the round")
	}
	for _, call := range calls[1:] {
		if _, ok, err := r.Send(context.Background(), call, s, 8); !ok || err != nil {
			t.Fatalf("%s: taken %v, %v", call.Label, ok, err)
		}
	}
	sharesAre(t, s, [][]string{{"C1", "C2"}})
}

// TestFirstRoundSharesRequests keeps FuzzEnginesAgree honest: on a
// generated document whose every call is forbidden, the transport that
// reads the round carries the calls in fewer requests than calls.
func TestFirstRoundSharesRequests(t *testing.T) {
	root := propDoc(rand.New(rand.NewSource(3)), 6)
	rt := &roundTransport{}
	run := runEngine(t, root, Safe, 1, false, 7, false, rt)
	if run.err != nil {
		t.Fatal(run.err)
	}
	if rt.requests == 0 || rt.requests >= len(run.audit) {
		t.Errorf("%d requests for %d calls", rt.requests, len(run.audit))
	}
}
