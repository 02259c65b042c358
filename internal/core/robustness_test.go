package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"axml/internal/doc"
	"axml/internal/schema"
	"axml/internal/workload"
)

// Robustness sweeps: the executor must never panic or corrupt documents, no
// matter how workloads, modes and failure injections combine.

// flakyInvoker wraps a simulated invoker with injected failures.
type flakyInvoker struct {
	inner *workload.SimInvoker
	rng   *rand.Rand
	// failEvery injects an error on every n-th call (0 = never).
	failEvery int
	// garbageEvery returns a non-conforming forest on every n-th call.
	garbageEvery int
	calls        int
}

var errInjected = errors.New("injected service failure")

func (f *flakyInvoker) Invoke(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
	f.calls++
	if f.failEvery > 0 && f.calls%f.failEvery == 0 {
		return nil, errInjected
	}
	if f.garbageEvery > 0 && f.calls%f.garbageEvery == 0 {
		return []*doc.Node{doc.Elem("garbage-element-nobody-declared")}, nil
	}
	return f.inner.Invoke(ctx, call)
}

// Property: rewriting random instances under every mode either succeeds with
// a valid document or fails with an error — never panics, and safe-mode
// failures only happen under injected faults.
func TestQuickExecutorRobustness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := workload.RandomSchema(rng, workload.Options{Labels: 4, Funcs: 3})
		g := workload.NewGenerator(s, rng)
		g.MaxDepth = 5
		root, err := g.Root()
		if err != nil {
			return true
		}
		for _, mode := range []Mode{Safe, Possible, Mixed} {
			for _, inject := range []struct{ fail, garbage int }{
				{0, 0}, {2, 0}, {0, 2},
			} {
				inv := &flakyInvoker{
					inner:        workload.NewSimInvoker(s, rand.New(rand.NewSource(seed+1))),
					rng:          rng,
					failEvery:    inject.fail,
					garbageEvery: inject.garbage,
				}
				rw := NewRewriterWithConfig(s, s, RewriterConfig{Depth: 2, Invoker: inv})
				rw.Audit = &Audit{}
				rw.MaxCalls = 200
				out, err := rw.RewriteDocument(context.Background(), root.Clone(), mode)
				if err != nil {
					continue // failure is acceptable; panics are not
				}
				if err := schema.NewContext(s, nil).Validate(out); err != nil {
					t.Logf("seed %d mode %v inject %+v: invalid result: %v", seed, mode, inject, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: a clean safe-mode run (no injection) never fails once the static
// check passes, and never exceeds the fork-depth bound in its audit.
func TestQuickSafeDepthBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := workload.RandomSchema(rng, workload.Options{Labels: 4, Funcs: 3})
		g := workload.NewGenerator(s, rng)
		g.MaxDepth = 5
		root, err := g.Root()
		if err != nil {
			return true
		}
		k := 1 + rng.Intn(2)
		rw := NewRewriterWithConfig(s, s, RewriterConfig{Depth: k, Invoker: workload.NewSimInvoker(s, rand.New(rand.NewSource(seed+7)))})
		rw.Audit = &Audit{}
		if err := rw.CheckDocument(root, Safe); err != nil {
			return true
		}
		if _, err := rw.RewriteDocument(context.Background(), root.Clone(), Safe); err != nil {
			t.Logf("seed %d: statically safe but execution failed: %v", seed, err)
			return false
		}
		for _, c := range rw.Audit.Calls() {
			if c.Depth > k {
				t.Logf("seed %d: call %s at depth %d exceeds k=%d", seed, c.Func, c.Depth, k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGarbageReturnsFailSafely: with garbage injected on the first call, a
// safe rewriting fails with the non-conforming error and the document given
// to the caller is never half-written (RewriteDocument returns nil).
func TestGarbageReturnsFailSafely(t *testing.T) {
	s := schema.MustParseText(`
root page
elem page = temp
elem temp = data
elem city = data
func Get_Temp = city -> temp
`, nil)
	inv := &flakyInvoker{
		inner:        workload.NewSimInvoker(s, rand.New(rand.NewSource(1))),
		garbageEvery: 1,
	}
	rw := NewRewriterWithConfig(s, s, RewriterConfig{Depth: 1, Invoker: inv})
	root := doc.Elem("page", doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("x"))))
	out, err := rw.RewriteDocument(context.Background(), root, Safe)
	if err == nil {
		t.Fatalf("garbage should fail, got %v", out)
	}
	if out != nil {
		t.Error("failed rewriting should not return a document")
	}
}

// hangingInvoker blocks every call until its context is cancelled — a remote
// service that never answers. started is signalled once per call so tests can
// cancel only after the rewriting is provably inside an invocation.
type hangingInvoker struct {
	started chan struct{}
}

func (h *hangingInvoker) Invoke(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
	select {
	case h.started <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestCancellationMidRewrite: a rewriting stuck in a hung service call must
// return promptly when its context's deadline fires, report the context error,
// leave the input document unmodified, keep the Audit consistent (the hung
// call never completed, so no CallRecord), and leak no goroutines.
func TestCancellationMidRewrite(t *testing.T) {
	s := schema.MustParseText(`
root page
elem page = temp
elem temp = data
elem city = data
func Get_Temp = city -> temp
`, nil)
	inv := &hangingInvoker{started: make(chan struct{}, 1)}
	rw := NewRewriterWithConfig(s, s, RewriterConfig{Depth: 1, Invoker: inv})

	root := doc.Elem("page", doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("x"))))
	snapshot := root.Clone()

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	out, err := rw.RewriteDocument(ctx, root, Safe)
	elapsed := time.Since(start)

	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v (out=%v)", err, out)
	}
	if out != nil {
		t.Error("cancelled rewriting should not return a document")
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v; should be prompt", elapsed)
	}
	if !root.Equal(snapshot) {
		t.Error("input document was modified by a cancelled rewriting")
	}
	if n := rw.Audit.Len(); n != 0 {
		t.Errorf("hung call never completed but audit has %d records", n)
	}
	// The hung invoker returns when ctx is done, so no goroutine should
	// outlive the call; allow scheduler slack before comparing.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d after cancellation", before, after)
	}
}

// TestCancellationBeforeStart: an already-cancelled context fails the
// rewriting before any service call is attempted.
func TestCancellationBeforeStart(t *testing.T) {
	s := schema.MustParseText(`
root page
elem page = temp
elem temp = data
elem city = data
func Get_Temp = city -> temp
`, nil)
	calls := 0
	inv := ContextInvokerFunc(func(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
		calls++
		return []*doc.Node{doc.Elem("temp", doc.TextNode("20"))}, nil
	})
	rw := NewRewriterWithConfig(s, s, RewriterConfig{Depth: 1, Invoker: inv})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	root := doc.Elem("page", doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("x"))))
	if _, err := rw.RewriteDocument(ctx, root, Safe); !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if calls != 0 {
		t.Errorf("invoker was called %d times under a dead context", calls)
	}
}
