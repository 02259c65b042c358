// Top-level benchmarks: one per experiment row of DESIGN.md §3 /
// EXPERIMENTS.md. Run with
//
//	go test -bench=. -benchmem .
//
// cmd/axml-bench prints the same experiments as human-readable tables with
// state counts alongside the timings.
package axml_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"axml"
	"axml/internal/automata"
	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/experiments"
	"axml/internal/invoke"
	"axml/internal/peer"
	"axml/internal/regex"
	"axml/internal/schema"
	"axml/internal/service"
	"axml/internal/soap"
	"axml/internal/telemetry"
	"axml/internal/workload"
)

// E-F2: materializing the Figure 2 newspaper end to end.
func BenchmarkFig2Materialize(b *testing.B) {
	sender := axml.MustParseSchemaText(senderSrc)
	target := axml.MustParseSchemaTextShared(sender, targetSrc)
	inv := axml.ContextInvokerFunc(func(_ context.Context, call *axml.Node) ([]*axml.Node, error) {
		return []*axml.Node{axml.Elem("temp", axml.Text("15"))}, nil
	})
	rw := axml.NewRewriterWithConfig(sender, target, axml.RewriterConfig{Depth: 2, Invoker: inv})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rw.RewriteDocument(context.Background(), newspaper(), axml.Safe); err != nil {
			b.Fatal(err)
		}
	}
}

// E-F4: constructing the fork automaton A_w^1 of Figure 4.
func BenchmarkForkAutomaton(b *testing.B) {
	c, w := experiments.PaperCompiled()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildFork(c, w, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// E-F5: the complete complement automaton Ā of schema (**)'s content model.
func BenchmarkFig5Complement(b *testing.B) {
	c, _ := experiments.PaperCompiled()
	target := regex.MustParse(c.Table, experiments.TargetStarStar)
	sigma := target.Alphabet(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		automata.ComplementOfRegex(target, sigma)
	}
}

// E-F6: the full safe-rewriting decision of Figure 6 (safe).
func BenchmarkSafeRewriteFig6(b *testing.B) {
	c, w := experiments.PaperCompiled()
	target := regex.MustParse(c.Table, experiments.TargetStarStar)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		safe, err := core.WordSafe(c, w, target, 1)
		if err != nil || !safe {
			b.Fatal("expected safe")
		}
	}
}

// E-F7/F8: the refusal of Figure 8 (unsafe).
func BenchmarkUnsafeRewriteFig8(b *testing.B) {
	c, w := experiments.PaperCompiled()
	target := regex.MustParse(c.Table, experiments.TargetTripleStar)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		safe, err := core.WordSafe(c, w, target, 1)
		if err != nil || safe {
			b.Fatal("expected unsafe")
		}
	}
}

// E-F10/F11: the possible-rewriting decision of Figure 11.
func BenchmarkPossibleRewrite(b *testing.B) {
	c, w := experiments.PaperCompiled()
	target := regex.MustParse(c.Table, experiments.TargetTripleStar)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		possible, err := core.WordPossible(c, w, target, 1)
		if err != nil || !possible {
			b.Fatal("expected possible")
		}
	}
}

// E-F12 / E-C5: lazy vs eager safe analysis.
func BenchmarkLazyVsEagerSafe(b *testing.B) {
	c, w := experiments.PaperCompiled()
	target := regex.MustParse(c.Table, experiments.TargetStarStar)
	b.Run("eager", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.WordSafe(c, w, target, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lazy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.LazySafe(c, w, target, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E-C1: safe analysis against schema size and depth bound.
func BenchmarkSafeScaling(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		for _, k := range []int{1, 2} {
			c, w, target := experiments.ChainInstance(n)
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.WordSafe(c, w, target, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// E-C2: complementation of deterministic vs non-deterministic models.
func BenchmarkComplementDetVsNondet(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		tab := regex.NewTable()
		det := experiments.DetTarget(tab, n)
		nondet := experiments.NondetTarget(tab, n)
		b.Run(fmt.Sprintf("det/n=%d", n), func(b *testing.B) {
			sigma := det.Alphabet(nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				automata.ComplementOfRegex(det, sigma)
			}
		})
		b.Run(fmt.Sprintf("nondet/n=%d", n), func(b *testing.B) {
			sigma := nondet.Alphabet(nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				automata.ComplementOfRegex(nondet, sigma)
			}
		})
	}
}

// E-C3: possible vs safe on the same instances.
func BenchmarkPossibleVsSafe(b *testing.B) {
	c, w, target := experiments.ChainInstance(16)
	b.Run("safe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.WordSafe(c, w, target, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("possible", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.WordPossible(c, w, target, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E-C4: the mixed strategy's benefit — analysis after pre-invocation.
func BenchmarkMixedRewrite(b *testing.B) {
	c, w, target := experiments.ChainInstance(16)
	after := make([]core.Token, len(w))
	for i := range after {
		after[i] = core.Token{Sym: c.Table.Intern(fmt.Sprintf("a%d", i))}
	}
	b.Run("before-preinvoke", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.WordSafe(c, w, target, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("after-preinvoke", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.WordSafe(c, after, target, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E-P1: the parallel materialization engine against simulated round-trip
// latency — 16 independent calls at 1ms each. Degree 1 is the sequential
// engine; the wall-clock ratio is the speedup the CI gate checks.
func BenchmarkParallelMaterialize(b *testing.B) {
	sender, target := experiments.ParallelPair()
	inv := invoke.Chain(experiments.ParallelInvoker(0), invoke.WithLatency(time.Millisecond))
	for _, degree := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			rw := core.NewRewriterWithConfig(sender, target, core.RewriterConfig{Depth: 2, Invoker: inv})
			rw.Parallelism = degree
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rw.RewriteDocument(context.Background(), experiments.ParallelDoc(16), core.Safe); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E-C6: materializing a recursive handle at increasing k.
func BenchmarkKDepthGrowth(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			s := schema.MustParseText(`
root results
elem results = url*.Get_More?
elem url = data
func Get_More = data -> url*.Get_More?
`, nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim := workload.NewSimInvoker(s, rand.New(rand.NewSource(42)))
				rw := core.NewRewriterWithConfig(s, s, core.RewriterConfig{Depth: k, Invoker: sim})
				rw.MaxCalls = 1 << 12
				root := doc.Elem("results",
					doc.Elem("url", doc.TextNode("u0")),
					doc.Call("Get_More", doc.TextNode("q")))
				if _, err := rw.RewriteDocument(context.Background(), root, core.Mixed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E-C7: schema-to-schema compatibility checking.
func BenchmarkSchemaRewrite(b *testing.B) {
	sender := axml.MustParseSchemaText(senderSrc)
	target := axml.MustParseSchemaTextShared(sender, targetSrc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		report, err := axml.SchemaCompatible(sender, target, "", 1)
		if err != nil || !report.Safe() {
			b.Fatal("expected compatible")
		}
	}
}

// enforcementBench runs the E-C8 workload — one SOAP call whose response
// enforcement materializes a nested service call, over HTTP — against a
// peer carrying the given telemetry registry (nil for the no-op paths).
func enforcementBench(b *testing.B, reg *telemetry.Registry) {
	s := schema.MustParseText(`
root page
elem page = title.temp
elem title = data
elem temp = data
elem city = data
func Get_Temp = city -> temp
func Front = data -> page
`, nil)
	p := peer.New("bench", s)
	err := p.Services.Register(&service.Operation{
		Name: "Get_Temp", Def: s.Funcs["Get_Temp"],
		Handler: func([]*doc.Node) ([]*doc.Node, error) {
			return []*doc.Node{doc.Elem("temp", doc.TextNode("15"))}, nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	err = p.Services.Register(&service.Operation{
		Name: "Front", Def: s.Funcs["Front"],
		Handler: func([]*doc.Node) ([]*doc.Node, error) {
			return []*doc.Node{doc.Elem("page",
				doc.Elem("title", doc.TextNode("t")),
				doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))))}, nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	p.Telemetry = reg
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	client := &soap.Client{Endpoint: ts.URL + "/soap", Namespace: "urn:axml:bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := client.Call(context.Background(), "Front", []*doc.Node{doc.TextNode("q")})
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 1 || out[0].HasFuncs() {
			b.Fatal("enforcement did not materialize")
		}
	}
}

// E-C8: end-to-end peer exchange over HTTP with schema enforcement. With no
// registry configured every instrumentation hook takes its nil no-op path,
// so this benchmark also guards the telemetry layer's zero-overhead claim:
// its ns/op and allocs/op must not move against the pre-telemetry baseline.
func BenchmarkPeerEnforcement(b *testing.B) {
	enforcementBench(b, nil)
}

// E-T1: the same workload fully instrumented (pipeline metrics, spans,
// per-handler HTTP series). Compare against BenchmarkPeerEnforcement — or
// run `axml-bench -telemetry`, which interleaves paired rounds of both and
// gates the median overhead.
func BenchmarkPeerEnforcementTelemetry(b *testing.B) {
	enforcementBench(b, telemetry.NewRegistry())
}

// E-C9: the enforcement cache under parallel load. Every iteration is one
// full SendDocument (fork automaton + safe product on a miss; memo hits
// afterwards) over a shared peer, as when one peer serves many concurrent
// SOAP exchanges. Should scale with GOMAXPROCS: the cached analysis is
// read-shared, not rebuilt or lock-serialized per message.
func BenchmarkEnforcementCacheParallel(b *testing.B) {
	s := schema.MustParseText(`
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
`, nil)
	p := peer.New("bench", s)
	if err := p.Repo.Put("today", doc.Elem("newspaper",
		doc.Elem("title", doc.TextNode("The Sun")),
		doc.Elem("date", doc.TextNode("04/10/2002")),
		doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))),
		doc.Call("TimeOut", doc.TextNode("exhibits")),
	)); err != nil {
		b.Fatal(err)
	}
	register := func(name string, h service.Handler) {
		if err := p.Services.Register(&service.Operation{Name: name, Def: s.Funcs[name], Handler: h}); err != nil {
			b.Fatal(err)
		}
	}
	register("Get_Temp", func([]*doc.Node) ([]*doc.Node, error) {
		return []*doc.Node{doc.Elem("temp", doc.TextNode("15"))}, nil
	})
	register("TimeOut", func([]*doc.Node) ([]*doc.Node, error) {
		return []*doc.Node{doc.Elem("exhibit",
			doc.Elem("title", doc.TextNode("Dali")),
			doc.Elem("date", doc.TextNode("2002")))}, nil
	})
	exch, err := schema.ParseTextShared(schema.NewShared(s.Table), `
root newspaper
elem newspaper = title.date.temp.(TimeOut|exhibit*)
elem title = data
elem date = data
elem temp = data
elem city = data
elem exhibit = title.date
elem performance = data
func Get_Temp = city -> temp
func TimeOut = data -> (exhibit|performance)*
`, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			out, err := p.SendDocument(context.Background(), "today", exch, core.Safe)
			if err != nil {
				b.Fatal(err)
			}
			if out.ChildLabels()[2] != "temp" {
				b.Fatal("enforcement did not materialize Get_Temp")
			}
		}
	})
}
