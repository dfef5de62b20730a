// Benchmarks mirroring the paper's evaluation artifacts, one per table and
// figure, on fixed representative workloads (small synthetic stand-ins so
// `go test -bench=.` completes quickly). The full parameter sweeps that
// print the paper-shaped tables live in cmd/benchtables; these benchmarks
// exercise the same code paths through testing.B so regressions show up in
// ns/op and allocs/op.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/incremental"
	"repro/internal/query"
	"repro/internal/trace"
)

var benchGraphs = map[string]*Graph{}

func benchGraph(b *testing.B, model dataset.Model, nodes, edges int, sel int) *Graph {
	b.Helper()
	key := fmt.Sprintf("%v-%d-%d-%d", model, nodes, edges, sel)
	if g, ok := benchGraphs[key]; ok {
		return g
	}
	g := GenerateGraph(model, nodes, edges, 42)
	g.SetSelectivity(sel, 7)
	benchGraphs[key] = g
	return g
}

func benchCount(b *testing.B, g *Graph, q *Query, opts Options) {
	b.Helper()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Count(ctx, q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_IdeaAblation measures Minesweeper on 3-path with the
// Idea 4/6 ablation variants (Table 1's speedup numerator and denominators).
func BenchmarkTable1_IdeaAblation(b *testing.B) {
	g := benchGraph(b, dataset.HolmeKim, 5000, 29000, 10)
	q := Paths(3)
	for _, v := range []struct {
		name string
		opts Options
	}{
		{"noIdeas", Options{Algorithm: "ms", Workers: 1, DisableProbeMemo: true, DisableComplete: true, DisableCountReuse: true}},
		{"idea4", Options{Algorithm: "ms", Workers: 1, DisableComplete: true, DisableCountReuse: true}},
		{"ideas4and6", Options{Algorithm: "ms", Workers: 1, DisableCountReuse: true}},
	} {
		b.Run(v.name, func(b *testing.B) { benchCount(b, g, q, v.opts) })
	}
}

// BenchmarkTable2_LowSelectivity is the Table 2 regime: Ideas 4&6 at
// selectivity 10 on 2-comb.
func BenchmarkTable2_LowSelectivity(b *testing.B) {
	g := benchGraph(b, dataset.HolmeKim, 5000, 29000, 10)
	q := Comb()
	b.Run("noIdeas", func(b *testing.B) {
		benchCount(b, g, q, Options{Algorithm: "ms", Workers: 1, DisableProbeMemo: true, DisableComplete: true, DisableCountReuse: true})
	})
	b.Run("ideas4and6", func(b *testing.B) {
		benchCount(b, g, q, Options{Algorithm: "ms", Workers: 1, DisableCountReuse: true})
	})
}

// BenchmarkTable3_SkeletonAblation measures Idea 7 on the triangle query.
func BenchmarkTable3_SkeletonAblation(b *testing.B) {
	g := benchGraph(b, dataset.ErdosRenyi, 10000, 40000, 1)
	q := Cliques(3)
	b.Run("noSkeleton", func(b *testing.B) {
		benchCount(b, g, q, Options{Algorithm: "ms", Workers: 1, DisableSkeleton: true})
	})
	b.Run("skeleton", func(b *testing.B) {
		benchCount(b, g, q, Options{Algorithm: "ms", Workers: 1})
	})
}

// BenchmarkTable4_GAO measures Minesweeper on 4-path under the best NEO
// order and a non-NEO order (Table 4's contrast).
func BenchmarkTable4_GAO(b *testing.B) {
	g := benchGraph(b, dataset.ErdosRenyi, 5000, 15000, 10)
	q := Paths(4)
	b.Run("neoABCDE", func(b *testing.B) {
		benchCount(b, g, q, Options{Algorithm: "ms", Workers: 1, GAO: []string{"a", "b", "c", "d", "e"}})
	})
	b.Run("nonNeoABDCE", func(b *testing.B) {
		benchCount(b, g, q, Options{Algorithm: "ms", Workers: 1, GAO: []string{"a", "b", "d", "c", "e"}})
	})
}

// BenchmarkTable5_Granularity measures parallel Minesweeper on the triangle
// query across the paper's partition granularities.
func BenchmarkTable5_Granularity(b *testing.B) {
	g := benchGraph(b, dataset.HolmeKim, 5000, 29000, 1)
	q := Cliques(3)
	for _, f := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			benchCount(b, g, q, Options{Algorithm: "ms", Granularity: f})
		})
	}
}

// BenchmarkTable6_CyclicEngines measures every engine on the 3-clique query
// (one Table 6 column).
func BenchmarkTable6_CyclicEngines(b *testing.B) {
	g := benchGraph(b, dataset.HolmeKim, 5000, 29000, 1)
	q := Cliques(3)
	for _, alg := range []Algorithm{LFTJ, MS, PSQL, MonetDB, GraphLab} {
		b.Run(string(alg), func(b *testing.B) { benchCount(b, g, q, Options{Algorithm: alg, Workers: 1}) })
	}
}

// BenchmarkTable7_AcyclicEngines measures the acyclic-query engines on
// 3-path at selectivity 80 (one Table 7 column).
func BenchmarkTable7_AcyclicEngines(b *testing.B) {
	g := benchGraph(b, dataset.BarabasiAlbert, 5000, 29000, 80)
	q := Paths(3)
	for _, alg := range []Algorithm{LFTJ, MS, Yannakakis, PSQL, MonetDB} {
		b.Run(string(alg), func(b *testing.B) { benchCount(b, g, q, Options{Algorithm: alg, Workers: 1}) })
	}
}

// BenchmarkTable7_Lollipop measures the §4.12 hybrid against its parents on
// 2-lollipop.
func BenchmarkTable7_Lollipop(b *testing.B) {
	g := benchGraph(b, dataset.BarabasiAlbert, 3000, 12000, 10)
	q := Lollipops(2)
	for _, alg := range []Algorithm{MS, Hybrid} {
		b.Run(string(alg), func(b *testing.B) { benchCount(b, g, q, Options{Algorithm: alg, Workers: 1}) })
	}
}

// BenchmarkFigure3to5_PathSampleScaling measures the 3-path engines at two
// sample sizes (the Figures 3–5 x-axis endpoints).
func BenchmarkFigure3to5_PathSampleScaling(b *testing.B) {
	g := benchGraph(b, dataset.BarabasiAlbert, 20000, 120000, 1)
	for _, n := range []int{10, 300} {
		v1 := make([]int64, n)
		v2 := make([]int64, n)
		for i := 0; i < n; i++ {
			v1[i] = int64(i * 7 % 20000)
			v2[i] = int64(i*13%20000 + 1)
		}
		g.SetSamples(v1, v2)
		for _, alg := range []Algorithm{LFTJ, MS} {
			b.Run(fmt.Sprintf("N=%d/%s", n, alg), func(b *testing.B) {
				benchCount(b, g, Paths(3), Options{Algorithm: alg, Workers: 1})
			})
		}
	}
}

// BenchmarkFigure6_TriangleEdgeScaling measures 3-clique at two edge scales
// (the Figure 6 x-axis).
func BenchmarkFigure6_TriangleEdgeScaling(b *testing.B) {
	for _, edges := range []int{20000, 80000} {
		g := benchGraph(b, dataset.BarabasiAlbert, 20000, edges, 1)
		for _, alg := range []Algorithm{LFTJ, MS, PSQL} {
			b.Run(fmt.Sprintf("E=%d/%s", edges, alg), func(b *testing.B) {
				benchCount(b, g, Cliques(3), Options{Algorithm: alg, Workers: 1})
			})
		}
	}
}

// BenchmarkFigure7_FourCliqueEdgeScaling measures 4-clique at two edge
// scales (the Figure 7 x-axis).
func BenchmarkFigure7_FourCliqueEdgeScaling(b *testing.B) {
	for _, edges := range []int{20000, 60000} {
		g := benchGraph(b, dataset.BarabasiAlbert, 20000, edges, 1)
		for _, alg := range []Algorithm{LFTJ, MS} {
			b.Run(fmt.Sprintf("E=%d/%s", edges, alg), func(b *testing.B) {
				benchCount(b, g, Cliques(4), Options{Algorithm: alg, Workers: 1})
			})
		}
	}
}

// BenchmarkCountReuse isolates the #Minesweeper-style count-mode subtree
// reuse (Idea 8) on a low-selectivity 4-path — the paper's headline
// Minesweeper advantage.
func BenchmarkCountReuse(b *testing.B) {
	g := benchGraph(b, dataset.BarabasiAlbert, 3000, 15000, 10)
	q := Paths(4)
	b.Run("withReuse", func(b *testing.B) {
		benchCount(b, g, q, Options{Algorithm: "ms", Workers: 1})
	})
	b.Run("withoutReuse", func(b *testing.B) {
		benchCount(b, g, q, Options{Algorithm: "ms", Workers: 1, DisableCountReuse: true})
	})
}

// BenchmarkPreparedReuse is the prepared-API acceptance benchmark: the
// point-query serving regime (small per-execution work, heavy repetition —
// the paper's LogicBlox setting) where compiling once and executing many
// times beats re-entering the per-call pipeline on every request.
func BenchmarkPreparedReuse(b *testing.B) {
	ctx := context.Background()
	g := benchGraph(b, dataset.ErdosRenyi, 100, 300, 10)
	g.SetSamples([]int64{2, 3, 5}, []int64{7, 11, 13})
	q := Paths(3)
	opts := Options{Algorithm: "lftj", Workers: 1}
	b.Run("percall", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := g.Count(ctx, q, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		p, err := g.Prepare(q, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Count(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTracingOverhead pins the disabled-tracing cost on the prepared
// hot path: "untraced" runs the exact serving loop of
// BenchmarkPreparedReuse/prepared (the engine-span hook reduced to one
// context lookup and a nil check) and must stay within noise of it;
// "traced" prices the enabled path (span allocation, stats delta, buffer
// append) for comparison.
func BenchmarkTracingOverhead(b *testing.B) {
	ctx := context.Background()
	g := benchGraph(b, dataset.ErdosRenyi, 100, 300, 10)
	g.SetSamples([]int64{2, 3, 5}, []int64{7, 11, 13})
	p, err := g.Prepare(Paths(3), Options{Algorithm: "lftj", Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("untraced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Count(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		tr := trace.New(trace.NewID())
		root := tr.StartSpan(0, "bench")
		tctx := trace.NewContext(ctx, root)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Count(tctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBackend measures the worst-case-optimal hot path on the CSR
// index: triangle and 4-clique counting with prepared plans, so the
// measured loop is pure join execution. The sub-benchmarks keep their
// "/csr" suffix so benchgate.sh compares them across revisions.
func BenchmarkBackend(b *testing.B) {
	ctx := context.Background()
	g := benchGraph(b, dataset.HolmeKim, 5000, 29000, 1)
	for _, q := range []*Query{Cliques(3), Cliques(4)} {
		p, err := g.Prepare(q, Options{Algorithm: "lftj", Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.Name+"/csr", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Count(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBackendParallel is the §4.10 benchmark: the prepared clique
// count, sequential (Workers 1) against the partitioned
// pool (Workers 4, jobs cut on level 0 of the plan's own bound index).
func BenchmarkBackendParallel(b *testing.B) {
	ctx := context.Background()
	g := benchGraph(b, dataset.HolmeKim, 20000, 120000, 1)
	for _, q := range []*Query{Cliques(3), Cliques(4)} {
		for _, workers := range []int{1, 4} {
			p, err := g.Prepare(q, Options{Algorithm: "lftj", Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/workers=%d", q.Name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := p.Count(ctx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkViewMaintenance measures pure incremental-view upkeep: one small
// edge batch per iteration. The batch lands in the cached indexes'
// delta overlays instead of forcing an O(arity·n) trie rebuild (see
// BenchmarkOverlayApply vs BenchmarkCSRBuild100k for that contrast in
// isolation); BenchmarkViewMaintainAndServe adds the reads between batches.
func BenchmarkViewMaintenance(b *testing.B) {
	ctx := context.Background()
	b.Run("csr", func(b *testing.B) {
		g := GenerateGraph(BarabasiAlbert, 3000, 15000, 42)
		v, err := incremental.NewView(ctx, Triangles(), g.DB())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u := int64(i % 2999)
			if err := v.Update(ctx, incremental.EdgeBatches([][2]int64{{u, u + 1}}, [][2]int64{{u + 1, u + 2}})); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkViewMaintainAndServe is the serving regime: each iteration
// applies one edge batch and then answers five prepared pattern counts on
// the updated graph (re-preparing per batch is a plan-cache hit, because
// the bound indexes advance in place).
func BenchmarkViewMaintainAndServe(b *testing.B) {
	ctx := context.Background()
	b.Run("csr", func(b *testing.B) {
		g := GenerateGraph(BarabasiAlbert, 3000, 15000, 42)
		v, err := incremental.NewView(ctx, Triangles(), g.DB())
		if err != nil {
			b.Fatal(err)
		}
		q := Cliques(3)
		opts := Options{Algorithm: "lftj", Workers: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u := int64(i % 2999)
			if err := v.Update(ctx, incremental.EdgeBatches([][2]int64{{u, u + 1}}, [][2]int64{{u + 1, u + 2}})); err != nil {
				b.Fatal(err)
			}
			p, err := g.Prepare(q, opts)
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 5; j++ {
				if _, err := p.Count(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkBackendProbes measures the CSR index under Minesweeper's gap-
// probe access pattern (LUB/GLB probes instead of leapfrog seeks).
func BenchmarkBackendProbes(b *testing.B) {
	ctx := context.Background()
	g := benchGraph(b, dataset.HolmeKim, 5000, 29000, 1)
	p, err := g.Prepare(Cliques(3), Options{Algorithm: "ms", Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Count(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAGMBound measures the fractional-edge-cover LP solve.
func BenchmarkAGMBound(b *testing.B) {
	g := benchGraph(b, dataset.BarabasiAlbert, 1000, 5000, 1)
	queries := []*query.Query{query.Clique(3), query.Clique(4), query.Lollipop(3)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := g.AGMBound(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkParallelSpeedup contrasts sequential and parallel LFTJ on the
// triangle query (§4.10).
func BenchmarkParallelSpeedup(b *testing.B) {
	g := benchGraph(b, dataset.HolmeKim, 20000, 120000, 1)
	q := Cliques(3)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchCount(b, g, q, Options{Algorithm: "lftj", Workers: w, Granularity: 8})
		})
	}
}

// BenchmarkWCOJImplementations is the implementation ablation DESIGN.md
// calls out: the same worst-case-optimal computation via leapfrogging
// sorted iterators (lftj) vs the paper's recursive Algorithm 1 formulation
// (genericjoin) vs Minesweeper's gap-driven search (ms).
func BenchmarkWCOJImplementations(b *testing.B) {
	g := benchGraph(b, dataset.HolmeKim, 5000, 29000, 1)
	q := Cliques(3)
	for _, alg := range []Algorithm{LFTJ, GenericJoin, MS} {
		b.Run(string(alg), func(b *testing.B) { benchCount(b, g, q, Options{Algorithm: alg, Workers: 1}) })
	}
}

// BenchmarkStoreBatch is the batched-execution acceptance benchmark: the
// same mixed query workload executed sequentially on one goroutine versus
// through Store.Batch with a worker budget, all against one shared snapshot.
// One batch "op" runs the full request list; batched throughput must be at
// least sequential throughput once two or more workers (and cores) are
// available — on a single-core box the two are expected to land at parity,
// which bounds the batch machinery's overhead.
func BenchmarkStoreBatch(b *testing.B) {
	ctx := context.Background()
	g := benchGraph(b, dataset.HolmeKim, 250, 900, 25)
	s := g.Store
	var reqs []Request
	for _, q := range corpusQueries() {
		p, err := s.Prepare(q, Options{Algorithm: LFTJ, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		reqs = append(reqs, Request{Prepared: p})
	}
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range reqs {
				if _, err := r.Prepared.Count(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("batch%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, res := range s.BatchWorkers(ctx, reqs, workers) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
		})
	}
}

// BenchmarkPushdown measures the tentpole payoff of constant pushdown: a
// highly selective constant atom ("edge(K, b), edge(b, c)") executed with
// the constant compiled into the trie cursors' seek bounds, against the
// same logical query executed as the plain two-hop join with the constant
// checked in the consumer callback. The pushdown variant must win by at
// least 2x — it seeks straight to the K subtree instead of enumerating the
// whole join.
func BenchmarkPushdown(b *testing.B) {
	ctx := context.Background()
	g := benchGraph(b, dataset.BarabasiAlbert, 5000, 40000, 1)
	s := g.Store
	const k = 137
	pushQ, err := s.ParseQuery("push", fmt.Sprintf("out(b, c) :- edge(%d, b), edge(b, c)", k))
	if err != nil {
		b.Fatal(err)
	}
	push, err := s.Prepare(pushQ, Options{Algorithm: LFTJ, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	plainQ, err := s.ParseQuery("plain", "edge(a, b), edge(b, c)")
	if err != nil {
		b.Fatal(err)
	}
	plain, err := s.Prepare(plainQ, Options{Algorithm: LFTJ, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	var wantRows int64
	b.Run("pushdown", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var n int64
			if err := push.Enumerate(ctx, func([]int64) bool { n++; return true }); err != nil {
				b.Fatal(err)
			}
			wantRows = n
		}
	})
	b.Run("postfilter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var n int64
			if err := plain.Enumerate(ctx, func(t []int64) bool {
				if t[0] == k {
					n++
				}
				return true
			}); err != nil {
				b.Fatal(err)
			}
			if wantRows != 0 && n != wantRows {
				b.Fatalf("post-filter saw %d rows, pushdown %d", n, wantRows)
			}
		}
	})
}
