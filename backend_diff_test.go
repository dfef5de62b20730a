package repro

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/incremental"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/relation"
)

// corpusQueries is the full named-query corpus the CLI and benchmarks use —
// every pattern shape of the paper's §5.1 evaluation.
func corpusQueries() []*Query {
	return []*Query{
		query.Clique(3),
		query.Clique(4),
		query.Cycle(4),
		query.Path(3),
		query.Path(4),
		query.Tree(1),
		query.Tree(2),
		query.Comb(),
		query.Lollipop(2),
		query.Lollipop(3),
	}
}

func sortedRows(rows [][]int64) {
	sort.Slice(rows, func(i, j int) bool {
		return relation.CompareTuples(rows[i], rows[j]) < 0
	})
}

// naiveRows evaluates q with the brute-force oracle (internal/naive) and
// returns its rows sorted.
func naiveRows(t *testing.T, g *Graph, q *Query) [][]int64 {
	t.Helper()
	var rows [][]int64
	err := naive.Engine{}.Enumerate(context.Background(), q, g.DB(), func(tuple []int64) bool {
		rows = append(rows, tuple)
		return true
	})
	if err != nil {
		t.Fatalf("naive %s: %v", q.Name, err)
	}
	sortedRows(rows)
	return rows
}

// TestBackendDifferential runs every corpus query under both trie-driven
// engines, sequentially and as §4.10 parallel jobs, and requires counts and
// enumerated result sets identical to the brute-force oracle's.
func TestBackendDifferential(t *testing.T) {
	ctx := context.Background()
	g := GenerateGraph(HolmeKim, 250, 900, 3)
	g.SetSelectivity(25, 5)
	for _, q := range corpusQueries() {
		want := naiveRows(t, g, q)
		for _, alg := range []Algorithm{LFTJ, MS} {
			t.Run(fmt.Sprintf("%s/%s", q.Name, string(alg)), func(t *testing.T) {
				for _, opts := range []Options{
					{Algorithm: alg, Workers: 1},
					{Algorithm: alg, Workers: 4, Granularity: 8},
				} {
					p, err := g.Prepare(q, opts)
					if err != nil {
						t.Fatalf("workers=%d prepare: %v", opts.Workers, err)
					}
					n, err := p.Count(ctx)
					if err != nil {
						t.Fatalf("workers=%d count: %v", opts.Workers, err)
					}
					if n != int64(len(want)) {
						t.Fatalf("workers=%d: count %d, oracle %d", opts.Workers, n, len(want))
					}
					var rows [][]int64
					err = p.Enumerate(ctx, func(tuple []int64) bool {
						rows = append(rows, append([]int64(nil), tuple...))
						return true
					})
					if err != nil {
						t.Fatalf("workers=%d enumerate: %v", opts.Workers, err)
					}
					sortedRows(rows)
					requireSameRows(t, fmt.Sprintf("workers=%d", opts.Workers), rows, want)
				}
			})
		}
	}
}

// TestBackendParallelDifferential checks the partitioned §4.10 count path
// against the sequential one on a graph large enough to populate every job,
// on both cyclic and acyclic shapes.
func TestBackendParallelDifferential(t *testing.T) {
	ctx := context.Background()
	g := GenerateGraph(BarabasiAlbert, 2000, 10000, 11)
	g.SetSelectivity(10, 3)
	for _, q := range []*Query{Triangles(), Cliques(4), Paths(3)} {
		want, err := g.Count(ctx, q, Options{Algorithm: LFTJ, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{LFTJ, MS} {
			got, err := g.Count(ctx, q, Options{Algorithm: alg, Workers: 4, Granularity: 8})
			if err != nil {
				t.Fatalf("%s/%s parallel: %v", q.Name, alg, err)
			}
			if got != want {
				t.Errorf("%s/%s parallel count = %d, want %d", q.Name, alg, got, want)
			}
		}
	}
}

// TestViewBackendDifferential maintains one view per query through a long
// randomized ApplyEdges churn and checks it after every batch against a full
// recount and the brute-force oracle. The batches land in the cached CSR
// indexes' delta overlays, so this drives the overlay merge paths (cursor,
// probe, compaction) through the whole engine stack.
func TestViewBackendDifferential(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1234))
	for _, q := range []*Query{Triangles(), Cliques(4), Paths(3), Cycles(4)} {
		edges := make([][2]int64, 0, 300)
		for i := 0; i < 300; i++ {
			u, v := int64(rng.Intn(40)), int64(rng.Intn(40))
			if u != v {
				edges = append(edges, [2]int64{u, v})
			}
		}
		g := NewGraph(edges)
		v, err := incremental.NewView(ctx, q, g.DB())
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 15; step++ {
			var ins, del [][2]int64
			for k := 0; k < 1+rng.Intn(4); k++ {
				e := [2]int64{int64(rng.Intn(40)), int64(rng.Intn(40))}
				if e[0] == e[1] {
					continue
				}
				if rng.Intn(2) == 0 {
					ins = append(ins, e)
				} else {
					del = append(del, e)
				}
			}
			if err := v.Update(ctx, incremental.EdgeBatches(ins, del)); err != nil {
				t.Fatalf("%s step %d: %v", q.Name, step, err)
			}
			recount, err := v.Recount(ctx)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := naive.Engine{}.Count(ctx, q, g.DB())
			if err != nil {
				t.Fatal(err)
			}
			if v.Count() != recount || v.Count() != oracle {
				t.Fatalf("%s step %d: view = %d, recount = %d, oracle = %d (ins=%v del=%v)",
					q.Name, step, v.Count(), recount, oracle, ins, del)
			}
		}
	}
}

// TestViewPlanReuseOnCSR pins the overlay payoff: across many batches the
// view derives its GAO once and never re-binds a base-relation CSR index —
// only the tiny delta atoms re-bind.
func TestViewPlanReuseOnCSR(t *testing.T) {
	ctx := context.Background()
	g := GenerateGraph(BarabasiAlbert, 300, 1200, 7)
	v, err := incremental.NewView(ctx, Triangles(), g.DB())
	if err != nil {
		t.Fatal(err)
	}
	afterBuild := v.Stats().IndexBindings
	for i := 0; i < 5; i++ {
		if err := v.Update(ctx, incremental.EdgeBatches([][2]int64{{int64(i), int64(i + 50)}}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	st := v.Stats()
	if st.GAODerivations != 1 {
		t.Errorf("GAODerivations = %d, want 1", st.GAODerivations)
	}
	// Each batch re-binds only @delta atoms (the triangle view's delta terms
	// bind at most 3 delta atoms per term); base relations must not re-bind,
	// which would show up as hundreds of bindings on this query set.
	perBatch := float64(st.IndexBindings-afterBuild) / 5
	if perBatch > 24 {
		t.Errorf("IndexBindings per batch = %.1f — base relations appear to re-bind", perBatch)
	}
}
