package repro

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/incremental"
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

// backendMatrix is every index backend, reference first.
var backendMatrix = []Backend{BackendFlat, BackendCSR}

// TestBackendDifferential runs every corpus query under both trie-driven
// engines on every index backend and requires identical counts and identical
// enumerated result sets — the flat backend is the reference implementation
// the CSR backend must reproduce exactly.
func TestBackendDifferential(t *testing.T) {
	ctx := context.Background()
	g := GenerateGraph(HolmeKim, 250, 900, 3)
	g.SetSelectivity(25, 5)
	for _, q := range corpusQueries() {
		for _, alg := range []Algorithm{LFTJ, MS} {
			t.Run(fmt.Sprintf("%s/%s", q.Name, string(alg)), func(t *testing.T) {
				var counts []int64
				var rows [][][]int64
				for _, backend := range backendMatrix {
					p, err := g.Prepare(q, Options{Algorithm: alg, Workers: 1, Backend: backend})
					if err != nil {
						t.Fatalf("%s prepare: %v", backend, err)
					}
					if got := p.Explain().Backend; got != backend {
						t.Fatalf("Explain reports backend %q, want %q", got, backend)
					}
					n, err := p.Count(ctx)
					if err != nil {
						t.Fatalf("%s count: %v", backend, err)
					}
					var rs [][]int64
					err = p.Enumerate(ctx, func(tuple []int64) bool {
						rs = append(rs, append([]int64(nil), tuple...))
						return true
					})
					if err != nil {
						t.Fatalf("%s enumerate: %v", backend, err)
					}
					if int64(len(rs)) != n {
						t.Fatalf("%s: count %d != enumerated %d", backend, n, len(rs))
					}
					sortedRows(rs)
					counts = append(counts, n)
					rows = append(rows, rs)
				}
				for b := 1; b < len(backendMatrix); b++ {
					if counts[0] != counts[b] {
						t.Fatalf("count mismatch: flat %d, %s %d", counts[0], backendMatrix[b], counts[b])
					}
					for i := range rows[0] {
						if relation.CompareTuples(rows[0][i], rows[b][i]) != 0 {
							t.Fatalf("row %d mismatch: flat %v, %s %v", i, rows[0][i], backendMatrix[b], rows[b][i])
						}
					}
				}
			})
		}
	}
}

// TestBackendParallelDifferential checks the partitioned §4.10 count path on
// the csr backend against the sequential flat reference, on both cyclic and
// acyclic shapes.
func TestBackendParallelDifferential(t *testing.T) {
	ctx := context.Background()
	g := GenerateGraph(BarabasiAlbert, 2000, 10000, 11)
	g.SetSelectivity(10, 3)
	for _, q := range []*Query{Triangles(), Cliques(4), Paths(3)} {
		want, err := Count(ctx, g, q, Options{Algorithm: "lftj", Workers: 1, Backend: "flat"})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{LFTJ, MS} {
			got, err := Count(ctx, g, q, Options{Algorithm: alg, Workers: 4, Granularity: 8, Backend: BackendCSR})
			if err != nil {
				t.Fatalf("%s/%s parallel: %v", q.Name, alg, err)
			}
			if got != want {
				t.Errorf("%s/%s parallel count = %d, want %d", q.Name, alg, got, want)
			}
		}
	}
}

// TestBackendDefault pins the default backend: an unset Options.Backend
// compiles against csr.
func TestBackendDefault(t *testing.T) {
	g := GenerateGraph(ErdosRenyi, 100, 300, 2)
	p, err := g.Prepare(Triangles(), Options{Algorithm: "lftj"})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Explain().Backend; got != "csr" {
		t.Errorf("default backend = %q, want csr", got)
	}
}

// TestBackendPlanCaching pins the backend as a plan-cache dimension: the
// same shape prepared under both backends compiles twice, and re-preparing
// either hits its cached plan.
func TestBackendPlanCaching(t *testing.T) {
	g := GenerateGraph(ErdosRenyi, 200, 600, 1)
	q := Triangles()
	before := g.DB().CachedPlanCount()
	for _, backend := range backendMatrix {
		if _, err := g.Prepare(q, Options{Algorithm: "lftj", Backend: backend}); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.DB().CachedPlanCount() - before; got != len(backendMatrix) {
		t.Errorf("expected %d cached plans (one per backend), got %d", len(backendMatrix), got)
	}
	p, err := g.Prepare(q, Options{Algorithm: "lftj", Backend: "csr"})
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.PlanCacheHits != 1 {
		t.Errorf("re-prepare under csr: PlanCacheHits = %d, want 1", st.PlanCacheHits)
	}
}

// TestBackendUnknown rejects a misspelled backend at Prepare time.
func TestBackendUnknown(t *testing.T) {
	g := GenerateGraph(ErdosRenyi, 50, 100, 1)
	if _, err := g.Prepare(Triangles(), Options{Algorithm: "lftj", Backend: "btree"}); err == nil {
		t.Error("unknown backend should fail Prepare")
	}
}

// TestViewBackendDifferential maintains the same views on every backend
// through a long randomized ApplyEdges churn and requires identical counts
// after every batch — with a full recount as ground truth. On the CSR
// backend the batches land in the cached indexes' delta overlays, so this
// drives the overlay merge paths (cursor, probe, compaction) through the
// whole engine stack; flat re-binds per batch and is the reference.
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
		graphs := make([]*Graph, len(backendMatrix))
		views := make([]*incremental.GraphView, len(backendMatrix))
		for i, backend := range backendMatrix {
			graphs[i] = NewGraph(edges)
			v, err := incremental.NewGraphViewBackend(ctx, q, graphs[i].DB(), core.Backend(backend))
			if err != nil {
				t.Fatal(err)
			}
			if v.Backend() != core.Backend(backend) {
				t.Fatalf("view backend = %q, want %q", v.Backend(), backend)
			}
			views[i] = v
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
			for i, v := range views {
				if err := v.ApplyEdges(ctx, ins, del); err != nil {
					t.Fatalf("%s %s step %d: %v", q.Name, backendMatrix[i], step, err)
				}
			}
			want, err := views[0].Recount(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range views {
				if v.Count() != want {
					t.Fatalf("%s step %d: %s view = %d, recount = %d (ins=%v del=%v)",
						q.Name, step, backendMatrix[i], v.Count(), want, ins, del)
				}
			}
		}
	}
}

// TestViewPlanReuseOnCSR pins the overlay payoff: across many batches the
// CSR-backed view derives its GAO once and never re-binds a base-relation
// index — only the tiny delta atoms re-bind.
func TestViewPlanReuseOnCSR(t *testing.T) {
	ctx := context.Background()
	g := GenerateGraph(BarabasiAlbert, 300, 1200, 7)
	v, err := incremental.NewGraphViewBackend(ctx, Triangles(), g.DB(), core.BackendCSR)
	if err != nil {
		t.Fatal(err)
	}
	afterBuild := v.Stats().IndexBindings
	for i := 0; i < 5; i++ {
		if err := v.ApplyEdges(ctx, [][2]int64{{int64(i), int64(i + 50)}}, nil); err != nil {
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
