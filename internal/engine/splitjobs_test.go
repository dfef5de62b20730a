package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/testutil"
)

// wantCuts computes the §4.10 job ranges straight from the relation rows:
// the sorted distinct values of column 0 cut at values[i·d/n].
func wantCuts(r *relation.Relation, n int) [][2]int64 {
	var values []int64
	for i := 0; i < r.Len(); i++ {
		if v := r.Value(i, 0); len(values) == 0 || values[len(values)-1] != v {
			values = append(values, v)
		}
	}
	n = min(n, len(values))
	if n <= 1 {
		return [][2]int64{{-1, relation.PosInf}}
	}
	var jobs [][2]int64
	lo := int64(-1)
	for i := 1; i < n; i++ {
		cut := values[i*len(values)/n]
		jobs = append(jobs, [2]int64{lo, cut})
		lo = cut
	}
	return append(jobs, [2]int64{lo, relation.PosInf})
}

// checkJobRanges requires ascending, disjoint ranges covering [-1, PosInf).
func checkJobRanges(t *testing.T, jobs [][2]int64) {
	t.Helper()
	if len(jobs) == 0 || jobs[0][0] != -1 || jobs[len(jobs)-1][1] != relation.PosInf {
		t.Fatalf("jobs %v do not cover [-1, PosInf)", jobs)
	}
	for i, j := range jobs {
		if j[0] >= j[1] {
			t.Fatalf("job %d is empty or inverted: %v", i, j)
		}
		if i > 0 && j[0] != jobs[i-1][1] {
			t.Fatalf("job %d %v does not start where job %d %v ends", i, j, i-1, jobs[i-1])
		}
	}
}

// bruteTriangles counts a<b<c triangles of the oriented edge relation by
// nested loops over its rows.
func bruteTriangles(t *testing.T, db *core.DB) int64 {
	t.Helper()
	fwd, err := db.Relation(query.Fwd)
	if err != nil {
		t.Fatal(err)
	}
	adj := make(map[int64]map[int64]bool)
	for i := 0; i < fwd.Len(); i++ {
		u, v := fwd.Value(i, 0), fwd.Value(i, 1)
		if adj[u] == nil {
			adj[u] = make(map[int64]bool)
		}
		adj[u][v] = true
	}
	var n int64
	for a, bs := range adj {
		for b := range bs {
			for c := range adj[b] {
				if adj[a][c] {
					n++
				}
			}
		}
	}
	return n
}

// TestSplitJobsFromIndex pins the §4.10 cut policy: the cut points are the
// sorted distinct first-attribute values of the bound CSR index cut at
// values[i·d/n], on a pristine relation and after overlay inserts that
// extend the first attribute's domain past both ends; the partitioned Count
// matches the sequential one and a brute-force oracle. The subtest is named
// for the index it cuts.
func TestSplitJobsFromIndex(t *testing.T) {
	ctx := context.Background()
	q := query.Clique(3)
	const nJobs = 4 * 8
	t.Run("csr", func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		var edges [][2]int64
		for _, e := range testutil.RandomGraph(rng, 60, 300) {
			edges = append(edges, [2]int64{e[0] + 100, e[1] + 100})
		}
		db := testutil.GraphDB(edges, nil)

		check := func(stage string) {
			plan, err := CompilePlan(Options{Algorithm: LFTJ}, q, db)
			if err != nil {
				t.Fatal(err)
			}
			fwd, err := db.Relation(query.Fwd)
			if err != nil {
				t.Fatal(err)
			}
			jobs := splitJobs(plan, nJobs)
			checkJobRanges(t, jobs)
			if want := wantCuts(fwd, nJobs); fmt.Sprint(jobs) != fmt.Sprint(want) {
				t.Errorf("%s: jobs %v, want %v", stage, jobs, want)
			}
			oracle := bruteTriangles(t, db)
			for _, alg := range []Algorithm{LFTJ, MS} {
				var counts [2]int64
				for i, workers := range []int{1, 4} {
					e, err := New(Options{Algorithm: alg, Workers: workers, Granularity: 8})
					if err != nil {
						t.Fatal(err)
					}
					if counts[i], err = e.Count(ctx, q, db); err != nil {
						t.Fatalf("%s %s workers=%d: %v", stage, alg, workers, err)
					}
				}
				if counts[0] != oracle || counts[1] != oracle {
					t.Errorf("%s %s: workers=1 %d, workers=4 %d, oracle %d", stage, alg, counts[0], counts[1], oracle)
				}
			}
		}
		check("pristine")

		// Triangles entirely below the base minimum (100) and above the
		// base maximum (159), plus edges tying each into the base.
		var fwdIns, edgeIns [][]int64
		for _, e := range [][2]int64{{1, 2}, {1, 3}, {2, 3}, {3, 100}, {900, 901}, {900, 902}, {901, 902}, {120, 900}} {
			fwdIns = append(fwdIns, []int64{e[0], e[1]})
			edgeIns = append(edgeIns, []int64{e[0], e[1]}, []int64{e[1], e[0]})
		}
		if err := db.ApplyDeltas([]core.DeltaBatch{
			{Name: query.Fwd, Inserts: fwdIns},
			{Name: query.Edge, Inserts: edgeIns},
		}); err != nil {
			t.Fatal(err)
		}
		check("overlay")
	})
}

// TestParallelCountAllocBytesDoNotScale pins the §4.10 job split as free
// of per-Count work proportional to the input: the bytes one prepared
// parallel LFTJ Count allocates stay within 1.5× when the graph doubles.
func TestParallelCountAllocBytesDoNotScale(t *testing.T) {
	bytesPerCount := func(nodes, edges int) float64 {
		rng := rand.New(rand.NewSource(21))
		db := testutil.GraphDB(testutil.RandomGraph(rng, nodes, edges), nil)
		e, _, err := Prepare(Options{Algorithm: LFTJ, Workers: 4, Granularity: 8}, query.Clique(3), db)
		if err != nil {
			t.Fatal(err)
		}
		count := func() {
			if _, err := e.Count(context.Background(), query.Clique(3), db); err != nil {
				t.Fatal(err)
			}
		}
		count()
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			count()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small := bytesPerCount(10_000, 20_000)
	large := bytesPerCount(20_000, 40_000)
	if large > 1.5*small {
		t.Errorf("bytes per parallel Count grew %.2f× when the graph doubled (%.0f -> %.0f B)", large/small, small, large)
	}
}
