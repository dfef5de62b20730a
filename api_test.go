package repro

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
)

func k4() *Graph {
	return NewGraph([][2]int64{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
}

func TestCountTrianglesAllEngines(t *testing.T) {
	g := k4()
	for _, alg := range []Algorithm{"", LFTJ, MS, PSQL, MonetDB, GraphLab} {
		got, err := g.Count(context.Background(), Triangles(), Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%q: %v", alg, err)
		}
		if got != 4 {
			t.Errorf("%q: triangles(K4) = %d, want 4", alg, got)
		}
	}
}

func TestGeneratedGraphConsistency(t *testing.T) {
	g := GenerateGraph(BarabasiAlbert, 400, 1600, 3)
	if g.Nodes() != 400 || g.Edges() == 0 {
		t.Fatalf("nodes=%d edges=%d", g.Nodes(), g.Edges())
	}
	ctx := context.Background()
	a, err := g.Count(ctx, Triangles(), Options{Algorithm: "lftj"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Count(ctx, Triangles(), Options{Algorithm: "ms"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("lftj=%d ms=%d", a, b)
	}
}

func TestSelectivityAndSamples(t *testing.T) {
	g := GenerateGraph(ErdosRenyi, 200, 400, 5)
	g.SetSelectivity(10, 7)
	ctx := context.Background()
	n1, err := g.Count(ctx, Paths(3), Options{Algorithm: "ms"})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := g.Count(ctx, Paths(3), Options{Algorithm: "lftj"})
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Errorf("ms=%d lftj=%d", n1, n2)
	}
	g.SetSamples([]int64{0}, []int64{1})
	n3, err := g.Count(ctx, Paths(3), Options{Algorithm: "yannakakis"})
	if err != nil {
		t.Fatal(err)
	}
	n4, err := g.Count(ctx, Paths(3), Options{Algorithm: "lftj"})
	if err != nil {
		t.Fatal(err)
	}
	if n3 != n4 {
		t.Errorf("yannakakis=%d lftj=%d", n3, n4)
	}
}

func TestEnumerateAPI(t *testing.T) {
	g := k4()
	var rows [][]int64
	err := g.Enumerate(context.Background(), Triangles(), Options{}, func(tu []int64) bool {
		rows = append(rows, append([]int64(nil), tu...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Errorf("enumerated %d rows, want 4", len(rows))
	}
}

func TestParseQueryAPI(t *testing.T) {
	q, err := ParseQuery("my-triangle", "fwd(a,b), fwd(b,c), fwd(a,c)")
	if err != nil {
		t.Fatal(err)
	}
	got, err := k4().Count(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("parsed triangle count = %d, want 4", got)
	}
}

func TestDatasetAPI(t *testing.T) {
	g, err := Dataset("ca-GrQc")
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes() != 5242 {
		t.Errorf("ca-GrQc nodes = %d, want 5242", g.Nodes())
	}
	if _, err := Dataset("nope"); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestAGMBoundAPI(t *testing.T) {
	g := k4()
	bound, err := g.AGMBound(Triangles())
	if err != nil {
		t.Fatal(err)
	}
	// 6 oriented edges: bound = 6^1.5 ≈ 14.7 >= 4 actual triangles.
	if bound < 4 || bound > 15 {
		t.Errorf("AGM bound = %v, want in [4, 15]", bound)
	}
}

func TestBadAlgorithm(t *testing.T) {
	if _, err := k4().Count(context.Background(), Triangles(), Options{Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestHybridAPI(t *testing.T) {
	g := GenerateGraph(HolmeKim, 100, 500, 2)
	g.SetSelectivity(4, 9)
	ctx := context.Background()
	a, err := g.Count(ctx, Lollipops(2), Options{Algorithm: "hybrid"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Count(ctx, Lollipops(2), Options{Algorithm: "lftj"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("hybrid=%d lftj=%d", a, b)
	}
}

func TestIdeaTogglesAPI(t *testing.T) {
	g := GenerateGraph(BarabasiAlbert, 150, 600, 4)
	g.SetSelectivity(10, 3)
	ctx := context.Background()
	base, err := g.Count(ctx, Comb(), Options{Algorithm: "ms"})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Options{
		{Algorithm: "ms", DisableProbeMemo: true},
		{Algorithm: "ms", DisableComplete: true},
		{Algorithm: "ms", DisableSkeleton: true},
		{Algorithm: "ms", DisableCountReuse: true},
	} {
		got, err := g.Count(ctx, Comb(), o)
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Errorf("toggle %+v changed the count: %d vs %d", o, got, base)
		}
	}
}

// TestPreparedMSStats pins the ablation counters of a sequential ms
// handle: probes are counted and Outputs equals the count.
func TestPreparedMSStats(t *testing.T) {
	g := GenerateGraph(BarabasiAlbert, 100, 400, 6)
	g.SetSelectivity(5, 2)
	p, err := g.Prepare(Paths(3), Options{Algorithm: MS, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Outputs != n || st.Probes == 0 {
		t.Errorf("stats = %+v for count %d", st, n)
	}
}

// TestPreparedMSStatsDeterministic pins that two executions of a
// sequential ms handle add identical execution counters (only a sequential
// Minesweeper run is deterministic; partitioned runs probe partition
// boundaries too), and that its count agrees with the default engine's.
func TestPreparedMSStatsDeterministic(t *testing.T) {
	ctx := context.Background()
	g := GenerateGraph(BarabasiAlbert, 200, 800, 6)
	g.SetSelectivity(5, 2)
	q := Paths(3)
	p, err := g.Prepare(q, Options{Algorithm: MS, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var runs [2]ExecStats
	var n int64
	for i := range runs {
		before := p.Stats()
		if n, err = p.Count(ctx); err != nil {
			t.Fatal(err)
		}
		runs[i] = p.Stats().Sub(before)
		if runs[i].Outputs != n || runs[i].Probes == 0 {
			t.Errorf("execution %d: stats = %+v for count %d", i, runs[i], n)
		}
	}
	if runs[0] != runs[1] {
		t.Errorf("ms counters differ across executions:\n%+v\n%+v", runs[0], runs[1])
	}
	want, err := g.Count(ctx, q, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Errorf("ms count %d, default engine %d", n, want)
	}
}

// TestSetSelectivityMatchesDatasetDB pins the one sample draw: redrawing a
// generated graph's samples with a seed yields exactly the v1..v4 tuples
// the dataset package builds for that graph, selectivity and seed.
func TestSetSelectivityMatchesDatasetDB(t *testing.T) {
	for _, s := range []int{1, 8} {
		g := GenerateGraph(BarabasiAlbert, 300, 1200, 7)
		g.SetSelectivity(s, 99)
		want := newStoreOver(dataset.DB(dataset.Generate(BarabasiAlbert, 300, 1200, 7), s, 99))
		for _, name := range []string{query.Sample1, query.Sample2, query.Sample3, query.Sample4} {
			if got, exp := relTuples(t, g.Store, name), relTuples(t, want, name); !reflect.DeepEqual(got, exp) {
				t.Errorf("s=%d %s: %d tuples, want %d", s, name, len(got), len(exp))
			}
		}
	}
}

func TestMaintainCountAPI(t *testing.T) {
	ctx := context.Background()
	g := NewGraph([][2]int64{{0, 1}, {1, 2}})
	v, err := MaintainCount(ctx, g, Triangles())
	if err != nil {
		t.Fatal(err)
	}
	if v.Count() != 0 {
		t.Fatalf("initial = %d", v.Count())
	}
	if err := v.ApplyEdges(ctx, [][2]int64{{0, 2}}, nil); err != nil {
		t.Fatal(err)
	}
	if v.Count() != 1 {
		t.Errorf("after insert = %d, want 1", v.Count())
	}
	// The underlying graph relations changed too: a fresh engine count agrees.
	n, err := g.Count(ctx, Triangles(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("fresh count = %d, want 1", n)
	}
}

func TestTransitiveClosureAPI(t *testing.T) {
	ctx := context.Background()
	g := NewGraph([][2]int64{{0, 1}, {1, 2}})
	g.SetSamples([]int64{0}, []int64{2})
	if err := MaterializeTransitiveClosure(ctx, g); err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery("reach", "v1(a), tc(a, b), v2(b)")
	if err != nil {
		t.Fatal(err)
	}
	n, err := g.Count(ctx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("reach = %d, want 1", n)
	}
}

func TestGenericJoinAPI(t *testing.T) {
	g := k4()
	n, err := g.Count(context.Background(), Triangles(), Options{Algorithm: "genericjoin"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("genericjoin triangles = %d, want 4", n)
	}
}
