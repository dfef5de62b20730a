package incremental

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/testutil"
)

func TestTriangleViewInsert(t *testing.T) {
	ctx := context.Background()
	// Path 0-1-2: no triangles; inserting 0-2 closes one.
	db := testutil.GraphDB([][2]int64{{0, 1}, {1, 2}}, nil)
	v, err := NewView(ctx, query.Clique(3), db)
	if err != nil {
		t.Fatal(err)
	}
	if v.Count() != 0 {
		t.Fatalf("initial count = %d, want 0", v.Count())
	}
	if err := v.Update(ctx, EdgeBatches([][2]int64{{0, 2}}, nil)); err != nil {
		t.Fatal(err)
	}
	if v.Count() != 1 {
		t.Errorf("after closing the triangle: count = %d, want 1", v.Count())
	}
	if err := v.Update(ctx, EdgeBatches(nil, [][2]int64{{1, 2}})); err != nil {
		t.Fatal(err)
	}
	if v.Count() != 0 {
		t.Errorf("after removing an edge: count = %d, want 0", v.Count())
	}
}

func TestDuplicateAndMissingUpdatesIgnored(t *testing.T) {
	ctx := context.Background()
	db := testutil.GraphDB(testutil.K4, nil)
	v, err := NewView(ctx, query.Clique(3), db)
	if err != nil {
		t.Fatal(err)
	}
	base := v.Count()
	// Re-inserting an existing edge and deleting a non-edge are no-ops.
	if err := v.Update(ctx, EdgeBatches([][2]int64{{0, 1}}, [][2]int64{{0, 9}})); err != nil {
		t.Fatal(err)
	}
	if v.Count() != base {
		t.Errorf("no-op update changed count: %d -> %d", base, v.Count())
	}
}

// TestRandomChurn applies random edge insertions/deletions and checks the
// maintained count against a full recount after every batch, across query
// shapes (including multi-occurrence self-joins, the inclusion-exclusion
// stress case).
func TestRandomChurn(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))
	queries := []*query.Query{query.Clique(3), query.Clique(4), query.Path(3), query.Comb(), query.Cycle(4)}
	for _, q := range queries {
		db := testutil.RandomGraphDB(rng, 12, 30, 2)
		v, err := NewView(ctx, q, db)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 12; step++ {
			var ins, del [][2]int64
			for k := 0; k < 1+rng.Intn(3); k++ {
				e := [2]int64{int64(rng.Intn(12)), int64(rng.Intn(12))}
				if e[0] == e[1] {
					continue
				}
				if rng.Intn(2) == 0 {
					ins = append(ins, e)
				} else {
					del = append(del, e)
				}
			}
			if err := v.Update(ctx, EdgeBatches(ins, del)); err != nil {
				t.Fatal(err)
			}
			want, err := v.Recount(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if v.Count() != want {
				t.Fatalf("%s step %d: maintained = %d, recount = %d (ins=%v del=%v)",
					q.Name, step, v.Count(), want, ins, del)
			}
		}
	}
}

func TestUnreferencedRelation(t *testing.T) {
	ctx := context.Background()
	db := testutil.GraphDB(testutil.K4, map[string][]int64{query.Sample1: {0}})
	v, err := NewView(ctx, query.Clique(3), db) // uses fwd only
	if err != nil {
		t.Fatal(err)
	}
	base := v.Count()
	// Updating v1 (not referenced by the clique query) must not change the
	// count but must update the relation.
	if err := v.UpdateRelation(ctx, query.Sample1, [][]int64{{3}}, nil); err != nil {
		t.Fatal(err)
	}
	if v.Count() != base {
		t.Errorf("count changed on unreferenced update")
	}
	r, err := db.Relation(query.Sample1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Errorf("v1 size = %d, want 2", r.Len())
	}
}

func TestViewValidation(t *testing.T) {
	ctx := context.Background()
	db := testutil.GraphDB(testutil.K4, nil)
	if _, err := NewView(ctx, query.New("empty"), db); err == nil {
		t.Error("empty query should fail")
	}
}
