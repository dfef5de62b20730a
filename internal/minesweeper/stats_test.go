package minesweeper

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/testutil"
)

func TestStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	db := testutil.RandomGraphDB(rng, 20, 80, 2)
	q := query.Path(3)

	var withC core.StatsCollector
	n1, err := Engine{Opts: Options{Collector: &withC}}.Count(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	with := withC.Snapshot()
	if with.Outputs != n1 {
		t.Errorf("Outputs = %d, want %d", with.Outputs, n1)
	}
	if with.Probes == 0 || with.Constraints == 0 || with.FreeTupleSteps == 0 {
		t.Errorf("zero activity counters: %+v", with)
	}
	if with.ProbeMemoHits == 0 {
		t.Errorf("Idea 4 memo never hit on a path query: %+v", with)
	}
	if with.MemoStores == 0 {
		t.Errorf("count-mode reuse never stored: %+v", with)
	}

	// Disabling Idea 4 must eliminate memo hits and issue at least as many
	// probes.
	var noMemoC core.StatsCollector
	n2, err := Engine{Opts: Options{DisableMemo: true, Collector: &noMemoC}}.Count(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Fatalf("counts differ: %d vs %d", n1, n2)
	}
	noMemo := noMemoC.Snapshot()
	if noMemo.ProbeMemoHits != 0 {
		t.Errorf("DisableMemo but ProbeMemoHits = %d", noMemo.ProbeMemoHits)
	}
	if noMemo.Probes < with.Probes {
		t.Errorf("without the memo the engine should probe at least as much: %d < %d", noMemo.Probes, with.Probes)
	}

	// Disabling count reuse must eliminate reuse hits.
	var noReuseC core.StatsCollector
	if _, err := (Engine{Opts: Options{DisableCountMemo: true, Collector: &noReuseC}}).Count(context.Background(), q, db); err != nil {
		t.Fatal(err)
	}
	if noReuse := noReuseC.Snapshot(); noReuse.ReuseHits != 0 || noReuse.MemoStores != 0 {
		t.Errorf("DisableCountMemo but reuse counters = %+v", noReuse)
	}
}

func TestStatsAccumulateAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	db := testutil.RandomGraphDB(rng, 10, 30, 2)
	var c core.StatsCollector
	e := Engine{Opts: Options{Collector: &c}}
	if _, err := e.Count(context.Background(), query.Clique(3), db); err != nil {
		t.Fatal(err)
	}
	first := c.Snapshot()
	if _, err := e.Count(context.Background(), query.Clique(3), db); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.Probes <= first.Probes || s.FreeTupleSteps <= first.FreeTupleSteps {
		t.Errorf("stats should accumulate: first=%+v total=%+v", first, s)
	}
}
