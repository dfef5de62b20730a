package main

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro"
)

// inputBytes renders every input a seed determines: both graphs, the
// samples, and each client's first keys and swaps.
func inputBytes(seed int64) []byte {
	var b bytes.Buffer
	a := genAnalytic(seed)
	fmt.Fprintln(&b, a.g.n, a.g.edges, a.v1, a.v2)
	s := genServe(seed)
	fmt.Fprintln(&b, s.n, s.edges, checkSample(seed, s.n))
	for i := 0; i < serveClients; i++ {
		rng := clientRNG(seed, i)
		key := keyDraw(rng, s.n)
		slice := newEdgeSlice(s, i, serveClients)
		for j := 0; j < 200; j++ {
			del, ins := slice.nextSwap(rng)
			slice.commit(del, ins)
			fmt.Fprintln(&b, key(), del, ins)
		}
	}
	return b.Bytes()
}

func TestInputsRepeatForASeed(t *testing.T) {
	if !bytes.Equal(inputBytes(7), inputBytes(7)) {
		t.Fatal("the same seed gave different inputs")
	}
}

func TestInputsDifferAcrossSeeds(t *testing.T) {
	if bytes.Equal(inputBytes(7), inputBytes(8)) {
		t.Fatal("different seeds gave identical inputs")
	}
}

func TestGraphSizes(t *testing.T) {
	a := genAnalytic(1)
	if n := len(a.g.edges); n < 20000 || n > 23000 {
		t.Errorf("analytic graph has %d edges, want about 21.6k", n)
	}
	if s := genServe(1); len(s.edges) < 24000 || len(s.edges) > 25000 {
		t.Errorf("serve graph has %d edges, want about 25k", len(s.edges))
	}
}

// analyticCounters runs every analytic op once on a fresh setup and returns
// the exact engine counters the per-layer metrics are built from.
func analyticCounters(t *testing.T, seed int64) []repro.ExecStats {
	t.Helper()
	a, err := setupAnalytic(seed)
	if err != nil {
		t.Fatal(err)
	}
	ref := refAnalytic(a.in)
	var out []repro.ExecStats
	for i, p := range a.prepared {
		before := p.Stats()
		n, err := p.Count(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want := ref[analyticOps[i].name]; n != want {
			t.Fatalf("%s: Count %d, want %d", analyticOps[i].name, n, want)
		}
		out = append(out, p.Stats().Sub(before))
	}
	return out
}

func TestAnalyticCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every analytic query twice")
	}
	first, second := analyticCounters(t, 3), analyticCounters(t, 3)
	for i := range first {
		f, s := first[i], second[i]
		// Seeks, probes, outputs, constraints, free-tuple steps and memo
		// hits feed core.seeks_per_op, lftj.probes_per_output and
		// minesweeper.*_per_op; they must not depend on scheduling.
		if f.Seeks != s.Seeks || f.Probes != s.Probes || f.Outputs != s.Outputs ||
			f.Constraints != s.Constraints || f.FreeTupleSteps != s.FreeTupleSteps ||
			f.ProbeMemoHits != s.ProbeMemoHits {
			t.Errorf("%s: counters differ between same-seed runs:\n%+v\n%+v", analyticOps[i].name, f, s)
		}
	}
}

// roundTrips runs a fixed op sequence on a fresh serve deployment and
// returns the wire requests each op made.
func roundTrips(t *testing.T, workload string, seed int64) []int64 {
	t.Helper()
	env := &runEnv{workload: workload, seed: seed, work: t.TempDir()}
	cl, err := setupCluster(env, 0, nil, genServe(seed))
	defer cl.teardown()
	if err != nil {
		t.Fatal(err)
	}
	var trips []int64
	for i := 0; i < 3; i++ {
		for _, typ := range serveOps {
			r := cl.clients[0].do(typ, 0)
			if r.err != nil {
				t.Fatal(r.err)
			}
			trips = append(trips, r.requests)
		}
	}
	return trips
}

func TestRoundTripsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	for _, w := range []string{"serve", "routed"} {
		first, second := roundTrips(t, w, 5), roundTrips(t, w, 5)
		if fmt.Sprint(first) != fmt.Sprint(second) {
			t.Errorf("%s: round trips differ between same-seed runs: %v vs %v", w, first, second)
		}
	}
}
