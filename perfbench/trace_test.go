package main

import (
	"testing"
	"time"
)

// TestTracedRunAttributesSpans runs short traced serve and routed instances
// (their clients, servers and router record spans concurrently) and checks
// that every store-side span of a measured op is credited to it and that the
// structural per-layer figures come out exact.
func TestTracedRunAttributesSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	for _, w := range []string{"serve", "routed"} {
		env := &runEnv{workload: w, seed: 9, work: t.TempDir()}
		rec := newRecorder()
		var m map[string]float64
		_, err := runInstance(env, 0, rec, 3*time.Second, func(s *served) error {
			if n := rec.tree().unattributed(s.start); n != 0 {
				t.Errorf("%s: %d spans not credited to an op", w, n)
			}
			m = serveLayers(s, rec)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		for typ, want := range map[string]float64{"hop2": 4, "rows": 4, "agg": 4, "apply": 1} {
			if got := m["server.round_trips_per_op."+typ]; got != want {
				t.Errorf("%s: %s makes %v round trips per op, want %v", w, typ, got, want)
			}
			if m["server.self_us."+typ] <= 0 {
				t.Errorf("%s: no server self time for %s", w, typ)
			}
		}
		if got := m["router.fanout_width"]; (w == "routed") != (got == shardCount) {
			t.Errorf("%s: fan-out width %v", w, got)
		}
	}
}
