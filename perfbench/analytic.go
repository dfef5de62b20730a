package main

import (
	"context"
	"fmt"
	"time"

	"repro"
)

// The analytic workload: one in-process client Counting the paper's Table
// 6/7 shapes round-robin through repro.Local, each prepared once.

var analyticOps = []struct {
	name, src string
	alg       repro.Algorithm
}{
	{"tri", "fwd(a,b), fwd(b,c), fwd(a,c)", repro.LFTJ},
	{"clique4", "fwd(a,b), fwd(a,c), fwd(a,d), fwd(b,c), fwd(b,d), fwd(c,d)", repro.LFTJ},
	{"path3", "v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)", repro.MS},
	{"proj2", "q(a,c) :- fwd(a,b), fwd(b,c)", repro.LFTJ},
}

const analyticWorkers = 2

type analyticRun struct {
	store    *repro.Store
	q        repro.Querier
	prepared []repro.PreparedQuery
	in       *analyticInput
	loadTime time.Duration // total time in Load during setup
}

// setupAnalytic generates the inputs, loads them, prepares every op (which
// builds the indexes) and runs each op once.
func setupAnalytic(seed int64) (*analyticRun, error) {
	in := genAnalytic(seed)
	st := repro.NewStore()
	a := &analyticRun{store: st, q: repro.Local(st), in: in}
	rels := []struct {
		name   string
		arity  int
		tuples [][]int64
	}{
		{"edge", 2, in.g.symmetric()},
		{"fwd", 2, in.g.oriented()},
		{"v1", 1, unary(in.v1)},
		{"v2", 1, unary(in.v2)},
	}
	for _, r := range rels {
		if err := a.q.DefineRelation(r.name, r.arity); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := a.q.Load(r.name, r.tuples); err != nil {
			return nil, err
		}
		a.loadTime += time.Since(start)
	}
	for _, op := range analyticOps {
		q, err := a.q.ParseQuery(op.name, op.src)
		if err != nil {
			return nil, err
		}
		p, err := a.q.Prepare(q, repro.Options{Algorithm: op.alg, Workers: analyticWorkers})
		if err != nil {
			return nil, err
		}
		a.prepared = append(a.prepared, p)
	}
	for _, p := range a.prepared {
		if _, err := p.Count(context.Background()); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// measure Counts the ops round-robin until the deadline, checking every
// answer against the brute-force reference.
func (a *analyticRun) measure(d time.Duration, ref map[string]int64, traced bool) ([]opResult, time.Duration, error) {
	start := time.Now()
	deadline := start.Add(d)
	var out []opResult
	for i := 0; time.Now().Before(deadline); i++ {
		k := i % len(analyticOps)
		p := a.prepared[k]
		var before repro.ExecStats
		if traced {
			before = p.Stats()
		}
		r := opResult{typ: analyticOps[k].name, op: int64(i + 1), start: time.Now()}
		n, err := p.Count(context.Background())
		r.end = time.Now()
		if traced {
			r.stats = p.Stats().Sub(before)
		}
		if err != nil {
			return out, time.Since(start), fmt.Errorf("%s: %w", r.typ, err)
		}
		if want := ref[r.typ]; n != want {
			return out, time.Since(start), &wrongAnswer{fmt.Sprintf("%s: Count %d, want %d", r.typ, n, want)}
		}
		out = append(out, r)
	}
	return out, time.Since(start), nil
}

// wrongAnswer marks a failed answer check, as opposed to a failed call.
type wrongAnswer struct{ msg string }

func (w *wrongAnswer) Error() string { return "wrong answer: " + w.msg }
