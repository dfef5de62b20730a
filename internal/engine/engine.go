// Package engine ties the join algorithms together behind one registry and
// implements the paper's §4.10 multi-threading strategy: the output space is
// partitioned into p = workers × granularity jobs on the first GAO
// attribute, submitted to a worker pool; idle workers grab the next
// unclaimed job (work stealing), because on skewed graphs "the parts are not
// born equal".
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/genericjoin"
	"repro/internal/graphengine"
	"repro/internal/hybrid"
	"repro/internal/lftj"
	"repro/internal/minesweeper"
	"repro/internal/pairwise"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/yannakakis"
)

// Algorithm names a join engine. The names match the paper's system labels
// (§5.1): lb/lftj, lb/ms, lb/hybrid, psql, monetdb, graphlab, plus the
// yannakakis yardstick.
type Algorithm string

// Available algorithms.
const (
	LFTJ       Algorithm = "lftj"
	MS         Algorithm = "ms"
	Hybrid     Algorithm = "hybrid"
	PSQL       Algorithm = "psql"
	MonetDB    Algorithm = "monetdb"
	Yannakakis Algorithm = "yannakakis"
	GraphLab   Algorithm = "graphlab"
	// GenericJoin is the paper's Algorithm 1 — the recursive,
	// intersection-materializing formulation of a worst-case-optimal join —
	// kept as an implementation ablation against the leapfrog formulation.
	GenericJoin Algorithm = "genericjoin"
)

// Algorithms lists every registered algorithm.
func Algorithms() []Algorithm {
	return []Algorithm{LFTJ, MS, Hybrid, PSQL, MonetDB, Yannakakis, GraphLab, GenericJoin}
}

// ErrUnknownAlgorithm reports an algorithm name outside the registered set;
// API callers branch with errors.Is instead of matching message text.
var ErrUnknownAlgorithm = errors.New("unknown algorithm")

// ErrUnsupportedQuery reports an extended query (projection, comparison
// predicates, or aggregates) prepared for an algorithm that only executes
// plain natural joins; only LFTJ and Minesweeper push the extended features
// into their trie traversal.
var ErrUnsupportedQuery = errors.New("query features unsupported by this algorithm")

// ParseAlgorithm resolves a user-supplied algorithm name; empty selects LFTJ
// (the default engine throughout the API).
func ParseAlgorithm(s string) (Algorithm, error) {
	a := Algorithm(s)
	if a == "" {
		return LFTJ, nil
	}
	for _, known := range Algorithms() {
		if a == known {
			return a, nil
		}
	}
	names := make([]string, len(Algorithms()))
	for i, k := range Algorithms() {
		names[i] = string(k)
	}
	return "", fmt.Errorf("engine: %w %q (want one of %s)", ErrUnknownAlgorithm, s, strings.Join(names, ", "))
}

// Options configure execution.
type Options struct {
	Algorithm Algorithm
	// Workers sets the worker-pool size for the parallel engines (LFTJ and
	// Minesweeper); 0 means GOMAXPROCS, 1 disables parallelism.
	Workers int
	// Granularity is the paper's factor f: jobs = workers × f. 0 picks the
	// paper's defaults (1 for β-acyclic queries, 8 for cyclic ones).
	Granularity int
	// MS carries Minesweeper idea toggles (ablation benchmarks).
	MS minesweeper.Options
	// GAO overrides the attribute order for LFTJ and Minesweeper.
	GAO []string
	// Backend selects the index backend for the trie-driven engines (LFTJ,
	// Minesweeper): core.BackendCSR (the default) or core.BackendFlat (the
	// reference).
	Backend core.Backend
	// MaxRows caps pairwise-engine intermediates.
	MaxRows int
	// Plan, when set, is a compiled plan the engine executes directly
	// (LFTJ, Minesweeper, and generic join); see Prepare.
	Plan *core.Plan
	// Stats, when non-nil, receives execution counters from every engine on
	// the unified core stats surface.
	Stats *core.StatsCollector
	// FirstVarRange, when set, restricts execution to first-GAO-variable
	// values in [Lo, Hi) — the same restriction the §4.10 parallel jobs use
	// internally, exposed so a coordinator can partition one query's output
	// space across processes. Count runs single-threaded under a restriction
	// (the caller owns the parallelism); LFTJ and Minesweeper only.
	FirstVarRange *Range
}

// Range restricts the first GAO variable to [Lo, Hi); see
// Options.FirstVarRange.
type Range struct {
	Lo, Hi int64
}

// New returns the configured engine.
func New(opts Options) (core.Engine, error) {
	switch opts.Algorithm {
	case LFTJ, MS:
		return &parallel{opts: opts}, nil
	case Hybrid:
		return instrument(hybrid.Engine{}, opts.Stats), nil
	case PSQL:
		return instrument(pairwise.Engine{Opts: pairwise.Options{Flavor: pairwise.DP, MaxRows: opts.MaxRows}}, opts.Stats), nil
	case MonetDB:
		return instrument(pairwise.Engine{Opts: pairwise.Options{Flavor: pairwise.Greedy, MaxRows: opts.MaxRows}}, opts.Stats), nil
	case Yannakakis:
		return instrument(yannakakis.Engine{}, opts.Stats), nil
	case GraphLab:
		return instrument(graphengine.Engine{Workers: opts.Workers}, opts.Stats), nil
	case GenericJoin:
		return instrument(genericjoin.Engine{GAO: opts.GAO, Plan: opts.Plan}, opts.Stats), nil
	default:
		return nil, fmt.Errorf("engine: %w %q", ErrUnknownAlgorithm, opts.Algorithm)
	}
}

// instrument wraps an engine without internal counter support so its
// executions and output cardinalities still land on the unified stats
// surface. A nil collector leaves the engine untouched.
func instrument(e core.Engine, sc *core.StatsCollector) core.Engine {
	if sc == nil {
		return e
	}
	return instrumented{inner: e, sc: sc}
}

type instrumented struct {
	inner core.Engine
	sc    *core.StatsCollector
}

// Name implements core.Engine.
func (e instrumented) Name() string { return e.inner.Name() }

// Count implements core.Engine.
func (e instrumented) Count(ctx context.Context, q *query.Query, db *core.DB) (int64, error) {
	n, err := e.inner.Count(ctx, q, db)
	st := core.Stats{Executions: 1}
	if err == nil {
		st.Outputs = n
	}
	e.sc.Add(st)
	return n, err
}

// Enumerate implements core.Engine.
func (e instrumented) Enumerate(ctx context.Context, q *query.Query, db *core.DB, emit func([]int64) bool) error {
	var outputs int64
	err := e.inner.Enumerate(ctx, q, db, func(t []int64) bool {
		outputs++
		return emit(t)
	})
	e.sc.Add(core.Stats{Executions: 1, Outputs: outputs})
	return err
}

// parallel partitions Count across first-attribute ranges; Enumerate runs
// single-threaded (deterministic emission order).
type parallel struct {
	opts Options
}

// Name implements core.Engine.
func (p *parallel) Name() string { return string(p.opts.Algorithm) }

func (p *parallel) single() core.Engine {
	if p.opts.Algorithm == LFTJ {
		opts := lftj.Options{GAO: p.gao(), Backend: p.opts.Backend, Plan: p.opts.Plan, Stats: p.opts.Stats}
		if r := p.opts.FirstVarRange; r != nil {
			opts.FirstVarRange = &lftj.Range{Lo: r.Lo, Hi: r.Hi}
		}
		return lftj.Engine{Opts: opts}
	}
	ms := p.opts.MS
	if ms.GAO == nil {
		ms.GAO = p.opts.GAO
	}
	if ms.Backend == "" {
		ms.Backend = p.opts.Backend
	}
	if r := p.opts.FirstVarRange; r != nil {
		ms.FirstVarRange = &minesweeper.Range{Lo: r.Lo, Hi: r.Hi}
	}
	ms.Plan = p.opts.Plan
	ms.Collector = p.opts.Stats
	return minesweeper.Engine{Opts: ms}
}

func (p *parallel) gao() []string { return p.opts.GAO }

func (p *parallel) workers() int {
	if p.opts.Workers > 0 {
		return p.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// granularity applies the paper's default f (§4.10): 1 for β-acyclic
// queries, 8 for cyclic ones, "determined after minor micro experiments".
// The compiled plan carries the classification.
func (p *parallel) granularity() int {
	if p.opts.Granularity > 0 {
		return p.opts.Granularity
	}
	if p.opts.Plan.BetaCyclic {
		return 8
	}
	return 1
}

// Enumerate implements core.Engine.
func (p *parallel) Enumerate(ctx context.Context, q *query.Query, db *core.DB, emit func([]int64) bool) error {
	p.opts.Stats.Add(core.Stats{Executions: 1})
	return p.single().Enumerate(ctx, q, db, emit)
}

// Count implements core.Engine.
func (p *parallel) Count(ctx context.Context, q *query.Query, db *core.DB) (int64, error) {
	p.opts.Stats.Add(core.Stats{Executions: 1})
	workers := p.workers()
	// Under an external first-variable restriction the output space is
	// already one partition of a larger fan-out; splitting it again would
	// clobber the restriction (rangeCount overwrites FirstVarRange per job).
	if workers <= 1 || p.opts.FirstVarRange != nil {
		return p.single().Count(ctx, q, db)
	}
	if p.opts.Plan == nil {
		// The jobs and their cut points read one compiled binding; the
		// DB's plan cache serves repeated unplanned Counts.
		plan, err := CompilePlan(p.opts, q, db)
		if err != nil {
			return 0, err
		}
		planned := *p
		planned.opts.Plan = plan
		p = &planned
	}
	jobs := splitJobs(p.opts.Plan, workers*p.granularity())
	if len(jobs) <= 1 {
		return p.single().Count(ctx, q, db)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var total atomic.Int64
	var wg sync.WaitGroup
	jobCh := make(chan [2]int64, len(jobs))
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobCh {
				if err := ctx.Err(); err != nil {
					errCh <- err
					return
				}
				// Each job gets a fresh engine: per-job CDS and memo state,
				// released before the next job is claimed (§4.10).
				n, err := p.rangeCount(ctx, q, db, job[0], job[1])
				if err != nil {
					errCh <- err
					cancel()
					return
				}
				total.Add(n)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return 0, err
	default:
	}
	return total.Load(), nil
}

func (p *parallel) rangeCount(ctx context.Context, q *query.Query, db *core.DB, lo, hi int64) (int64, error) {
	if p.opts.Algorithm == LFTJ {
		e := lftj.Engine{Opts: lftj.Options{GAO: p.gao(), Backend: p.opts.Backend, FirstVarRange: &lftj.Range{Lo: lo, Hi: hi}, Plan: p.opts.Plan, Stats: p.opts.Stats}}
		return e.Count(ctx, q, db)
	}
	ms := p.opts.MS
	if ms.GAO == nil {
		ms.GAO = p.opts.GAO
	}
	if ms.Backend == "" {
		ms.Backend = p.opts.Backend
	}
	ms.FirstVarRange = &minesweeper.Range{Lo: lo, Hi: hi}
	ms.Plan = p.opts.Plan
	ms.Collector = p.opts.Stats
	return minesweeper.Engine{Opts: ms}.Count(ctx, q, db)
}

// splitJobs partitions the first GAO variable's domain into up to n
// contiguous ranges holding roughly equal numbers of its candidate values
// (the paper's "p equal-sized parts" of the output space): with values the
// d sorted distinct first-variable values of the smallest atom containing
// that variable, the cut points are values[i·d/n]. Every atom containing the
// first variable leads on it, so values is level 0 of that atom's bound
// trie: two cursor walks over one pinned snapshot count it and then pick the
// cuts, with no row scan and no copy of the values.
func splitJobs(plan *core.Plan, n int) [][2]int64 {
	var idx core.IndexBackend
	for _, a := range core.SnapshotAtoms(plan.Atoms) {
		if len(a.VarPos) > 0 && a.VarPos[0] == 0 && (idx == nil || a.Index.Len() < idx.Len()) {
			idx = a.Index
		}
	}
	whole := [][2]int64{{-1, relation.PosInf}}
	if idx == nil {
		return whole
	}
	d := 0
	c := idx.NewCursor()
	for c.Open(); !c.AtEnd(); c.Next() {
		d++
	}
	n = min(n, d)
	if n <= 1 {
		return whole
	}
	jobs := make([][2]int64, 0, n)
	lo := int64(-1)
	c = idx.NewCursor()
	c.Open()
	for i, k := 1, 0; i < n; i++ {
		for ; k < i*d/n; k++ {
			c.Next()
		}
		if cut := c.Key(); cut > lo {
			jobs = append(jobs, [2]int64{lo, cut})
			lo = cut
		}
	}
	return append(jobs, [2]int64{lo, relation.PosInf})
}
