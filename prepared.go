package repro

import (
	"context"
	"fmt"
	"iter"
	"strings"

	"repro/internal/agm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/trace"
)

// Prepared is a compiled query pinned against a store's physical design:
// Prepare validates the query once, fixes the global attribute order, binds
// the GAO-consistent indexes (§4.1), and selects the engine — so every
// subsequent Count, Enumerate, or Rows call is pure execution. This is the
// lifecycle the paper assumes of LogicBlox: plan once against a fixed
// physical design, execute repeatedly (including under the §3 incremental-
// maintenance workloads).
//
// A Prepared handle is safe for concurrent use: the plan is immutable, every
// execution builds its own iterator and memo state, and the stats collector
// is synchronized. On the default CSR backend, incremental writes routed
// through Store.Apply advance the handle's indexes in place, so the handle
// keeps serving current data; handles on the flat backend hold immutable
// indexes and keep serving their Prepare-time state after writes. Bulk replacements (Store.Load, SetSelectivity, SetSamples) swap
// whole relations and never re-point existing handles on any backend. In
// both cases, Prepare again to pick up the new design — the underlying plan
// cache makes re-preparing an unchanged shape cheap.
type Prepared struct {
	s       *Store
	q       *Query
	alg     string
	engOpts engine.Options
	eng     core.Engine
	plan    *core.Plan
	sc      *core.StatsCollector
	agg     *aggSpec
	// shardFilter, for a hash-sharded handle, keeps only the rows of this
	// shard's residue class; applied to the engine's emission before any
	// aggregation. nil otherwise (range shards restrict inside the engine).
	shardFilter func([]int64) bool
}

// prepare compiles the query against a store (schema checks already done by
// the callers). For the plan-aware algorithms (lftj, ms, genericjoin) the
// compiled plan is cached on the store's database — keyed on query shape ×
// algorithm × backend × GAO and invalidated when a relation it reads is
// replaced — so preparing the same shape twice reuses the first compilation.
func prepare(s *Store, q *Query, opts Options) (*Prepared, error) {
	if err := validateShard(opts); err != nil {
		return nil, err
	}
	sc := &core.StatsCollector{}
	engOpts := opts.engineOptions()
	engOpts.Stats = sc
	eng, plan, err := engine.Prepare(engOpts, q, s.db)
	if err != nil {
		return nil, err
	}
	engOpts.Plan = plan
	p := &Prepared{
		s:       s,
		q:       q,
		alg:     string(engOpts.Algorithm),
		engOpts: engOpts,
		eng:     eng,
		plan:    plan,
		sc:      sc,
		agg:     newAggSpec(q),
	}
	if sh := opts.Shard; sh != nil && sh.Kind == ShardHash {
		// The emitted row carries the leading GAO attribute at its q.Vars()
		// position (engines emit full or prefix rows in Vars() order, and a
		// prefix-ordered GAO leads with Vars()[0]).
		col := -1
		for i, v := range q.Vars() {
			if v == plan.GAO[0] {
				col = i
				break
			}
		}
		if col < 0 {
			return nil, fmt.Errorf("repro: shard attribute %q not an output of query %q", plan.GAO[0], q.Name)
		}
		mod, res := sh.Mod, sh.Res
		p.shardFilter = func(t []int64) bool {
			return core.ShardHash(t[col])%mod == res
		}
	}
	return p, nil
}

// validateShard rejects malformed shard specs eagerly, before compilation:
// only the plan-aware trie engines can restrict their execution to one
// partition of the output space.
func validateShard(opts Options) error {
	sh := opts.Shard
	if sh == nil {
		return nil
	}
	alg := opts.Algorithm
	if alg == "" {
		alg = LFTJ
	}
	if alg != LFTJ && alg != MS {
		return fmt.Errorf("repro: sharded execution: %w (%q cannot restrict its output space; use lftj or ms)",
			ErrUnsupportedQuery, alg)
	}
	switch sh.Kind {
	case ShardRange:
		if sh.Lo >= sh.Hi {
			return fmt.Errorf("repro: shard range [%d, %d) is empty", sh.Lo, sh.Hi)
		}
	case ShardHash:
		if sh.Mod < 1 || sh.Res >= sh.Mod {
			return fmt.Errorf("repro: shard residue %d mod %d out of range", sh.Res, sh.Mod)
		}
	default:
		return fmt.Errorf("repro: unknown shard kind %q", sh.Kind)
	}
	return nil
}

// Query returns the compiled query.
func (p *Prepared) Query() *Query { return p.q }

// Algorithm returns the engine the query was compiled for.
func (p *Prepared) Algorithm() string { return p.alg }

// Count executes the compiled plan and returns the number of result tuples.
// For aggregate queries that is the number of groups — one tuple per
// distinct binding of the output variables.
func (p *Prepared) Count(ctx context.Context) (int64, error) {
	return p.runCount(ctx, p.eng)
}

// Enumerate executes the compiled plan, streaming result tuples in output
// order: one value per q.Out() variable, then one per aggregate term (for
// plain queries that is q.Vars() order). emit returns false to stop early.
// The tuple slice is reused between calls — copy it to retain it.
func (p *Prepared) Enumerate(ctx context.Context, emit func([]int64) bool) error {
	return p.runEnumerate(ctx, p.eng, emit)
}

// rawEnumerate runs the engine's emission with the hash-shard filter (if
// any) applied — the stream every aggregation and count consumes.
func (p *Prepared) rawEnumerate(ctx context.Context, eng core.Engine, emit func([]int64) bool) error {
	if p.shardFilter == nil {
		return eng.Enumerate(ctx, p.q, p.s.db, emit)
	}
	return eng.Enumerate(ctx, p.q, p.s.db, func(t []int64) bool {
		if !p.shardFilter(t) {
			return true
		}
		return emit(t)
	})
}

// startEngineSpan opens the engine-stage span for one execution, returning
// a finish callback that attaches the run's core.Stats deltas (seeks,
// probes, memo hits, outputs — the per-atom seek-loop counters the engines
// already batch into the collector) before ending the span. On an untraced
// context both the span and the callback are free.
func (p *Prepared) startEngineSpan(ctx context.Context, stage string) (context.Context, func()) {
	ctx, sp := trace.Start(ctx, stage)
	if sp == nil {
		return ctx, func() {}
	}
	sp.SetStr("algorithm", p.alg)
	before := p.sc.Snapshot()
	return ctx, func() {
		d := p.sc.Snapshot().Sub(before)
		sp.SetInt("outputs", d.Outputs)
		if d.Seeks != 0 {
			sp.SetInt("seeks", d.Seeks)
		}
		if d.Probes != 0 {
			sp.SetInt("probes", d.Probes)
			sp.SetInt("probe_memo_hits", d.ProbeMemoHits)
		}
		if d.ReuseHits != 0 {
			sp.SetInt("reuse_hits", d.ReuseHits)
		}
		sp.End()
	}
}

// runCount executes the count path on an engine (the handle's own, or one
// pinned to a transaction snapshot): aggregate queries count groups, hash
// shards count their filtered emission, everything else uses the engine's
// count mode.
func (p *Prepared) runCount(ctx context.Context, eng core.Engine) (int64, error) {
	ctx, finish := p.startEngineSpan(ctx, "engine.count")
	defer finish()
	if p.agg != nil {
		return p.agg.count(func(emit func([]int64) bool) error {
			return p.rawEnumerate(ctx, eng, emit)
		})
	}
	if p.shardFilter != nil {
		var n int64
		err := p.rawEnumerate(ctx, eng, func([]int64) bool {
			n++
			return true
		})
		return n, err
	}
	return eng.Count(ctx, p.q, p.s.db)
}

// runEnumerate executes the enumeration path on an engine, folding the
// aggregation spec over the (possibly shard-filtered) emission.
func (p *Prepared) runEnumerate(ctx context.Context, eng core.Engine, emit func([]int64) bool) error {
	ctx, finish := p.startEngineSpan(ctx, "engine.enumerate")
	defer finish()
	if p.agg != nil {
		return p.agg.run(func(e func([]int64) bool) error {
			return p.rawEnumerate(ctx, eng, e)
		}, emit)
	}
	return p.rawEnumerate(ctx, eng, emit)
}

// Rows executes the compiled plan as a streaming iterator over result
// tuples, in the same output order as Enumerate. Each yielded slice is a fresh
// copy owned by the consumer. Breaking out of the range stops execution
// early. The sequence ends early if ctx is cancelled or the engine fails
// mid-stream; Rows discards that error, so callers that must distinguish a
// complete stream from a truncated one should use RowsErr (or Enumerate).
// For the compiled engines the only mid-stream failure is cancellation, so
// checking ctx.Err() after the loop suffices there; engines with runtime
// budgets (e.g. the pairwise baselines' MaxRows) can fail for other
// reasons.
func (p *Prepared) Rows(ctx context.Context) iter.Seq[[]int64] {
	return rowsSeq(p.Enumerate, ctx)
}

// RowsErr is Rows with an explicit error: it yields (tuple, nil) for every
// result and, if execution fails mid-stream, a final (nil, err) pair.
func (p *Prepared) RowsErr(ctx context.Context) iter.Seq2[[]int64, error] {
	return rowsErrSeq(p.Enumerate, ctx)
}

// rowsSeq adapts an Enumerate-shaped execution into a streaming iterator
// with owned tuple copies, discarding any mid-stream error (Prepared.Rows
// and Txn.Rows share it).
func rowsSeq(enumerate func(context.Context, func([]int64) bool) error, ctx context.Context) iter.Seq[[]int64] {
	return func(yield func([]int64) bool) {
		_ = enumerate(ctx, func(t []int64) bool {
			return yield(append([]int64(nil), t...))
		})
	}
}

// rowsErrSeq is rowsSeq with the explicit-error protocol: (tuple, nil) per
// result, and a final (nil, err) pair when execution fails before the
// consumer stopped.
func rowsErrSeq(enumerate func(context.Context, func([]int64) bool) error, ctx context.Context) iter.Seq2[[]int64, error] {
	return func(yield func([]int64, error) bool) {
		stopped := false
		err := enumerate(ctx, func(t []int64) bool {
			ok := yield(append([]int64(nil), t...), nil)
			stopped = !ok
			return ok
		})
		if err != nil && !stopped {
			yield(nil, err)
		}
	}
}

// Stats returns a snapshot of the unified execution counters accumulated by
// this handle: the planning block (plan-cache hits/misses, GAO derivations,
// index bindings) moves only at Prepare time; the execution block and the
// engine-specific counters accumulate across every Count/Enumerate/Rows run,
// for every engine.
func (p *Prepared) Stats() ExecStats { return p.sc.Snapshot() }

// AtomPlan describes how one query atom is physically bound in a compiled
// plan.
type AtomPlan struct {
	// Atom is the atom's source form, e.g. "edge(a, b)".
	Atom string
	// Index is the GAO-consistent index serving the atom: the relation with
	// its columns in GAO order.
	Index string
	// Rows is the index's tuple count.
	Rows int
	// InSkeleton reports membership in Minesweeper's §4.9 skeleton (always
	// true for engines without a skeleton notion).
	InSkeleton bool
}

// Explanation describes a compiled query: the fixed attribute order, the
// per-atom physical indexes, and the AGM worst-case output bound the
// worst-case-optimal engines are optimal against.
type Explanation struct {
	// Query is the query's source form.
	Query string
	// Algorithm is the selected engine.
	Algorithm string
	// Planned reports whether the engine executes a pinned compiled plan;
	// engines without a plan representation re-derive state per run.
	Planned bool
	// GAO is the resolved global attribute order (nil when not Planned).
	GAO []string
	// Backend is the index backend every atom is bound under (BackendFlat
	// or BackendCSR; empty when not Planned).
	Backend Backend
	// BetaCyclic reports whether the query needed Minesweeper's skeleton
	// split (and drives the §4.10 parallel-granularity default).
	BetaCyclic bool
	// Atoms describes each atom's physical binding (nil when not Planned).
	Atoms []AtomPlan
	// Output names the result columns when the query projects or
	// aggregates: the head variables followed by the aggregate terms (nil
	// for plain full-binding queries).
	Output []string
	// Bounds renders the constant-predicate seek bounds pushed into the
	// trie cursors, one entry per constrained GAO variable.
	Bounds []string
	// Residuals renders the predicates that could not become seek bounds
	// and are evaluated as filters during enumeration.
	Residuals []string
	// Projection is the number of leading GAO variables emission is
	// restricted to (with early duplicate elimination); 0 when the engine
	// enumerates full bindings.
	Projection int
	// AGMBound is the Atserias–Grohe–Marx worst-case output bound on this
	// graph's relation sizes (0 when the LP is unavailable for the query).
	AGMBound float64
}

// String renders the explanation in a compact plan-tree-like layout.
func (e Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query %s\n", e.Query)
	fmt.Fprintf(&b, "engine %s", e.Algorithm)
	if !e.Planned {
		b.WriteString(" (unplanned: state derived per run)\n")
	} else {
		b.WriteString("\n")
		fmt.Fprintf(&b, "gao %s", strings.Join(e.GAO, " < "))
		if e.BetaCyclic {
			b.WriteString("  [beta-cyclic]")
		}
		b.WriteString("\n")
		if e.Backend != "" {
			fmt.Fprintf(&b, "backend %s\n", e.Backend)
		}
		for _, a := range e.Atoms {
			skel := ""
			if !a.InSkeleton {
				skel = "  [off-skeleton]"
			}
			fmt.Fprintf(&b, "  %-24s -> %s (%d tuples)%s\n", a.Atom, a.Index, a.Rows, skel)
		}
		if len(e.Bounds) > 0 {
			fmt.Fprintf(&b, "pushdown %s\n", strings.Join(e.Bounds, ", "))
		}
		if len(e.Residuals) > 0 {
			fmt.Fprintf(&b, "residual %s\n", strings.Join(e.Residuals, ", "))
		}
		if e.Projection > 0 {
			fmt.Fprintf(&b, "project %s  [early dedup]\n", strings.Join(e.GAO[:e.Projection], ", "))
		}
	}
	if len(e.Output) > 0 {
		fmt.Fprintf(&b, "output %s\n", strings.Join(e.Output, ", "))
	}
	if e.AGMBound > 0 {
		fmt.Fprintf(&b, "agm bound %.4g\n", e.AGMBound)
	}
	return b.String()
}

// Explain describes the compiled plan.
func (p *Prepared) Explain() Explanation {
	e := Explanation{
		Query:     p.q.String(),
		Algorithm: p.alg,
	}
	if sizes, err := relationSizes(p.s.db, p.q); err == nil {
		if res, err := agm.Compute(p.q, sizes); err == nil {
			e.AGMBound = res.Bound()
		}
	}
	plan := p.plan
	if plan == nil {
		return e
	}
	e.Planned = true
	e.GAO = append([]string(nil), plan.GAO...)
	e.Backend = plan.Backend
	e.BetaCyclic = plan.BetaCyclic
	for i, a := range plan.Atoms {
		cols := make([]string, len(a.VarPos))
		for k, pos := range a.VarPos {
			cols[k] = plan.GAO[pos]
		}
		ap := AtomPlan{
			Atom:       p.q.Atoms[i].String(),
			Index:      fmt.Sprintf("%s(%s)", p.q.Atoms[i].Rel, strings.Join(cols, ", ")),
			Rows:       a.Index.Len(),
			InSkeleton: plan.InSkel == nil || plan.InSkel[i],
		}
		e.Atoms = append(e.Atoms, ap)
	}
	if p.q.Extended() {
		e.Output = append([]string(nil), p.q.Out()...)
		for _, ag := range p.q.Aggs {
			e.Output = append(e.Output, ag.String())
		}
	}
	if push := plan.Push; push != nil {
		for d, bd := range push.Bounds {
			if bd.Trivial() {
				continue
			}
			switch {
			case bd.Hi >= relation.PosInf:
				e.Bounds = append(e.Bounds, fmt.Sprintf("%s >= %d", plan.GAO[d], bd.Lo))
			case bd.Lo <= 0:
				e.Bounds = append(e.Bounds, fmt.Sprintf("%s < %d", plan.GAO[d], bd.Hi))
			default:
				e.Bounds = append(e.Bounds, fmt.Sprintf("%s in [%d, %d)", plan.GAO[d], bd.Lo, bd.Hi))
			}
		}
		for _, r := range push.Residuals {
			rhs := fmt.Sprintf("%d", r.RVal)
			if r.RPos >= 0 {
				rhs = plan.GAO[r.RPos]
			}
			e.Residuals = append(e.Residuals, fmt.Sprintf("%s %s %s", plan.GAO[r.LPos], r.Op, rhs))
		}
		e.Projection = push.Prefix
	}
	return e
}

// relationSizes collects each atom's relation cardinality.
func relationSizes(db *core.DB, q *Query) ([]int, error) {
	sizes := make([]int, len(q.Atoms))
	for i, a := range q.Atoms {
		r, err := db.Relation(a.Rel)
		if err != nil {
			return nil, err
		}
		sizes[i] = r.Len()
	}
	return sizes, nil
}
