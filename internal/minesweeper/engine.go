package minesweeper

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/query"
	"repro/internal/relation"
)

// Range restricts the first GAO variable to [Lo, Hi) for the §4.10 parallel
// partitioning.
type Range struct {
	Lo, Hi int64
}

// Options toggle the paper's implementation ideas; every idea defaults to
// enabled so the ablation benchmarks (Tables 1–3) switch them off.
type Options struct {
	// GAO overrides the automatically selected global attribute order
	// (Table 4 runs Minesweeper under explicit orders).
	GAO []string
	// Backend selects the index backend for the unplanned path (empty means
	// core.DefaultBackend); a compiled Plan carries its own backend.
	Backend core.Backend
	// DisableMemo turns off Idea 4 (avoid repeated seekGap calls).
	DisableMemo bool
	// DisableComplete turns off Idea 6 (complete nodes).
	DisableComplete bool
	// DisableSkeleton turns off Idea 7; β-cyclic queries then insert gap
	// constraints from every atom and the CDS falls back to cache-free
	// fixpoint iteration wherever chains break.
	DisableSkeleton bool
	// DisableCountMemo turns off the #Minesweeper-style count-mode subtree
	// reuse (Idea 8; see DESIGN.md §4).
	DisableCountMemo bool
	// FirstVarRange restricts the first GAO variable for parallel jobs.
	FirstVarRange *Range
	// Plan, when set, is a compiled plan for the query: validation, GAO and
	// skeleton resolution, and index binding are skipped and the plan's
	// bound indexes are executed directly.
	Plan *core.Plan
	// Collector, when non-nil, receives this run's counters on the unified
	// core stats surface. Safe for concurrent executions.
	Collector *core.StatsCollector
}

// Engine is the Minesweeper engine.
type Engine struct {
	Opts Options
}

// Name implements core.Engine.
func (Engine) Name() string { return "ms" }

// Count implements core.Engine. Count mode uses #Minesweeper-style subtree
// reuse unless disabled.
func (e Engine) Count(ctx context.Context, q *query.Query, db *core.DB) (int64, error) {
	return e.run(ctx, q, db, nil)
}

// Enumerate implements core.Engine.
func (e Engine) Enumerate(ctx context.Context, q *query.Query, db *core.DB, emit func([]int64) bool) error {
	if emit == nil {
		return fmt.Errorf("minesweeper: nil emit")
	}
	_, err := e.run(ctx, q, db, emit)
	return err
}

type exec struct {
	n       int
	atoms   []core.AtomIndex
	inSkel  []bool
	cds     *CDS
	probes  []probeMemo
	scratch []int64
	tick    *core.Ticker
	emit    func([]int64) bool
	outPerm []int
	out     []int64
	counter *counter
	opts    Options
	push    *core.Pushdown
	prefix  int // >0: emit only the leading prefix columns, deduped
	total   int64
	stats   Stats
}

func (e Engine) run(ctx context.Context, q *query.Query, db *core.DB, emit func([]int64) bool) (int64, error) {
	var gao []string
	var inSkel []bool
	var atoms []core.AtomIndex
	var push *core.Pushdown
	if p := e.Opts.Plan; p != nil {
		gao, atoms, push = p.GAO, p.Atoms, p.Push
		inSkel = p.InSkel
		if inSkel == nil {
			inSkel = make([]bool, len(q.Atoms))
			for i := range inSkel {
				inSkel[i] = true
			}
		}
	} else {
		if err := q.Validate(); err != nil {
			return 0, err
		}
		opts := e.Opts
		if q.PrefixOrdered() && opts.GAO == nil {
			// Projected/aggregate queries must enumerate grouped by the
			// output prefix: pin the GAO to the query's own variable order
			// instead of the hypergraph-chosen one.
			opts.GAO = q.Vars()
		}
		var err error
		gao, inSkel, _, err = resolvePlan(q, opts)
		if err != nil {
			return 0, err
		}
		atoms, err = core.BindAtoms(q, db, gao, e.Opts.Backend)
		if err != nil {
			return 0, err
		}
		push, err = core.CompilePushdown(q, gao)
		if err != nil {
			return 0, err
		}
	}
	maxArity := 0
	for i, a := range atoms {
		if a.Index.Arity() != len(q.Atoms[i].Vars) {
			return 0, fmt.Errorf("minesweeper: atom %s arity mismatch with its %d-ary index", q.Atoms[i], a.Index.Arity())
		}
		if a.Index.Arity() > maxArity {
			maxArity = a.Index.Arity()
		}
	}
	// Pin overlay-backed indexes to one snapshot for this whole run, so a
	// concurrent DB.ApplyDelta can never mix two index states between
	// probes (the CDS would otherwise accumulate gaps from different
	// database states).
	atoms = core.SnapshotAtoms(atoms)
	ex := &exec{
		n:       len(gao),
		atoms:   atoms,
		inSkel:  inSkel,
		cds:     NewCDS(len(gao), e.Opts.DisableComplete),
		probes:  make([]probeMemo, len(atoms)),
		scratch: make([]int64, maxArity),
		tick:    core.NewTicker(ctx),
		emit:    emit,
		opts:    e.Opts,
		push:    push,
	}
	if push != nil {
		ex.prefix = push.Prefix
	}
	idx := q.VarIndex()
	ex.outPerm = make([]int, len(gao))
	for g, v := range gao {
		ex.outPerm[g] = idx[v]
	}
	if r := e.Opts.FirstVarRange; r != nil {
		if r.Lo > -1 {
			ex.cds.t[0] = r.Lo
		}
		if r.Hi < posInf {
			ex.cds.InsConstraint(Constraint{Col: 0, Lo: r.Hi - 1, Hi: posInf})
		}
	}
	if push != nil {
		// Seed the CDS with the compiled seek bounds: a lower bound lo at
		// column c covers [-1, lo-1], an upper bound hi covers [hi, +inf).
		// ComputeFreeTuple then never proposes a value outside [lo, hi), so
		// the gap probes start inside the admissible band — the Minesweeper
		// form of cursor pushdown.
		for c, b := range push.Bounds {
			if b.Lo > 0 {
				ex.cds.InsConstraint(Constraint{Col: c, Lo: -2, Hi: b.Lo})
			}
			if b.Hi < posInf {
				ex.cds.InsConstraint(Constraint{Col: c, Lo: b.Hi - 1, Hi: posInf})
			}
		}
	}
	ex.cds.Tick = ex.tick.Tick
	// The count-mode subtree reuse assumes plain full-binding semantics;
	// residual predicates and projection dedup both break its memo, so
	// extended queries always take the exact path.
	if emit == nil && !e.Opts.DisableCountMemo && push == nil {
		ex.counter = newCounter(ex, q, gao)
	}
	err := ex.loop()
	ex.stats.FreeTupleSteps = int64(ex.cds.Steps())
	ex.stats.Outputs = ex.total
	if sc := e.Opts.Collector; sc != nil {
		sc.Add(core.Stats{
			Outputs:        ex.stats.Outputs,
			Probes:         ex.stats.Probes,
			ProbeMemoHits:  ex.stats.ProbeMemoHits,
			Constraints:    ex.stats.Constraints,
			FreeTupleSteps: ex.stats.FreeTupleSteps,
			ReuseHits:      ex.stats.ReuseHits,
			MemoStores:     ex.stats.MemoStores,
		})
	}
	if err != nil {
		return 0, err
	}
	return ex.total, nil
}

// ResolvePlan picks the GAO and skeleton (§4.8, §4.9) without executing:
// the compilation half of the engine, exposed so prepared-query compilation
// can run it exactly once and pin the result. betaCyclic reports whether the
// query needed a proper skeleton split.
func ResolvePlan(q *query.Query, opts Options) (gao []string, inSkel []bool, betaCyclic bool, err error) {
	return resolvePlan(q, opts)
}

// resolvePlan picks the GAO and skeleton (§4.8, §4.9). A user-provided GAO
// keeps all atoms in the skeleton when it satisfies the chain condition or
// when the query is β-acyclic anyway (Table 4 runs non-NEO orders through
// the cache-free fallback); for β-cyclic queries a greedy chain-valid subset
// is used unless Idea 7 is disabled.
func resolvePlan(q *query.Query, opts Options) (gao []string, inSkel []bool, betaCyclic bool, err error) {
	all := func() []bool {
		s := make([]bool, len(q.Atoms))
		for i := range s {
			s[i] = true
		}
		return s
	}
	if opts.GAO == nil {
		plan, err := hypergraph.PlanQuery(q)
		if err != nil {
			return nil, nil, false, err
		}
		if opts.DisableSkeleton || !plan.BetaCyclic {
			return plan.GAO, all(), plan.BetaCyclic, nil
		}
		inSkel = make([]bool, len(q.Atoms))
		for _, i := range plan.Skeleton {
			inSkel[i] = true
		}
		return plan.GAO, inSkel, true, nil
	}
	gao = opts.GAO
	if len(gao) != q.NumVars() {
		return nil, nil, false, fmt.Errorf("minesweeper: GAO %v does not cover the %d query variables: %w", gao, q.NumVars(), core.ErrUnboundVar)
	}
	seen := make(map[string]bool, len(gao))
	for _, v := range gao {
		seen[v] = true
	}
	for _, v := range q.Vars() {
		if !seen[v] {
			return nil, nil, false, fmt.Errorf("minesweeper: GAO %v misses variable %q: %w", gao, v, core.ErrUnboundVar)
		}
	}
	_, betaAcyclic := hypergraph.FindChainGAO(q.Vars(), q.Atoms)
	if opts.DisableSkeleton || hypergraph.IsChainGAO(gao, q.Atoms) {
		return gao, all(), !betaAcyclic, nil
	}
	if betaAcyclic {
		// β-acyclic query under a non-NEO order: constraints from every atom,
		// with cache-free fixpoints where chains break.
		return gao, all(), false, nil
	}
	inSkel = make([]bool, len(q.Atoms))
	var kept []query.Atom
	for i, a := range q.Atoms {
		trial := append(append([]query.Atom(nil), kept...), a)
		if hypergraph.IsChainGAO(gao, trial) {
			kept = trial
			inSkel[i] = true
		}
	}
	return gao, inSkel, true, nil
}

// loop is Minesweeper's outer algorithm (Algorithm 3) with Ideas 2, 4, 7 and
// the count-mode reuse wired in.
func (ex *exec) loop() error {
	for ex.cds.ComputeFreeTuple() {
		if err := ex.tick.Tick(); err != nil {
			return err
		}
		t := ex.cds.Frontier()
		if ex.counter != nil {
			reused, err := ex.counter.visit(t)
			if err != nil {
				return err
			}
			if reused {
				continue
			}
		}
		gapFound := false
		var adv []int64
		done := false
		for i := range ex.atoms {
			gap, found := ex.probeAtom(i, t)
			if found {
				continue
			}
			gapFound = true
			if ex.inSkel[i] {
				pm := &ex.probes[i]
				if !pm.insertedCur {
					ex.cds.InsConstraint(ex.constraintFor(i, gap))
					ex.stats.Constraints++
					pm.insertedCur = true
				}
			} else {
				cand, exhausted := ex.advanceFrom(t, ex.atoms[i].VarPos[gap.Col], gap.Hi)
				if exhausted {
					done = true
					break
				}
				if adv == nil || relation.CompareTuples(cand, adv) > 0 {
					adv = cand
				}
			}
		}
		if done {
			break
		}
		if !gapFound {
			if !ex.residualsOK(t) {
				// Verified present in every atom but rejected by a residual
				// predicate: step past it without reporting.
				ex.cds.AdvanceOutput()
				continue
			}
			if !ex.output(t) {
				break
			}
			if ex.prefix > 0 {
				// Early duplicate elimination: every deeper tuple shares the
				// just-emitted output prefix, so skip the whole prefix
				// subtree instead of enumerating (and deduplicating) it.
				adv := append([]int64(nil), t...)
				adv[ex.prefix-1]++
				for i := ex.prefix; i < ex.n; i++ {
					adv[i] = -1
				}
				ex.cds.SetFrontier(adv)
				continue
			}
			ex.cds.AdvanceOutput()
			continue
		}
		if adv != nil && relation.CompareTuples(adv, t) > 0 {
			ex.cds.SetFrontier(adv)
		}
	}
	if ex.cds.Err != nil {
		return ex.cds.Err
	}
	if ex.counter != nil {
		ex.counter.finish()
	}
	return nil
}

// residualsOK evaluates the residual predicates against a full free tuple in
// GAO order.
func (ex *exec) residualsOK(t []int64) bool {
	if ex.push == nil {
		return true
	}
	for _, r := range ex.push.Residuals {
		if !r.Eval(t) {
			return false
		}
	}
	return true
}

// output reports the free tuple (verified to be in every atom). It returns
// false to stop enumeration.
func (ex *exec) output(t []int64) bool {
	ex.total++
	if ex.counter != nil {
		ex.counter.onOutput()
		return true
	}
	if ex.emit == nil {
		return true
	}
	if ex.prefix > 0 {
		// The planner guarantees the leading GAO columns are the query's
		// output prefix in execution order; emit them directly.
		if ex.out == nil {
			ex.out = make([]int64, ex.prefix)
		}
		copy(ex.out, t[:ex.prefix])
		return ex.emit(ex.out)
	}
	if ex.out == nil {
		ex.out = make([]int64, ex.n)
	}
	for g, v := range ex.outPerm {
		ex.out[v] = t[g]
	}
	return ex.emit(ex.out)
}

// advanceFrom computes the Idea 7 frontier advance for a gap on global
// position pos with least present upper value hi: skip to (t[..pos-1], hi)
// or, when the atom has nothing above, past the enclosing prefix.
// exhausted == true means the whole remaining space is dead.
func (ex *exec) advanceFrom(t []int64, pos int, hi int64) (cand []int64, exhausted bool) {
	cand = append([]int64(nil), t...)
	if hi < posInf {
		cand[pos] = hi
		for i := pos + 1; i < ex.n; i++ {
			cand[i] = -1
		}
		return cand, false
	}
	if pos == 0 {
		return nil, true
	}
	cand[pos-1]++
	for i := pos; i < ex.n; i++ {
		cand[i] = -1
	}
	return cand, false
}

// constraintFor builds the CDS constraint for atom i's current gap, using
// the probe memo's stored projection (paper §4.5).
func (ex *exec) constraintFor(i int, gap relation.Gap) Constraint {
	vp := ex.atoms[i].VarPos
	pm := &ex.probes[i]
	return Constraint{
		EqPos: append([]int(nil), vp[:gap.Col]...),
		EqVal: append([]int64(nil), pm.point[:gap.Col]...),
		Col:   vp[gap.Col],
		Lo:    gap.Lo,
		Hi:    gap.Hi,
	}
}

// probeMemo caches the last probe per atom (Idea 4): while the free tuple's
// projection stays inside the last gap band — or hits the band's upper
// endpoint on the last column, proving membership — no index seek is needed.
type probeMemo struct {
	valid       bool
	found       bool
	gap         relation.Gap
	point       []int64
	insertedCur bool
}

// probeAtom returns atom i's gap (or found == true) for free tuple t.
func (ex *exec) probeAtom(i int, t []int64) (relation.Gap, bool) {
	vp := ex.atoms[i].VarPos
	pm := &ex.probes[i]
	proj := ex.scratch[:len(vp)]
	same := pm.valid
	for k, p := range vp {
		proj[k] = t[p]
		if pm.point == nil || proj[k] != pm.point[k] {
			same = false
		}
	}
	if pm.point == nil {
		pm.point = make([]int64, len(vp))
	}
	if !ex.opts.DisableMemo && pm.valid {
		if same {
			ex.stats.ProbeMemoHits++
			return pm.gap, pm.found
		}
		if !pm.found {
			j := pm.gap.Col
			prefixSame := true
			for k := 0; k < j; k++ {
				if proj[k] != pm.point[k] {
					prefixSame = false
					break
				}
			}
			if prefixSame {
				v := proj[j]
				if v > pm.gap.Lo && v < pm.gap.Hi {
					// Still inside the remembered gap: reuse it. The CDS
					// constraint for this pattern is unchanged.
					copy(pm.point, proj)
					ex.stats.ProbeMemoHits++
					return pm.gap, false
				}
				if v == pm.gap.Hi && j == len(vp)-1 && pm.gap.Hi < posInf {
					// The projection hits the gap's least upper bound on the
					// last column: it is a present tuple (the paper's §4.5
					// example — no seek needed).
					copy(pm.point, proj)
					pm.found = true
					ex.stats.ProbeMemoHits++
					return relation.Gap{}, true
				}
			}
		}
	}
	gap, found := ex.atoms[i].Index.ProbeGap(proj)
	ex.stats.Probes++
	pm.valid = true
	pm.found = found
	pm.gap = gap
	pm.insertedCur = false
	copy(pm.point, proj)
	return gap, found
}
