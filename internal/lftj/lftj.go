// Package lftj implements Leapfrog Triejoin (paper §2.2, [15]), the
// worst-case-optimal multiway join that LogicBlox ships: variables are bound
// one at a time in a global attribute order, and at each variable the
// participating atoms' trie iterators "leapfrog" over each other in a
// multiway sorted intersection. Runtime is Õ(N + AGM(Q)).
package lftj

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
)

// Range restricts the first GAO variable to [Lo, Hi); the parallel executor
// (§4.10) partitions the output space with it.
type Range struct {
	Lo, Hi int64
}

// Options configure the engine.
type Options struct {
	// GAO overrides the variable order; empty means the query's
	// first-appearance order.
	GAO []string
	// Backend selects the index backend for the unplanned path (empty means
	// core.DefaultBackend); a compiled Plan carries its own backend.
	Backend core.Backend
	// FirstVarRange restricts the first GAO variable for parallel jobs.
	FirstVarRange *Range
	// Plan, when set, is a compiled plan for the query: validation, GAO
	// resolution, and index binding are skipped and the plan's bound
	// indexes are executed directly.
	Plan *core.Plan
	// Stats, when non-nil, receives this run's execution counters.
	Stats *core.StatsCollector
}

// Engine is the Leapfrog Triejoin engine.
type Engine struct {
	Opts Options
}

// Name implements core.Engine.
func (Engine) Name() string { return "lftj" }

// Count implements core.Engine.
func (e Engine) Count(ctx context.Context, q *query.Query, db *core.DB) (int64, error) {
	var n int64
	err := e.Enumerate(ctx, q, db, func([]int64) bool {
		n++
		return true
	})
	return n, err
}

// Enumerate implements core.Engine.
func (e Engine) Enumerate(ctx context.Context, q *query.Query, db *core.DB, emit func([]int64) bool) error {
	var gao []string
	var atoms []core.AtomIndex
	var push *core.Pushdown
	if p := e.Opts.Plan; p != nil {
		gao, atoms, push = p.GAO, p.Atoms, p.Push
	} else {
		if err := q.Validate(); err != nil {
			return err
		}
		gao = e.Opts.GAO
		if gao == nil {
			gao = q.Vars()
		}
		if len(gao) != q.NumVars() {
			return fmt.Errorf("lftj: GAO %v does not cover the %d query variables: %w", gao, q.NumVars(), core.ErrUnboundVar)
		}
		var err error
		atoms, err = core.BindAtoms(q, db, gao, e.Opts.Backend)
		if err != nil {
			return err
		}
		for i, a := range atoms {
			if a.Index.Arity() != len(q.Atoms[i].Vars) {
				return fmt.Errorf("lftj: atom %s arity mismatch with its %d-ary index", q.Atoms[i], a.Index.Arity())
			}
		}
		push, err = core.CompilePushdown(q, gao)
		if err != nil {
			return err
		}
	}
	// Pin overlay-backed indexes to one snapshot for this whole run, so a
	// concurrent DB.ApplyDelta can never mix two index states mid-join.
	atoms = core.SnapshotAtoms(atoms)
	ex := &exec{
		n:       len(gao),
		binding: make([]int64, len(gao)),
		emit:    emit,
		tick:    core.NewTicker(ctx),
	}
	// Fold the compiled seek bounds and the parallel job's first-variable
	// range into one per-depth [lo, hi) table; residual predicates are
	// bucketed by the depth that decides them.
	if push != nil {
		ex.prefix = push.Prefix
		if push.Bounds != nil {
			ex.lo = make([]int64, len(gao))
			ex.hi = make([]int64, len(gao))
			for d, b := range push.Bounds {
				ex.lo[d], ex.hi[d] = b.Lo, b.Hi
			}
		}
		if len(push.Residuals) > 0 {
			ex.resAt = make([][]core.ResidualPred, len(gao))
			for d := range ex.resAt {
				ex.resAt[d] = push.ResidualsAt(d)
			}
		}
	}
	if rng := e.Opts.FirstVarRange; rng != nil {
		if ex.lo == nil {
			ex.lo = make([]int64, len(gao))
			ex.hi = make([]int64, len(gao))
			for d := range ex.hi {
				ex.hi[d] = relation.PosInf
			}
		}
		ex.lo[0] = max(ex.lo[0], rng.Lo)
		ex.hi[0] = min(ex.hi[0], rng.Hi)
	}
	// outPerm maps GAO position to q.Vars() position for emitted tuples.
	idx := q.VarIndex()
	ex.outPerm = make([]int, len(gao))
	for g, v := range gao {
		ex.outPerm[g] = idx[v]
	}
	// For each GAO depth, the cursors of participating atoms.
	ex.byVar = make([][]core.TrieCursor, len(gao))
	iters := make([]core.TrieCursor, len(atoms))
	for i, a := range atoms {
		iters[i] = a.Index.NewCursor()
		for _, p := range a.VarPos {
			ex.byVar[p] = append(ex.byVar[p], iters[i])
		}
	}
	for d, its := range ex.byVar {
		if len(its) == 0 {
			return fmt.Errorf("lftj: variable %s (depth %d) not bound by any atom: %w", gao[d], d, core.ErrUnboundVar)
		}
	}
	_, err := ex.run(0)
	if sc := e.Opts.Stats; sc != nil {
		sc.Add(core.Stats{Outputs: ex.outputs, Seeks: ex.seeks})
	}
	return err
}

type exec struct {
	n       int
	byVar   [][]core.TrieCursor
	binding []int64
	outPerm []int
	emit    func([]int64) bool
	tick    *core.Ticker
	lo, hi  []int64               // per-depth seek bounds [lo, hi); nil when unbounded
	resAt   [][]core.ResidualPred // residual predicates decided at each depth
	prefix  int                   // >0: emit only the leading prefix depths, deduped
	out     []int64
	outputs int64
	seeks   int64
}

// residualsOK evaluates the residual predicates decided at depth d against
// the binding prefix built so far.
func (ex *exec) residualsOK(d int) bool {
	if ex.resAt == nil {
		return true
	}
	for _, r := range ex.resAt[d] {
		if !r.Eval(ex.binding) {
			return false
		}
	}
	return true
}

// run executes the triejoin at GAO depth d; it returns false when
// enumeration should stop (emit returned false).
func (ex *exec) run(d int) (bool, error) {
	its := ex.byVar[d]
	for _, it := range its {
		it.Open()
	}
	defer func() {
		for _, it := range its {
			it.Up()
		}
	}()
	lf := leapfrog{its: its, seeks: &ex.seeks}
	if !lf.init() {
		return true, nil
	}
	if ex.lo != nil && ex.lo[d] > 0 {
		if !lf.seek(ex.lo[d]) {
			return true, nil
		}
	}
	for {
		if err := ex.tick.Tick(); err != nil {
			return false, err
		}
		key := lf.key
		if ex.hi != nil && key >= ex.hi[d] {
			return true, nil
		}
		ex.binding[d] = key
		if !ex.residualsOK(d) {
			if !lf.next() {
				return true, nil
			}
			continue
		}
		if d == ex.n-1 {
			if !ex.emitTuple() {
				return false, nil
			}
		} else if ex.prefix > 0 && d == ex.prefix-1 {
			// Deepest projected level: one existence probe below the prefix
			// replaces the full sub-enumeration — this is the early duplicate
			// elimination, and it emits each prefix exactly once.
			found, err := ex.exists(d + 1)
			if err != nil {
				return false, err
			}
			if found && !ex.emitPrefix() {
				return false, nil
			}
		} else {
			cont, err := ex.run(d + 1)
			if err != nil || !cont {
				return cont, err
			}
		}
		if !lf.next() {
			return true, nil
		}
	}
}

// exists reports whether any full binding extends the current prefix through
// depths d..n-1, respecting bounds and residual predicates; it stops at the
// first witness.
func (ex *exec) exists(d int) (bool, error) {
	its := ex.byVar[d]
	for _, it := range its {
		it.Open()
	}
	defer func() {
		for _, it := range its {
			it.Up()
		}
	}()
	lf := leapfrog{its: its, seeks: &ex.seeks}
	if !lf.init() {
		return false, nil
	}
	if ex.lo != nil && ex.lo[d] > 0 {
		if !lf.seek(ex.lo[d]) {
			return false, nil
		}
	}
	for {
		if err := ex.tick.Tick(); err != nil {
			return false, err
		}
		key := lf.key
		if ex.hi != nil && key >= ex.hi[d] {
			return false, nil
		}
		ex.binding[d] = key
		if ex.residualsOK(d) {
			if d == ex.n-1 {
				return true, nil
			}
			found, err := ex.exists(d + 1)
			if err != nil || found {
				return found, err
			}
		}
		if !lf.next() {
			return false, nil
		}
	}
}

func (ex *exec) emitTuple() bool {
	ex.outputs++
	if ex.out == nil {
		ex.out = make([]int64, ex.n)
	}
	for g, v := range ex.outPerm {
		ex.out[v] = ex.binding[g]
	}
	return ex.emit(ex.out)
}

// emitPrefix emits the projected prefix. The planner guarantees the leading
// GAO positions are the query's output prefix in execution order, so no
// permutation is needed.
func (ex *exec) emitPrefix() bool {
	ex.outputs++
	if ex.out == nil {
		ex.out = make([]int64, ex.prefix)
	}
	copy(ex.out, ex.binding[:ex.prefix])
	return ex.emit(ex.out)
}

// leapfrog is the multiway sorted intersection of one trie level across the
// participating atoms (Veldhuizen's leapfrog-init/search/next).
type leapfrog struct {
	its   []core.TrieCursor
	p     int
	key   int64
	seeks *int64
}

// init sorts the iterators by key and finds the first match. It returns
// false if the intersection is empty.
func (lf *leapfrog) init() bool {
	for _, it := range lf.its {
		if it.AtEnd() {
			return false
		}
	}
	// Insertion sort by current key; the lists are tiny.
	for i := 1; i < len(lf.its); i++ {
		for j := i; j > 0 && lf.its[j].Key() < lf.its[j-1].Key(); j-- {
			lf.its[j], lf.its[j-1] = lf.its[j-1], lf.its[j]
		}
	}
	lf.p = 0
	return lf.search()
}

// search advances iterators until all agree on a key.
func (lf *leapfrog) search() bool {
	k := len(lf.its)
	max := lf.its[(lf.p+k-1)%k].Key()
	for {
		it := lf.its[lf.p]
		x := it.Key()
		if x == max {
			lf.key = x
			return true
		}
		it.SeekGE(max)
		*lf.seeks++
		if it.AtEnd() {
			return false
		}
		max = it.Key()
		lf.p = (lf.p + 1) % k
	}
}

// next moves past the current match.
func (lf *leapfrog) next() bool {
	it := lf.its[lf.p]
	it.Next()
	if it.AtEnd() {
		return false
	}
	lf.p = (lf.p + 1) % len(lf.its)
	return lf.search()
}

// seek positions the intersection at the least match >= v.
func (lf *leapfrog) seek(v int64) bool {
	if lf.key >= v {
		return true
	}
	it := lf.its[lf.p]
	it.SeekGE(v)
	*lf.seeks++
	if it.AtEnd() {
		return false
	}
	lf.p = (lf.p + 1) % len(lf.its)
	return lf.search()
}
