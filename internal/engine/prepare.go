package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/minesweeper"
	"repro/internal/query"
)

// Prepare compiles q once for the configured engine and returns the engine
// pinned to the compiled plan: validation, GAO resolution, and index binding
// happen here (or are answered from the DB's plan cache) and never again on
// Count/Enumerate. Algorithms without a plan representation (the pairwise
// baselines, Yannakakis, GraphLab, and the hybrid) are validated and
// returned unplanned — plan is nil and each run re-derives whatever internal
// state it needs. Counters for the compilation land on opts.Stats.
//
// The algorithm name is validated eagerly here with a typed error
// (ErrUnknownAlgorithm) — an unknown name never falls through to engine
// selection or index binding.
func Prepare(opts Options, q *query.Query, db *core.DB) (core.Engine, *core.Plan, error) {
	alg, err := ParseAlgorithm(string(opts.Algorithm))
	if err != nil {
		return nil, nil, err
	}
	opts.Algorithm = alg
	if q.Extended() && alg != LFTJ && alg != MS {
		return nil, nil, fmt.Errorf("engine: query %q uses projection, predicates, or aggregates: %w (%q supports plain joins only; use lftj or ms)",
			q.Name, ErrUnsupportedQuery, alg)
	}
	switch opts.Algorithm {
	case LFTJ, MS, GenericJoin:
		plan, err := CompilePlan(opts, q, db)
		if err != nil {
			return nil, nil, err
		}
		opts.Plan = plan
		e, err := New(opts)
		return e, plan, err
	default:
		if err := q.Validate(); err != nil {
			return nil, nil, err
		}
		e, err := New(opts)
		return e, nil, err
	}
}

// ResolveGAO derives the global attribute order Prepare would fix for the
// query under these options, without touching any data: GAO resolution is
// purely structural (query shape plus planner toggles), so a coordinator can
// compute the order a remote host will execute under and partition or merge
// on its leading attribute. It runs CompilePlan's resolution.
func ResolveGAO(opts Options, q *query.Query) ([]string, error) {
	alg, err := ParseAlgorithm(string(opts.Algorithm))
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	userGAO, _ := planKeyParts(alg, opts, q)
	gao, _, _, err := resolvePlan(alg, opts, userGAO, q)
	return gao, err
}

// planKeyParts returns the user-supplied GAO and the planner-toggle variant
// a compilation of q under opts is cached by. Minesweeper takes its own GAO
// override, and a projected or aggregate query is pinned to its own
// variable order, because it must enumerate grouped by the output prefix
// (LFTJ's default GAO is already q.Vars()).
func planKeyParts(alg Algorithm, opts Options, q *query.Query) (userGAO []string, variant string) {
	userGAO = opts.GAO
	if alg != MS {
		return userGAO, ""
	}
	if opts.MS.GAO != nil {
		userGAO = opts.MS.GAO
	}
	if opts.MS.DisableSkeleton {
		variant = "noskel"
	}
	if userGAO == nil && q.PrefixOrdered() {
		userGAO = q.Vars()
	}
	return userGAO, variant
}

// resolvePlan derives the GAO, Minesweeper's skeleton, and the query's
// β-cyclicity from the user-supplied GAO (nil selects the default).
func resolvePlan(alg Algorithm, opts Options, userGAO []string, q *query.Query) (gao []string, inSkel []bool, betaCyclic bool, err error) {
	if alg == MS {
		msOpts := opts.MS
		msOpts.GAO = userGAO
		return minesweeper.ResolvePlan(q, msOpts)
	}
	gao = userGAO
	if gao == nil {
		gao = q.Vars()
	}
	_, acyclic := hypergraph.FindChainGAO(q.Vars(), q.Atoms)
	return gao, nil, !acyclic, nil
}

// CompilePlan resolves the GAO and binds the GAO-consistent indexes for a
// plan-aware algorithm, consulting and populating the DB's plan cache. LFTJ
// and Minesweeper bind CSR trie indexes; generic join binds the sorted rows,
// because its Algorithm 1 narrows explicit row spans. The cache key is the
// query shape × algorithm × user-supplied GAO (plus planner toggles that
// change compilation); entries are dropped when DB.Add replaces a relation
// the plan reads.
func CompilePlan(opts Options, q *query.Query, db *core.DB) (*core.Plan, error) {
	alg := opts.Algorithm
	if alg == "" {
		alg = LFTJ
	}
	userGAO, variant := planKeyParts(alg, opts, q)
	key := core.PlanKey(string(alg), variant, userGAO, q)
	p, version, ok := db.CachedPlan(key)
	if ok {
		opts.Stats.Add(core.Stats{PlanCacheHits: 1})
		return p, nil
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	gao, inSkel, betaCyclic, err := resolvePlan(alg, opts, userGAO, q)
	if err != nil {
		return nil, err
	}
	opts.Stats.Add(core.Stats{GAODerivations: 1})
	plan, err := core.NewPlan(q, db, string(alg), gao, inSkel, betaCyclic, alg == GenericJoin, opts.Stats)
	if err != nil {
		return nil, err
	}
	db.StorePlan(key, plan, version)
	opts.Stats.Add(core.Stats{PlanCacheMisses: 1})
	return plan, nil
}
