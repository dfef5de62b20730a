package repro

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/incremental"
	"repro/internal/minesweeper"
	"repro/internal/query"
	"repro/internal/recursive"
	"repro/internal/relation"
)

// Model names re-exported for graph generation.
const (
	ErdosRenyi     = dataset.ErdosRenyi
	BarabasiAlbert = dataset.BarabasiAlbert
	HolmeKim       = dataset.HolmeKim
)

// Typed failure kinds surfaced by Prepare, ParseQuery, and the one-shot
// helpers; branch with errors.Is.
var (
	// ErrUnknownRelation reports a query atom naming a relation the store's
	// database does not hold.
	ErrUnknownRelation = core.ErrUnknownRelation
	// ErrUnboundVar reports a query variable not covered by the supplied
	// attribute order (or not bound by any atom).
	ErrUnboundVar = core.ErrUnboundVar
	// ErrUnboundHeadVar reports a head variable or aggregated variable of a
	// rule-form query ("q(a, b) :- ...") that no body atom binds.
	ErrUnboundHeadVar = query.ErrUnboundHeadVar
	// ErrUnboundPredVar reports a comparison predicate over a variable no
	// body atom binds.
	ErrUnboundPredVar = query.ErrUnboundPredVar
	// ErrUnsupportedQuery reports an extended query (projection, predicates,
	// or aggregates) prepared for an engine that executes plain natural
	// joins only; use LFTJ or MS.
	ErrUnsupportedQuery = engine.ErrUnsupportedQuery
	// ErrUnknownAlgorithm reports an Options.Algorithm outside the
	// registered set; Prepare validates eagerly, before engine selection.
	ErrUnknownAlgorithm = engine.ErrUnknownAlgorithm
)

// Algorithm names a join engine; the names match the paper's system labels
// (§5.1). The zero value selects LFTJ. Prepare rejects anything outside the
// registered set with ErrUnknownAlgorithm.
type Algorithm = engine.Algorithm

// Registered algorithms.
const (
	LFTJ        = engine.LFTJ
	MS          = engine.MS
	Hybrid      = engine.Hybrid
	PSQL        = engine.PSQL
	MonetDB     = engine.MonetDB
	Yannakakis  = engine.Yannakakis
	GraphLab    = engine.GraphLab
	GenericJoin = engine.GenericJoin
)

// Algorithms lists every registered algorithm.
func Algorithms() []Algorithm { return engine.Algorithms() }

// Query is a graph-pattern join query. Build one with the pattern
// constructors below or parse the paper's Datalog syntax with ParseQuery.
type Query = query.Query

// SyntaxError is the typed parse failure carrying the byte offset into the
// Datalog source and, when known, the enclosing atom's relation name;
// unwrap with errors.As to report positions to users.
type SyntaxError = query.SyntaxError

// Pattern constructors mirroring the paper's §5.1 benchmark queries.
var (
	// Triangles is the 3-clique query (each triangle counted once).
	Triangles = func() *Query { return query.Clique(3) }
	// Cliques returns the k-clique query.
	Cliques = query.Clique
	// Cycles returns the k-cycle query with the a<b<...<z orientation.
	Cycles = query.Cycle
	// Paths returns the k-path query between samples v1 and v2.
	Paths = query.Path
	// Trees returns the {1,2}-tree query.
	Trees = query.Tree
	// Comb returns the 2-comb query.
	Comb = query.Comb
	// Lollipops returns the {2,3}-lollipop query.
	Lollipops = query.Lollipop
)

// ParseQuery parses the Datalog-style syntax of §5.1, e.g.
// "v1(a), v2(d), edge(a, b), edge(b, c), edge(c, d)". Relations available
// on a Graph: "edge" (symmetric), "fwd" (u<v orientation), "v1".."v4"
// (node samples). Rule heads may project and aggregate
// ("deg(a, count(b)) :- edge(a, b)"), atom terms may be integer constants,
// and bodies may carry comparison predicates ("a < b", "x >= 10");
// malformed input fails with a positioned *query.SyntaxError.
func ParseQuery(name, src string) (*Query, error) { return query.Parse(name, src) }

// Graph is a Store holding the paper's §5.1 benchmark schema, derived from
// an undirected graph: the symmetric "edge" relation, the oriented "fwd"
// relation, and the node samples v1..v4. Every Store method is promoted
// (Prepare, Count, Enumerate, AGMBound, ReadTxn, Batch, schema-checked
// ParseQuery); the Graph methods add only what the schema needs beyond a
// store.
//
// Write edges and samples through the Graph methods (ApplyEdges,
// SetSelectivity, SetSamples) or a CountView: a raw Store.Apply on "edge"
// or "fwd" updates only that one relation and silently breaks the schema's
// invariants (edge symmetric, fwd its u<v orientation) that every benchmark
// query assumes, and a raw write on either bypasses the vertex accounting —
// Nodes and the SetSelectivity sampling population would go stale.
//
// A Graph is safe for concurrent use.
type Graph struct {
	*Store

	// mu guards nodes against concurrent ApplyEdges/Nodes/SetSelectivity
	// calls.
	mu sync.Mutex
	// nodes is the vertex count: ids are 0..nodes-1. It only grows — an
	// inserted edge raises it, removing one does not retire its endpoints.
	nodes int
}

// NewGraph builds a graph from an undirected edge list. Vertex ids must be
// non-negative; self-loops are dropped and duplicates merged. Samples
// default to every vertex (selectivity 1).
func NewGraph(edges [][2]int64) *Graph {
	var n int64
	for _, e := range edges {
		if e[0] >= n {
			n = e[0] + 1
		}
		if e[1] >= n {
			n = e[1] + 1
		}
	}
	g := &dataset.Graph{N: int(n)}
	seen := make(map[[2]int64]bool, len(edges))
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		if seen[[2]int64{u, v}] {
			continue
		}
		seen[[2]int64{u, v}] = true
		g.Edges = append(g.Edges, [2]int64{u, v})
	}
	return newGraph(g, 1)
}

// newGraph builds the benchmark schema derived from g, its node samples
// drawn with seed.
func newGraph(g *dataset.Graph, seed int64) *Graph {
	return &Graph{Store: newStoreOver(dataset.DB(g, 1, seed)), nodes: g.N}
}

// GenerateGraph produces a deterministic synthetic graph (see
// internal/dataset for the models). Samples default to selectivity 1.
func GenerateGraph(model dataset.Model, nodes, edges int, seed int64) *Graph {
	return newGraph(dataset.Generate(model, nodes, edges, seed), seed)
}

// Dataset builds one of the paper's 15 benchmark datasets by name (synthetic
// stand-ins for the SNAP graphs; see DESIGN.md §5).
func Dataset(name string) (*Graph, error) {
	spec, err := dataset.Lookup(name)
	if err != nil {
		return nil, err
	}
	return newGraph(spec.Build(), spec.Seed), nil
}

// Nodes returns the vertex count.
func (g *Graph) Nodes() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.nodes
}

// Edges returns the undirected edge count: the size of the oriented "fwd"
// relation, which holds each edge once.
func (g *Graph) Edges() int {
	fwd, err := g.db.Relation(query.Fwd)
	if err != nil {
		return 0
	}
	return fwd.Len()
}

// SetSelectivity redraws all four node samples with the paper's protocol:
// each vertex is selected with probability 1/s. All four relations are
// replaced in one atomic registration, so a concurrent ReadTxn/Batch
// snapshot observes one sample generation, never a mix.
func (g *Graph) SetSelectivity(s int, seed int64) {
	g.mu.Lock()
	population := &dataset.Graph{N: g.nodes}
	g.mu.Unlock()
	dataset.ReplaceNamedSamples(g.db, dataset.DrawSamples(population, s, seed))
}

// SetSamples sets the v1 and v2 samples explicitly (Figures 3–5 use
// absolute sample sizes), replacing both atomically.
func (g *Graph) SetSamples(v1, v2 []int64) {
	dataset.ReplaceNamedSamples(g.db, map[string][]int64{query.Sample1: v1, query.Sample2: v2})
}

// ApplyEdges inserts and removes undirected edges through the incremental
// write path, maintaining the schema invariants: both directions land in
// "edge" and the u<v orientation in "fwd" — applied atomically under one
// database lock, so a concurrent ReadTxn/Batch snapshot can never observe
// one relation updated and not the other — and the vertex count (Nodes, the
// population SetSelectivity samples from) grows to cover the inserted
// edges. Self-loops are dropped; an edge on both sides of one batch
// resolves as delete-after-insert. Like Store.Apply, it keeps lftj and ms
// prepared handles serving current data.
// (CountView.ApplyEdges additionally corrects a maintained count; this is
// the view-less counterpart.)
func (g *Graph) ApplyEdges(insert, remove [][2]int64) error {
	if err := checkEdgeDomain(insert, remove); err != nil {
		return err
	}
	// The database write and the vertex count update form one critical
	// section: a conflicting concurrent batch cannot interleave between
	// them and desync the vertex count from the stored relations.
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.applyDeltas(incremental.EdgeBatches(insert, remove)); err != nil {
		return err
	}
	g.growNodesLocked(insert, remove)
	return nil
}

// growNodesLocked raises the vertex count to cover every inserted edge that
// lands. Both edge write paths (Graph.ApplyEdges and CountView.ApplyEdges)
// follow core.CanonicalDelta semantics — delete-after-insert: an edge on
// both sides of one batch never lands, so it must not grow the count.
// Callers hold g.mu.
func (g *Graph) growNodesLocked(insert, remove [][2]int64) {
	removed := make(map[[2]int64]bool, len(remove))
	for _, e := range remove {
		removed[[2]int64{min(e[0], e[1]), max(e[0], e[1])}] = true
	}
	for _, e := range insert {
		u, v := min(e[0], e[1]), max(e[0], e[1])
		if u != v && !removed[[2]int64{u, v}] && int(v) >= g.nodes {
			g.nodes = int(v) + 1
		}
	}
}

// checkEdgeDomain validates an edge batch's vertex ids against the storage
// domain before any relation is touched, so both edge write paths
// (Graph.ApplyEdges and CountView.ApplyEdges) report typed errors instead
// of tripping the storage layer's panic.
func checkEdgeDomain(insert, remove [][2]int64) error {
	for _, batch := range [2]struct {
		op    string
		edges [][2]int64
	}{{"insert", insert}, {"delete", remove}} {
		for _, e := range batch.edges {
			if e[0] < 0 || e[0] >= relation.PosInf || e[1] < 0 || e[1] >= relation.PosInf {
				return fmt.Errorf("repro: %w: %s of edge %v (vertex ids must be in [0, %d))",
					ErrValueOutOfRange, batch.op, e, relation.PosInf)
			}
		}
	}
	return nil
}

// Options select and configure an engine. Algorithm is typed — use the
// exported constants (LFTJ, MS, ...); string literals still assign for
// convenience, and Prepare rejects unknown names eagerly with
// ErrUnknownAlgorithm.
type Options struct {
	// Algorithm selects the engine: LFTJ, MS, Hybrid, PSQL, MonetDB,
	// Yannakakis, GraphLab, or GenericJoin. Empty defaults to LFTJ.
	Algorithm Algorithm
	// Workers bounds parallelism (0 = all cores, 1 = sequential).
	Workers int
	// Granularity is the §4.10 partitioning factor f (0 = paper defaults).
	Granularity int
	// GAO overrides the global attribute order (Table 4 experiments).
	GAO []string
	// Idea toggles for the ablation experiments (all ideas default on).
	DisableProbeMemo  bool // Idea 4
	DisableComplete   bool // Idea 6
	DisableSkeleton   bool // Idea 7
	DisableCountReuse bool // Idea 8 (#Minesweeper-style count-mode reuse)
	// MaxRows caps pairwise-engine intermediates (0 = default budget).
	MaxRows int
	// Shard, when set, restricts execution to one partition of the query's
	// output space, keyed on the leading GAO attribute — the per-host half
	// of a distributed fan-out (see the router package, which sets it when
	// preparing a query on each cluster host). Supported by the plan-aware
	// trie engines (lftj, ms) only; Prepare rejects it elsewhere with
	// ErrUnsupportedQuery.
	Shard *Shard
}

// Shard kinds; see Shard.
const (
	// ShardRange keeps leading-attribute values in [Lo, Hi) — the same
	// restriction the §4.10 parallel jobs use, pushed into the trie cursors.
	ShardRange = "range"
	// ShardHash keeps rows whose leading attribute hashes into this host's
	// residue class (core.ShardHash(v) mod Mod == Res), applied as an
	// emission filter.
	ShardHash = "hash"
)

// Shard is one partition of a query's output space, keyed on the value of
// the leading GAO attribute. Partitions of either kind are disjoint and
// cover the domain, so per-shard counts sum to the unsharded count and
// per-shard streams merge (ordered on the leading attribute) into the
// unsharded stream. Aggregate queries group on a prefix led by the same
// attribute, so every group lands wholly inside one shard — except the
// global aggregates of an empty group-by head, which each shard reports as
// a partial for the coordinator to fold.
type Shard struct {
	// Kind selects the partitioning strategy: ShardRange or ShardHash.
	Kind string
	// Lo and Hi bound a ShardRange partition: values in [Lo, Hi).
	Lo, Hi int64
	// Mod and Res select a ShardHash residue class: 0 <= Res < Mod.
	Mod, Res uint64
}

func (o Options) engineOptions() engine.Options {
	alg := o.Algorithm
	if alg == "" {
		alg = engine.LFTJ
	}
	eo := engine.Options{
		Algorithm:   alg,
		Workers:     o.Workers,
		Granularity: o.Granularity,
		GAO:         o.GAO,
		MaxRows:     o.MaxRows,
		MS: minesweeper.Options{
			DisableMemo:      o.DisableProbeMemo,
			DisableComplete:  o.DisableComplete,
			DisableSkeleton:  o.DisableSkeleton,
			DisableCountMemo: o.DisableCountReuse,
		},
	}
	if o.Shard != nil && o.Shard.Kind == ShardRange {
		eo.FirstVarRange = &engine.Range{Lo: o.Shard.Lo, Hi: o.Shard.Hi}
	}
	return eo
}

// ResolveGAO derives the global attribute order Prepare would fix for the
// query under these options — purely structural, touching no data, so a
// coordinator can compute the order remote hosts will execute under and
// partition or merge on its leading attribute.
func ResolveGAO(q *Query, opts Options) ([]string, error) {
	return engine.ResolveGAO(opts.engineOptions(), q)
}

// ExecStats is the unified execution-counter surface every engine reports
// on: planning counters (plan-cache hits, GAO derivations, index bindings),
// per-run execution counters, and the engine-specific counters the paper's
// ablation analyses read (probes, memo hits, constraint inserts, subtree
// reuses for Minesweeper; leapfrog seeks for LFTJ).
type ExecStats = core.Stats

// CountView is a materialized pattern count maintained incrementally under
// edge updates (the paper's §3 motivation: LogicBlox's incrementally
// maintained materialized views).
type CountView struct {
	inner *incremental.View
	g     *Graph
}

// MaintainCount materializes Count(q) over the graph and keeps it current.
// On a durable store the view's maintenance batches route through the
// store's write-ahead log: each ApplyEdges is one logged record, fsynced
// like any other write.
func MaintainCount(ctx context.Context, g *Graph, q *Query) (*CountView, error) {
	v, err := incremental.NewView(ctx, q, g.db)
	if err != nil {
		return nil, err
	}
	v.SetApply(g.applyDeltas)
	return &CountView{inner: v, g: g}, nil
}

// Count returns the maintained count.
func (v *CountView) Count() int64 { return v.inner.Count() }

// Stats returns the view's accumulated planning and execution counters. The
// view compiles its delta queries once: GAODerivations stays at 1 across
// arbitrarily many ApplyEdges batches.
func (v *CountView) Stats() ExecStats { return v.inner.Stats() }

// ApplyEdges inserts and removes undirected edges, updating the graph's
// relations and the maintained count with delta queries. The correction is
// computed entirely against the pre-update state, then "edge" and "fwd"
// land together through one atomic apply — exactly like Graph.ApplyEdges, a
// concurrent ReadTxn/Batch snapshot observes either the whole batch or none
// of it, an error during correction leaves the store untouched, and on a
// durable store the maintenance batch is one write-ahead log record. The
// update semantics match every other write path: an edge on both sides of
// one batch resolves as delete-after-insert.
func (v *CountView) ApplyEdges(ctx context.Context, insert, remove [][2]int64) error {
	if err := checkEdgeDomain(insert, remove); err != nil {
		return err
	}
	v.g.mu.Lock()
	defer v.g.mu.Unlock()
	if err := v.inner.Update(ctx, incremental.EdgeBatches(insert, remove)); err != nil {
		return err
	}
	v.g.growNodesLocked(insert, remove)
	return nil
}

// MaterializeTransitiveClosure computes tc(edge) with semi-naive recursion
// (the paper's §6 future work) and registers it as relation "tc", queryable
// from any engine, e.g. ParseQuery("reach", "v1(a), tc(a, b), v2(b)").
func MaterializeTransitiveClosure(ctx context.Context, g *Graph) error {
	return recursive.RegisterTC(ctx, g.db)
}
