// Package core holds the pieces shared by every join engine in the
// reproduction: the database (a named collection of relations with a cache
// of GAO-consistent secondary indexes, §4.1) and the Engine interface the
// benchmark harness drives.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/query"
	"repro/internal/relation"
)

// Typed failure kinds, so API callers can branch on errors.Is instead of
// matching message text.
var (
	// ErrUnknownRelation reports a query atom naming a relation the
	// database does not hold.
	ErrUnknownRelation = errors.New("unknown relation")
	// ErrUnboundVar reports a query variable not covered by the global
	// attribute order (or not bound by any atom).
	ErrUnboundVar = errors.New("variable not bound")
)

// DB is a collection of named relations. Engines request GAO-consistent
// secondary indexes through Index; results are cached because the paper's
// protocol reuses the same physical design across queries (§4.1: "all input
// relations are indexed consistent with this GAO"). The DB also caches
// compiled query plans (see plan.go); both caches are invalidated per
// relation by Add.
type DB struct {
	mu      sync.Mutex
	rels    map[string]*relation.Relation
	indexes map[string]*relation.Relation
	tries   map[string]trieEntry
	plans   map[string]*Plan
	// version increments on every Add and ApplyDelta; plan compilation
	// snapshots it so a plan bound against relations that were replaced
	// mid-compile is never cached (it would otherwise dodge Add's
	// invalidation sweep forever).
	version int64
}

// trieEntry is one cached CSR index together with the permutation it was
// built under, so ApplyDelta can route an update batch into the index's own
// attribute order.
type trieEntry struct {
	perm []int
	idx  *csrIndex
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{
		rels:    make(map[string]*relation.Relation),
		indexes: make(map[string]*relation.Relation),
		tries:   make(map[string]trieEntry),
		plans:   make(map[string]*Plan),
	}
}

// Add registers a relation under its name, replacing any previous relation
// with that name and invalidating its cached indexes and any cached plans
// that read it.
func (db *DB) Add(r *relation.Relation) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.addLocked(r)
}

// AddAll registers several relations under one lock acquisition, so no
// reader — in particular no snapshot lease — can observe some of them
// replaced and others not (the multi-relation counterpart of Add, as
// ApplyDeltas is of ApplyDelta; the benchmark schema's sample redraws
// replace four relations at once).
func (db *DB) AddAll(rels []*relation.Relation) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, r := range rels {
		db.addLocked(r)
	}
}

func (db *DB) addLocked(r *relation.Relation) {
	db.version++
	db.rels[r.Name()] = r
	prefix := r.Name() + "/"
	for k := range db.indexes {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			delete(db.indexes, k)
		}
	}
	for k := range db.tries {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			delete(db.tries, k)
		}
	}
	for k, p := range db.plans {
		if p.reads(r.Name()) {
			delete(db.plans, k)
		}
	}
}

// OverlayDepth sums the pending delta-log sizes of every cached CSR index:
// the number of tuples sitting in overlay logs ahead of their base tries.
// The metrics layer exports it per store as graphjoind_overlay_depth.
func (db *DB) OverlayDepth() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	total := 0
	for _, e := range db.tries {
		total += e.idx.PendingDelta()
	}
	return total
}

// Version returns the database's mutation counter (incremented by every Add
// and ApplyDelta). Callers that cache derived state — the incremental views
// cache compiled delta plans — compare versions to detect relations changing
// underneath them.
func (db *DB) Version() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.version
}

// ApplyDelta applies an in-place update batch to the named relation:
// registers the merged relation (one linear merge, no re-sort) and then
// maintains the cached physical design incrementally instead of discarding
// it — every cached CSR index absorbs the batch through its delta overlay
// (relation.Overlay) in time proportional to the small log — no trie
// rebuild — and plans bound to trie indexes stay valid because their index
// objects are advanced in place. Plans bound to the sorted rows (generic
// join's) are dropped, and the permuted rows are re-derived from the merged
// relation on next use.
//
// Inserts already present and deletes absent are ignored, and a tuple
// appearing on both sides of one batch resolves as delete-after-insert (an
// absent tuple stays absent, a present one is deleted), so any caller batch
// is safe. This is the write path the incremental views
// (internal/incremental) drive on every ApplyEdges batch.
func (db *DB) ApplyDelta(name string, inserts, deletes [][]int64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.applyDeltaLocked(name, inserts, deletes)
}

// DeltaBatch is one relation's update batch within a multi-relation delta.
type DeltaBatch struct {
	Name    string
	Inserts [][]int64
	Deletes [][]int64
}

// ApplyDeltas applies several relations' update batches under one lock
// acquisition, so no reader — in particular no snapshot lease (NewLease) and
// no index bind — can observe a state where some of the batches have landed
// and others have not. This is the write path for derived-relation schemas
// whose invariants span relations (the benchmark graph's symmetric "edge"
// and oriented "fwd"). All batch names are validated up front; an unknown
// relation fails the whole call before anything is applied.
func (db *DB) ApplyDeltas(batches []DeltaBatch) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, b := range batches {
		if _, ok := db.rels[b.Name]; !ok {
			return fmt.Errorf("core: %w: %q", ErrUnknownRelation, b.Name)
		}
	}
	for _, b := range batches {
		if err := db.applyDeltaLocked(b.Name, b.Inserts, b.Deletes); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) applyDeltaLocked(name string, inserts, deletes [][]int64) error {
	r, ok := db.rels[name]
	if !ok {
		return fmt.Errorf("core: %w: %q", ErrUnknownRelation, name)
	}
	ins, dels := CanonicalDelta(r, inserts, deletes)
	if len(ins) == 0 && len(dels) == 0 {
		return nil
	}
	db.version++
	arity := r.Arity()
	insRel := relation.FromTuples(name, arity, ins)
	delsRel := relation.FromTuples(name, arity, dels)
	db.rels[name] = relation.MergeDelta(r, insRel, delsRel)
	prefix := name + "/"
	for k := range db.indexes {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			delete(db.indexes, k)
		}
	}
	for k, e := range db.tries {
		if len(k) < len(prefix) || k[:len(prefix)] != prefix {
			continue
		}
		e.idx.applyDelta(permuteTuples(ins, e.perm), permuteTuples(dels, e.perm))
	}
	for k, p := range db.plans {
		if p.reads(name) && p.bindsRows() {
			delete(db.plans, k)
		}
	}
	return nil
}

// CanonicalDelta reduces a raw update batch to the canonical delta against r:
// deletes restricted to present tuples, inserts to absent ones, both
// deduplicated. A tuple appearing on both sides resolves as
// delete-after-insert: a no-op for absent tuples, a delete for present
// ones. The result satisfies the overlay invariants (ins ∩ r = ∅,
// dels ⊆ r, ins ∩ dels = ∅). Exported because the incremental views
// canonicalize their batches the same way before deriving correction terms,
// so view maintenance and the raw ApplyDelta path agree on batch semantics.
func CanonicalDelta(r *relation.Relation, inserts, deletes [][]int64) (ins, dels [][]int64) {
	seenDel := make(map[string]bool)
	for _, t := range deletes {
		if len(t) != r.Arity() {
			continue
		}
		k := relation.TupleKey(t)
		if !seenDel[k] && r.Contains(t) {
			dels = append(dels, t)
		}
		seenDel[k] = true
	}
	seenIns := make(map[string]bool)
	for _, t := range inserts {
		if len(t) != r.Arity() || r.Contains(t) {
			continue
		}
		k := relation.TupleKey(t)
		if !seenIns[k] && !seenDel[k] {
			seenIns[k] = true
			ins = append(ins, t)
		}
	}
	return ins, dels
}

// permuteTuples reorders every tuple's columns by perm (output column k
// holds input column perm[k]) — the delta-batch counterpart of
// Relation.Permute.
func permuteTuples(tuples [][]int64, perm []int) [][]int64 {
	if len(tuples) == 0 {
		return nil
	}
	identity := true
	for k, p := range perm {
		if p != k {
			identity = false
			break
		}
	}
	if identity {
		return tuples
	}
	out := make([][]int64, len(tuples))
	for i, t := range tuples {
		pt := make([]int64, len(perm))
		for k, p := range perm {
			pt[k] = t[p]
		}
		out[i] = pt
	}
	return out
}

// Snapshot returns the current relation set under one lock acquisition.
// Relations are immutable, so the returned pointers form a consistent
// point-in-time view of the database — the capture the durability layer's
// checkpointer pairs with the WAL position it holds while calling.
func (db *DB) Snapshot() []*relation.Relation {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]*relation.Relation, 0, len(db.rels))
	for _, r := range db.rels {
		out = append(out, r)
	}
	return out
}

// Relation returns the named relation.
func (db *DB) Relation(name string) (*relation.Relation, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.rels[name]
	if !ok {
		return nil, fmt.Errorf("core: %w: %q", ErrUnknownRelation, name)
	}
	return r, nil
}

// Names returns the registered relation names (unordered).
func (db *DB) Names() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.rels))
	for n := range db.rels {
		out = append(out, n)
	}
	return out
}

// Index returns the named relation with its columns permuted by perm and
// re-sorted, caching the result. perm[k] is the source column stored at
// output position k.
func (db *DB) Index(name string, perm []int) (*relation.Relation, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.indexLocked(name, perm)
}

func indexKey(name string, perm []int) string {
	key := name + "/"
	for _, p := range perm {
		key += strconv.Itoa(p) + ","
	}
	return key
}

func (db *DB) indexLocked(name string, perm []int) (*relation.Relation, error) {
	key := indexKey(name, perm)
	if idx, ok := db.indexes[key]; ok {
		return idx, nil
	}
	r, ok := db.rels[name]
	if !ok {
		return nil, fmt.Errorf("core: %w: %q", ErrUnknownRelation, name)
	}
	if len(perm) != r.Arity() {
		return nil, fmt.Errorf("core: %d columns bound over the %d-ary relation %q", len(perm), r.Arity(), name)
	}
	idx := r.Permute(perm)
	db.indexes[key] = idx
	return idx, nil
}

// TrieIndex returns the named relation's GAO-consistent CSR trie index,
// caching it alongside the permuted relation it is built from (both caches
// are invalidated per relation by Add; ApplyDelta instead advances cached
// CSR indexes in place through their delta overlays). The trie levels are
// materialized here, so the O(arity · n) build is paid once per relation ×
// permutation and amortized across executions.
func (db *DB) TrieIndex(name string, perm []int) (IndexBackend, error) {
	key := indexKey(name, perm)
	db.mu.Lock()
	defer db.mu.Unlock()
	if e, ok := db.tries[key]; ok {
		return e.idx, nil
	}
	rel, err := db.indexLocked(name, perm)
	if err != nil {
		return nil, err
	}
	idx := newCSRIndex(rel)
	db.tries[key] = trieEntry{perm: append([]int(nil), perm...), idx: idx}
	return idx, nil
}

// Engine is a join algorithm. Count returns the number of result tuples of
// the natural join; Enumerate calls emit for every result tuple with the
// variable bindings in q.Vars() order and stops early if emit returns false.
// Both honor context cancellation.
type Engine interface {
	Name() string
	Count(ctx context.Context, q *query.Query, db *DB) (int64, error)
	Enumerate(ctx context.Context, q *query.Query, db *DB, emit func([]int64) bool) error
}

// AtomIndex resolves the GAO-consistent index for one atom: the atom's
// variables sorted by GAO position, the permutation applied, and the global
// GAO positions of its columns in index order. Exactly one of Rel and Index
// is set.
type AtomIndex struct {
	// Rel is the permuted sorted relation, bound for generic join, whose
	// Algorithm 1 narrows explicit row spans.
	Rel *relation.Relation
	// Index is the CSR trie index, bound for the trie-driven engines (LFTJ,
	// Minesweeper).
	Index IndexBackend
	// VarPos[k] is the GAO position of the index's column k.
	VarPos []int
}

// Len returns the number of bound tuples.
func (a AtomIndex) Len() int {
	if a.Rel != nil {
		return a.Rel.Len()
	}
	return a.Index.Len()
}

// BindAtom binds one atom's GAO-consistent CSR trie index. gaoPos maps
// variable name to GAO position. The incremental views use it to re-bind
// just their delta atoms per update batch.
func BindAtom(a query.Atom, db *DB, gaoPos map[string]int) (AtomIndex, error) {
	return bindAtom(a, db, gaoPos, false)
}

func bindAtom(a query.Atom, db *DB, gaoPos map[string]int, rows bool) (AtomIndex, error) {
	order := make([]int, len(a.Vars)) // column order by GAO position
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(x, y int) bool {
		return gaoPos[a.Vars[order[x]]] < gaoPos[a.Vars[order[y]]]
	})
	var ai AtomIndex
	var err error
	if rows {
		ai.Rel, err = db.Index(a.Rel, order)
	} else {
		ai.Index, err = db.TrieIndex(a.Rel, order)
	}
	if err != nil {
		return AtomIndex{}, err
	}
	ai.VarPos = make([]int, len(order))
	for k, col := range order {
		p, ok := gaoPos[a.Vars[col]]
		if !ok {
			return AtomIndex{}, fmt.Errorf("core: %w: GAO misses variable %q of atom %s", ErrUnboundVar, a.Vars[col], a)
		}
		ai.VarPos[k] = p
	}
	return ai, nil
}

// bindAtoms binds the GAO-consistent index of every atom of a query (paper
// §4.1): the CSR tries, or with rows the sorted rows generic join narrows.
func bindAtoms(q *query.Query, db *DB, gao []string, rows bool) ([]AtomIndex, error) {
	pos := make(map[string]int, len(gao))
	for i, v := range gao {
		pos[v] = i
	}
	out := make([]AtomIndex, len(q.Atoms))
	for i, a := range q.Atoms {
		ai, err := bindAtom(a, db, pos, rows)
		if err != nil {
			return nil, err
		}
		out[i] = ai
	}
	return out, nil
}

// CheckEvery is how many inner-loop steps engines may take between context
// checks; exported so all engines share the same responsiveness contract.
const CheckEvery = 4096

// Ticker counts engine steps and surfaces context cancellation with low
// overhead.
type Ticker struct {
	n   int
	ctx context.Context
}

// NewTicker returns a Ticker for ctx.
func NewTicker(ctx context.Context) *Ticker { return &Ticker{ctx: ctx} }

// Tick reports a non-nil error when the context is done; it only inspects
// the context every CheckEvery calls.
func (t *Ticker) Tick() error {
	t.n++
	if t.n%CheckEvery != 0 {
		return nil
	}
	return t.ctx.Err()
}
