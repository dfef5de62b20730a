package core

import (
	"sync/atomic"

	"repro/internal/relation"
)

// TrieCursor is the per-execution iteration handle over one GAO-consistent
// index, with the trie contract Leapfrog Triejoin is defined against
// (paper §2.2): Open descends to the first child of the current node, Up
// pops back, Next/SeekGE move within the current level in increasing key
// order (no-ops at the end of a level; callers check AtEnd). Cursors are
// single-goroutine; obtain a fresh one per execution from the index.
type TrieCursor interface {
	Open()
	Up()
	Next()
	SeekGE(v int64)
	AtEnd() bool
	Key() int64
}

// IndexBackend is one GAO-consistent physical index over a relation — the
// CSR trie of §4.1 behind a delta overlay, or a pinned snapshot of one: the
// trie access path (NewCursor) the worst-case-optimal engines iterate, plus
// the least-upper-bound/greatest-lower-bound gap probe (ProbeGap, the
// paper's seekGap from Algorithm 3) Minesweeper drives. Implementations are
// safe for concurrent executions: a cursor obtained from NewCursor sees one
// immutable snapshot for its whole lifetime, even if the index is advanced
// by DB.ApplyDelta concurrently. Direct ProbeGap calls on an updatable
// index read its current state per call — executions that interleave many
// probes pin a stable view first via SnapshotAtoms (the engines do this at
// the start of every run).
type IndexBackend interface {
	// Arity returns the number of indexed attributes.
	Arity() int
	// Len returns the number of tuples.
	Len() int
	// NewCursor returns a fresh trie cursor positioned at the root.
	NewCursor() TrieCursor
	// ProbeGap probes with a full-arity point: found == true when the tuple
	// is present, else the maximal empty gap box around the point (§4.5).
	ProbeGap(point []int64) (relation.Gap, bool)
}

// csrIndex serves a CSR trie (relation.CSRTrie: each level materialized as
// contiguous key+offset arrays, so cursor Open/Next are O(1) and SeekGE
// gallops over a dense array) through a delta overlay snapshot. The
// snapshot pointer is swapped atomically by DB.ApplyDelta, so executions in
// flight keep the snapshot they pinned (via Snapshot or NewCursor) while new
// executions see the updated contents — this is what keeps compiled plans
// valid across incremental updates.
type csrIndex struct {
	ov atomic.Pointer[relation.Overlay]
}

func newCSRIndex(r *relation.Relation) *csrIndex {
	c := &csrIndex{}
	c.ov.Store(relation.NewOverlay(r))
	return c
}

func (c *csrIndex) Arity() int            { return c.ov.Load().Arity() }
func (c *csrIndex) Len() int              { return c.ov.Load().Len() }
func (c *csrIndex) NewCursor() TrieCursor { return c.ov.Load().NewCursor() }
func (c *csrIndex) ProbeGap(point []int64) (relation.Gap, bool) {
	return c.ov.Load().ProbeGap(point)
}

// snapshot returns a view pinned to the overlay state at call time, so
// every probe and cursor an execution takes through it reads one
// consistent index state.
func (c *csrIndex) snapshot() IndexBackend { return overlayView{ov: c.ov.Load()} }

// applyDelta folds an update batch (already permuted into this index's
// attribute order and filtered to the overlay invariants) into a new
// overlay snapshot. Callers serialize applyDelta under the DB lock.
func (c *csrIndex) applyDelta(ins, dels [][]int64) {
	c.ov.Store(c.ov.Load().Apply(ins, dels))
}

// PendingDelta returns the overlay log size (tuples applied since the last
// compaction); DB.OverlayDepth aggregates it for the metrics layer.
func (c *csrIndex) PendingDelta() int { return c.ov.Load().LogLen() }

// overlayView is one immutable overlay snapshot served as an IndexBackend.
type overlayView struct {
	ov *relation.Overlay
}

func (v overlayView) Arity() int            { return v.ov.Arity() }
func (v overlayView) Len() int              { return v.ov.Len() }
func (v overlayView) NewCursor() TrieCursor { return v.ov.NewCursor() }
func (v overlayView) ProbeGap(point []int64) (relation.Gap, bool) {
	return v.ov.ProbeGap(point)
}

// SnapshotAtoms resolves every live atom index to a single point-in-time
// view for the duration of one execution, so a concurrent delta batch can
// never mix two index states within one run (the engines call it at the
// start of every execution). Atoms bound to the same index object resolve
// to the same snapshot, so self-joins see one consistent relation state;
// the input slice is returned unchanged when nothing is live (already
// pinned views, row bindings).
func SnapshotAtoms(atoms []AtomIndex) []AtomIndex {
	return snapshotWith(atoms, nil)
}

// snapshotWith resolves live atom indexes through memo, taking and
// memoizing a snapshot for indexes not yet present; the per-execution
// SnapshotAtoms starts from a nil memo, a Lease passes its persistent one.
// The input slice is copied only when something actually resolves.
func snapshotWith(atoms []AtomIndex, memo map[IndexBackend]IndexBackend) []AtomIndex {
	out := atoms
	copied := false
	for i, a := range atoms {
		c, ok := a.Index.(*csrIndex)
		if !ok {
			continue
		}
		if memo == nil {
			memo = make(map[IndexBackend]IndexBackend, len(atoms))
		}
		v, seen := memo[c]
		if !seen {
			v = c.snapshot()
			memo[c] = v
		}
		if !copied {
			out = append([]AtomIndex(nil), atoms...)
			copied = true
		}
		out[i].Index = v
	}
	return out
}
