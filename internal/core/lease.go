package core

import "sync"

// Lease is a read snapshot of the database's physical design: at creation it
// resolves every cached index whose contents can advance in place under
// ApplyDelta (the CSR delta overlays) to the point-in-time view current at
// that moment. Plans pinned through the lease observe that one state on every
// execution, no matter how many delta batches land in between — the
// multi-execution extension of the per-run SnapshotAtoms pinning the engines
// apply, and the mechanism behind the public Store.ReadTxn and Store.Batch
// surfaces.
//
// A lease needs no release: the pinned views are ordinary overlay snapshots
// and the garbage collector reclaims them when the lease is dropped. Indexes
// that are immutable objects (flat bindings — ApplyDelta replaces rather
// than advances them) pass through unpinned; a plan holding them is
// already frozen at its compile-time state.
type Lease struct {
	mu    sync.Mutex
	views map[IndexBackend]IndexBackend
}

// NewLease pins the current state of every cached snapshottable index.
func (db *DB) NewLease() *Lease {
	db.mu.Lock()
	defer db.mu.Unlock()
	l := &Lease{views: make(map[IndexBackend]IndexBackend)}
	for _, e := range db.tries {
		if s, ok := e.idx.(Snapshotter); ok {
			l.views[e.idx] = s.Snapshot()
		}
	}
	return l
}

// Pin resolves atom bindings through the lease: a snapshottable index maps to
// the view pinned at lease creation. An index first bound after the lease was
// taken is pinned on first encounter and memoized, so repeated executions
// through the same lease still agree with each other. Non-snapshottable
// indexes pass through unchanged; when nothing is snapshottable the input
// slice is returned as is.
func (l *Lease) Pin(atoms []AtomIndex) []AtomIndex {
	l.mu.Lock()
	defer l.mu.Unlock()
	return snapshotWith(atoms, l.views)
}

// PinPlan returns a copy of the plan with its atom bindings pinned through
// the lease. Engines executing the pinned plan read the leased state on every
// run: their own per-execution SnapshotAtoms pass is a no-op on views that
// are already snapshots.
func (l *Lease) PinPlan(p *Plan) *Plan {
	cp := *p
	cp.Atoms = l.Pin(p.Atoms)
	return &cp
}
