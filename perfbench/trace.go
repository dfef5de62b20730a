package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro"
)

// The traced run records spans from the benchmark's own wrappers around the
// program's public surfaces; the program itself is not instrumented. Spans
// live in memory and are written out as one JSON file when the run ends.

// Span layers, outermost first. A span's parent is the innermost span of the
// same op on an outer layer whose interval contains it.
const (
	layerOp    = iota // the client-side op (or the analytic Count)
	layerFront        // the Querier the serving front hosts: a Store, or the router
	layerLeg          // one router leg: a shard client call
)

var layerNames = [...]string{"op", "front", "leg"}

// span is one recorded interval. Op is the benchmark op it belongs to;
// setup-time calls carry op 0.
type span struct {
	Op     int64
	Layer  int
	Name   string
	Host   int
	Start  time.Time
	End    time.Time
	Seeks  int64 // store-side engine counters, where the layer can read them
	Hits   int64
	Misses int64
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder collects spans and attributes store-side calls to client ops.
// A nil *recorder records nothing: the untraced run passes nil everywhere.
type recorder struct {
	mu    sync.Mutex
	spans []span
	// pending maps a call key (query text, or the edge an apply deletes) to
	// the ops that have announced that call but whose store side has not
	// claimed it yet, oldest first. Two clients can issue the same query
	// text at once; the FIFO then may swap which of two identical calls is
	// credited to which op, which leaves every per-op-type figure intact.
	pending map[string][]int64
	// applies maps an in-flight apply's key to its op; every layer it
	// crosses looks it up (each client owns a disjoint edge slice, so the
	// key is unique while the apply is in flight).
	applies map[string]int64
	// queries maps a parsed query handed to the router to its op, so the
	// router's per-host Prepare legs find their op.
	queries map[*repro.Query]int64
}

func newRecorder() *recorder {
	return &recorder{
		pending: make(map[string][]int64),
		applies: make(map[string]int64),
		queries: make(map[*repro.Query]int64),
	}
}

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// expect announces that op is about to make the call identified by key.
func (r *recorder) expect(key string, op int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.pending[key] = append(r.pending[key], op)
	r.mu.Unlock()
}

// claim returns the oldest op that announced key, or 0.
func (r *recorder) claim(key string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	q := r.pending[key]
	if len(q) == 0 {
		return 0
	}
	op := q[0]
	if len(q) == 1 {
		delete(r.pending, key)
	} else {
		r.pending[key] = q[1:]
	}
	return op
}

func (r *recorder) setApply(key string, op int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if op == 0 {
		delete(r.applies, key)
	} else {
		r.applies[key] = op
	}
	r.mu.Unlock()
}

func (r *recorder) applyOp(key string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applies[key]
}

func (r *recorder) setQuery(q *repro.Query, op int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if op == 0 {
		delete(r.queries, q)
	} else {
		r.queries[q] = op
	}
	r.mu.Unlock()
}

func (r *recorder) queryOp(q *repro.Query) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.queries[q]
}

// tree is the recorded spans with ids and parents assigned.
type tree struct {
	spans    []span
	parent   []int   // index of the parent span, -1 for roots
	children [][]int // inverse of parent
	byOp     map[int64][]int
}

func (r *recorder) tree() *tree {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	t := &tree{spans: spans, parent: make([]int, len(spans)), children: make([][]int, len(spans)),
		byOp: make(map[int64][]int)}
	for i, s := range spans {
		t.byOp[s.Op] = append(t.byOp[s.Op], i)
	}
	for i, s := range spans {
		t.parent[i] = -1
		if s.Op == 0 {
			continue
		}
		best := -1
		for _, j := range t.byOp[s.Op] {
			o := spans[j]
			if o.Layer >= s.Layer || o.Start.After(s.Start) || o.End.Before(s.End) {
				continue
			}
			if best < 0 || o.Layer > spans[best].Layer ||
				(o.Layer == spans[best].Layer && o.Start.After(spans[best].Start)) {
				best = j
			}
		}
		t.parent[i] = best
		if best >= 0 {
			t.children[best] = append(t.children[best], i)
		}
	}
	return t
}

// unattributed counts spans started after t that no op claimed: store-side
// calls the attribution could not tie to the client op that caused them.
func (t *tree) unattributed(after time.Time) int {
	n := 0
	for _, s := range t.spans {
		if s.Op == 0 && s.Start.After(after) {
			n++
		}
	}
	return n
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(lo, hi time.Time, ivs [][2]time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s.Before(cur) {
			s = cur
		}
		if e.After(hi) {
			e = hi
		}
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return total
}

// self is span i's duration minus the time its child spans cover.
func (t *tree) self(i int) time.Duration {
	s := t.spans[i]
	ivs := make([][2]time.Time, 0, len(t.children[i]))
	for _, c := range t.children[i] {
		ivs = append(ivs, [2]time.Time{t.spans[c].Start, t.spans[c].End})
	}
	return s.dur() - covered(s.Start, s.End, ivs)
}

// layerCover is the time op's spans on one layer cover.
func (t *tree) layerCover(op int64, layer int) time.Duration {
	var ivs [][2]time.Time
	lo, hi := time.Time{}, time.Time{}
	for _, j := range t.byOp[op] {
		s := t.spans[j]
		if s.Layer != layer {
			continue
		}
		if lo.IsZero() || s.Start.Before(lo) {
			lo = s.Start
		}
		if s.End.After(hi) {
			hi = s.End
		}
		ivs = append(ivs, [2]time.Time{s.Start, s.End})
	}
	if len(ivs) == 0 {
		return 0
	}
	return covered(lo, hi, ivs)
}

// dump writes the spans as one JSON document: ids are 1-based positions,
// parent 0 means a root, times are nanoseconds from the first span.
func (t *tree) dump(path string) error {
	type rec struct {
		ID     int    `json:"id"`
		Parent int    `json:"parent"`
		Op     int64  `json:"op"`
		Layer  string `json:"layer"`
		Name   string `json:"name"`
		Host   int    `json:"host"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Self   int64  `json:"self_ns"`
	}
	var base time.Time
	if len(t.spans) > 0 {
		base = t.spans[0].Start
	}
	out := make([]rec, len(t.spans))
	for i, s := range t.spans {
		out[i] = rec{ID: i + 1, Parent: t.parent[i] + 1, Op: s.Op, Layer: layerNames[s.Layer],
			Name: s.Name, Host: s.Host, Start: s.Start.Sub(base).Nanoseconds(),
			End: s.End.Sub(base).Nanoseconds(), Self: t.self(i).Nanoseconds()}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": out}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
