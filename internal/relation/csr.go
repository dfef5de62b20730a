package relation

import (
	"fmt"
	"math"
)

// CSRTrie is a materialized attribute trie over a sorted relation, stored in
// compressed-sparse-row layout: one contiguous key array per attribute level
// plus an offset array mapping each node to its children's range in the next
// level (the layout TrieJax and EmptyHeaded use for worst-case-optimal join
// indices). Where the flat Relation re-derives child ranges by binary search
// over full row ranges on every TrieIterator.Open/Next, the CSR trie resolves
// Open and Next in O(1) array arithmetic and SeekGE by galloping over a
// dense, cache-resident key array — the access pattern of the innermost
// leapfrog loop. A CSRTrie is immutable and safe for concurrent cursors.
type CSRTrie struct {
	name  string
	arity int
	n     int
	// levels[d] materializes trie depth d (attribute column d).
	levels []csrLevel
}

// csrLevel is one materialized trie level: vals holds the keys of every node
// at this depth, grouped by parent; start[p] .. start[p+1] bounds the
// children of parent node p in vals (level 0 has the single virtual root as
// parent, so start is [0, len(vals)]). rows[i] is the first source row of
// node i's subtree; because nodes at a level partition the sorted rows in
// order, node i spans rows [rows[i], rows[i+1]) and rows[len(vals)] == n.
// The spans give every node its subtree tuple count in O(1) — the delta
// overlay's tombstone check (is a base subtree fully deleted?) reads them.
type csrLevel struct {
	vals  []int64
	start []int32
	rows  []int32
}

// span returns the subtree tuple count of node pos at this level.
func (l *csrLevel) span(pos int32) int32 { return l.rows[pos+1] - l.rows[pos] }

// NewCSRTrie materializes the attribute trie of a sorted, deduplicated
// relation. Build cost is one linear pass per level, O(arity · n) total.
func NewCSRTrie(r *Relation) *CSRTrie {
	if int64(r.Len()) > math.MaxInt32 {
		panic(fmt.Sprintf("relation: CSR trie over %d tuples exceeds int32 offsets", r.Len()))
	}
	t := &CSRTrie{name: r.name, arity: r.arity, n: r.n, levels: make([]csrLevel, r.arity)}
	// Row ranges of the previous level's nodes; the virtual root spans all
	// rows. Runs of equal values within a parent's range become the nodes of
	// the current level, carrying their row ranges down for the next one.
	prevLo := []int32{0}
	prevHi := []int32{int32(r.n)}
	for d := 0; d < r.arity; d++ {
		lvl := &t.levels[d]
		lvl.start = make([]int32, 1, len(prevLo)+1)
		var curLo, curHi []int32
		for p := range prevLo {
			for row := prevLo[p]; row < prevHi[p]; {
				v := r.rows[int(row)*r.arity+d]
				end := row + 1
				for end < prevHi[p] && r.rows[int(end)*r.arity+d] == v {
					end++
				}
				lvl.vals = append(lvl.vals, v)
				curLo = append(curLo, row)
				curHi = append(curHi, end)
				row = end
			}
			lvl.start = append(lvl.start, int32(len(lvl.vals)))
		}
		// Nodes partition the sorted rows in order, so curHi[i] == curLo[i+1]
		// and the span array is curLo with the total row count appended.
		lvl.rows = append(curLo, int32(r.n))
		prevLo, prevHi = curLo, curHi
	}
	return t
}

// Name returns the indexed relation's name.
func (t *CSRTrie) Name() string { return t.name }

// Arity returns the number of attributes.
func (t *CSRTrie) Arity() int { return t.arity }

// Len returns the number of tuples (leaf nodes).
func (t *CSRTrie) Len() int { return t.n }

// Nodes returns the total materialized trie-node count across all levels
// (the index's memory footprint in keys).
func (t *CSRTrie) Nodes() int {
	total := 0
	for _, lvl := range t.levels {
		total += len(lvl.vals)
	}
	return total
}

func (t *CSRTrie) String() string {
	return fmt.Sprintf("csr(%s/%d)[%d tuples, %d nodes]", t.name, t.arity, t.n, t.Nodes())
}

// ProbeGap is the CSR counterpart of Relation.ProbeGap (Minesweeper's
// seekGap, Algorithm 3): walk the materialized levels with one bounded
// binary search each, descending through O(1) child-range lookups instead of
// re-narrowing full row ranges. Gap semantics are identical to
// Relation.ProbeGap's.
func (t *CSRTrie) ProbeGap(point []int64) (gap Gap, found bool) {
	if len(point) != t.arity {
		panic("relation: ProbeGap point length mismatch")
	}
	lo, hi := int32(0), int32(len(t.levels[0].vals))
	for d := 0; d < t.arity; d++ {
		vals := t.levels[d].vals
		v := point[d]
		pos := lowerBound64(vals, lo, hi, v)
		if pos < hi && vals[pos] == v {
			if d+1 < t.arity {
				lo, hi = t.levels[d+1].start[pos], t.levels[d+1].start[pos+1]
			}
			continue
		}
		g := Gap{Col: d, Lo: NegInf, Hi: PosInf}
		if pos > lo {
			g.Lo = vals[pos-1]
		}
		if pos < hi {
			g.Hi = vals[pos]
		}
		return g, false
	}
	return Gap{}, true
}

// lowerBound64 returns the first index in [lo, hi) with vals[i] >= v.
func lowerBound64(vals []int64, lo, hi int32, v int64) int32 {
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if vals[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// CSRCursor is the trie cursor over a CSRTrie, with the same contract as
// TrieIterator: Open descends to the first child, Up pops back, Next/SeekGE
// move within the current level in increasing key order, and calling them at
// the end of a level is a no-op.
type CSRCursor struct {
	t     *CSRTrie
	depth int
	lo    []int32 // per opened level: start of sibling range in levels[d].vals
	hi    []int32 // per opened level: end of sibling range
	pos   []int32 // per opened level: current node
}

// NewCSRCursor returns a cursor positioned at the trie's virtual root.
func NewCSRCursor(t *CSRTrie) *CSRCursor {
	return &CSRCursor{
		t:   t,
		lo:  make([]int32, 0, t.arity),
		hi:  make([]int32, 0, t.arity),
		pos: make([]int32, 0, t.arity),
	}
}

// Depth returns the number of currently opened levels.
func (c *CSRCursor) Depth() int { return c.depth }

// Open descends one level to the current node's first child: a direct
// offset-array lookup, no search.
func (c *CSRCursor) Open() {
	if c.depth == c.t.arity {
		panic("relation: CSRCursor.Open below leaf level")
	}
	var lo, hi int32
	lvl := &c.t.levels[c.depth]
	if c.depth == 0 {
		lo, hi = 0, int32(len(lvl.vals))
	} else {
		if c.AtEnd() {
			panic("relation: CSRCursor.Open at end of level")
		}
		p := c.pos[c.depth-1]
		lo, hi = lvl.start[p], lvl.start[p+1]
	}
	c.lo = append(c.lo, lo)
	c.hi = append(c.hi, hi)
	c.pos = append(c.pos, lo)
	c.depth++
}

// Up pops back to the previous level. It panics at the root.
func (c *CSRCursor) Up() {
	if c.depth == 0 {
		panic("relation: CSRCursor.Up at root")
	}
	c.depth--
	c.lo = c.lo[:c.depth]
	c.hi = c.hi[:c.depth]
	c.pos = c.pos[:c.depth]
}

// AtEnd reports whether the current level is exhausted.
func (c *CSRCursor) AtEnd() bool {
	cur := c.depth - 1
	return c.pos[cur] >= c.hi[cur]
}

// Key returns the current key at the current level.
func (c *CSRCursor) Key() int64 {
	cur := c.depth - 1
	return c.t.levels[cur].vals[c.pos[cur]]
}

// Span returns the subtree tuple count of the current node — how many
// tuples of the relation extend the key path selected so far. The delta
// overlay compares base and tombstone spans to decide whether a base
// subtree is fully deleted.
func (c *CSRCursor) Span() int32 {
	cur := c.depth - 1
	return c.t.levels[cur].span(c.pos[cur])
}

// Next advances to the next distinct key: a single increment, because every
// node at a level is already distinct under its parent.
func (c *CSRCursor) Next() {
	cur := c.depth - 1
	if c.pos[cur] < c.hi[cur] {
		c.pos[cur]++
	}
}

// SeekGE positions at the least key >= v at the current level, galloping
// from the current position (leapfrog seeks are usually near misses, so the
// exponential probe touches O(log distance) keys of one contiguous array).
// Seeking backwards is a no-op.
func (c *CSRCursor) SeekGE(v int64) {
	cur := c.depth - 1
	vals := c.t.levels[cur].vals
	pos, hi := c.pos[cur], c.hi[cur]
	if pos >= hi || vals[pos] >= v {
		return
	}
	// vals[pos] < v: gallop until the bracket [pos, bound) has the target.
	bound, step := pos+1, int32(1)
	for bound < hi && vals[bound] < v {
		pos = bound
		bound += step
		step <<= 1
	}
	if bound > hi {
		bound = hi
	}
	c.pos[cur] = lowerBound64(vals, pos+1, bound, v)
}
