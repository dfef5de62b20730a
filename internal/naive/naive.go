// Package naive implements a straightforward backtracking join used only as
// a differential-testing oracle: it binds one variable at a time, drawing
// each variable's candidates from the rows of one atom containing it that
// agree with the variables already bound, and checks each atom for
// membership once all its variables are bound. It is deliberately
// unoptimized and obviously correct.
package naive

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
)

// Engine is the oracle engine.
type Engine struct{}

// Name implements core.Engine.
func (Engine) Name() string { return "naive" }

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
	if err := q.Validate(); err != nil {
		return err
	}
	rels := make([]*relation.Relation, len(q.Atoms))
	for i, a := range q.Atoms {
		r, err := db.Relation(a.Rel)
		if err != nil {
			return err
		}
		if r.Arity() != len(a.Vars) {
			return fmt.Errorf("naive: atom %s arity mismatch with %s", a, r)
		}
		rels[i] = r
	}
	vars := q.Vars()
	idx := q.VarIndex()
	// Binding order: next is the first variable (in q.Vars() order) among
	// those sharing the most atoms with the variables already bound, so
	// unrelated variables (the node samples) never multiply into a cross
	// product of candidates. rank[v] is variable v's depth in that order.
	order := make([]int, 0, len(vars))
	rank := make([]int, len(vars))
	for v := range rank {
		rank[v] = len(vars)
	}
	for len(order) < len(vars) {
		best, bestLinks := -1, -1
		for v, name := range vars {
			if rank[v] < len(vars) {
				continue
			}
			links := 0
			for _, ai := range q.AtomsWith(name) {
				for _, av := range q.Atoms[ai].Vars {
					if rank[idx[av]] < len(vars) {
						links++
						break
					}
				}
			}
			if links > bestLinks {
				best, bestLinks = v, links
			}
		}
		rank[best] = len(order)
		order = append(order, best)
	}
	// cands[d] maps the values of the variables bound before depth d, as
	// they appear in one atom containing order[d] (the one with the most
	// such variables), to the distinct values order[d] takes in that atom's
	// matching rows. Built by one scan per variable.
	type source struct {
		col   int
		fixed [][2]int // (column, variable index) of earlier variables
	}
	srcs := make([]source, len(vars))
	cands := make([]map[string][]int64, len(vars))
	for d, v := range order {
		atom := -1
		for _, ai := range q.AtomsWith(vars[v]) {
			var s source
			for c, av := range q.Atoms[ai].Vars {
				switch {
				case av == vars[v]:
					s.col = c
				case rank[idx[av]] < d:
					s.fixed = append(s.fixed, [2]int{c, idx[av]})
				}
			}
			if atom < 0 || len(s.fixed) > len(srcs[d].fixed) {
				atom, srcs[d] = ai, s
			}
		}
		src := srcs[d]
		cands[d] = make(map[string][]int64)
		seen := make(map[string]bool)
		r := rels[atom]
		key := make([]int64, len(src.fixed)+1)
		for row := 0; row < r.Len(); row++ {
			for k, f := range src.fixed {
				key[k] = r.Value(row, f[0])
			}
			key[len(src.fixed)] = r.Value(row, src.col)
			if full := relation.TupleKey(key); !seen[full] {
				seen[full] = true
				prefix := relation.TupleKey(key[:len(src.fixed)])
				cands[d][prefix] = append(cands[d][prefix], key[len(src.fixed)])
			}
		}
	}
	// checks[d] lists the atoms whose variables are all bound at depth d:
	// each atom is checked for membership as soon as it can be.
	checks := make([][]int, len(vars))
	for i, a := range q.Atoms {
		last := 0
		for _, av := range a.Vars {
			last = max(last, rank[idx[av]])
		}
		checks[last] = append(checks[last], i)
	}
	binding := make([]int64, len(vars)) // in q.Vars() order
	point := make([]int64, 0, 4)
	holds := func(d int) bool {
		for _, i := range checks[d] {
			point = point[:0]
			for _, av := range q.Atoms[i].Vars {
				point = append(point, binding[idx[av]])
			}
			if !rels[i].Contains(point) {
				return false
			}
		}
		return true
	}
	tick := core.NewTicker(ctx)

	var rec func(d int) (bool, error)
	rec = func(d int) (bool, error) {
		if err := tick.Tick(); err != nil {
			return false, err
		}
		if d == len(vars) {
			return emit(append([]int64(nil), binding...)), nil
		}
		key := make([]int64, len(srcs[d].fixed))
		for k, f := range srcs[d].fixed {
			key[k] = binding[f[1]]
		}
		for _, val := range cands[d][relation.TupleKey(key)] {
			binding[order[d]] = val
			if !holds(d) {
				continue
			}
			cont, err := rec(d + 1)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	_, err := rec(0)
	return err
}
