package repro

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/relation"
)

// extendedCorpus is the query-language corpus: projection, in-atom
// constants, comparison predicates, aggregation, and combinations — the
// shapes the plain corpus in backend_diff_test.go cannot express.
func extendedCorpus() []string {
	return []string{
		// Projection.
		"out(a) :- edge(a, b)",
		"mid(b) :- edge(a, b), edge(b, c)",
		"pair(a, c) :- edge(a, b), edge(b, c)",
		"rev(c, a) :- edge(a, b), edge(b, c)",
		// In-atom constants (desugared to placeholder equality bounds).
		"edge(3, b)",
		"edge(a, 7), edge(7, b)",
		// Comparison predicates: bounds and residuals.
		"edge(a, b), a < b",
		"edge(a, b), a >= 10, b < 100",
		"edge(a, b), edge(b, c), a != c",
		"two(a, c) :- edge(a, b), edge(b, c), b >= 10, c < 100",
		// Aggregation.
		"deg(a, count(b)) :- edge(a, b)",
		"deg2(a, count(c)) :- edge(a, b), edge(b, c)",
		"stats(a, min(b), max(b), sum(b)) :- edge(a, b)",
		"total(count(a)) :- edge(a, b)",
		// Everything at once.
		"hot(a, count(b)) :- edge(a, b), b > 20, a != 5",
		"sel(a) :- edge(a, b), edge(b, c), c >= 2, a < 200",
	}
}

// referenceEval evaluates an extended query by brute force: enumerate the
// plain natural join of the query's atoms with the internal/naive oracle,
// post-filter every predicate,
// project with duplicate elimination, and aggregate over the distinct
// projected bindings — the semantics the engines' pushed-down execution must
// reproduce exactly.
func referenceEval(t *testing.T, s *Store, q *Query) [][]int64 {
	t.Helper()
	ctx := context.Background()
	plain := query.New("ref", q.Atoms...)
	pos := make(map[string]int, plain.NumVars())
	for i, v := range plain.Vars() {
		pos[v] = i
	}
	evalPred := func(row []int64, p query.Pred) bool {
		l := row[pos[p.Left]]
		r := p.Const
		if p.IsVar {
			r = row[pos[p.Right]]
		}
		switch p.Op {
		case query.OpEq:
			return l == r
		case query.OpNe:
			return l != r
		case query.OpLt:
			return l < r
		case query.OpLe:
			return l <= r
		case query.OpGt:
			return l > r
		case query.OpGe:
			return l >= r
		}
		t.Fatalf("unknown op %q", p.Op)
		return false
	}
	// Distinct bindings of the engine-level output prefix (output vars then
	// aggregated vars), in the extended query's own column order.
	prefixVars := q.Vars()[:q.Prefix()]
	seen := make(map[string]bool)
	var prefixRows [][]int64
	err := naive.Engine{}.Enumerate(ctx, plain, s.db, func(row []int64) bool {
		for _, p := range q.Preds {
			if !evalPred(row, p) {
				return true
			}
		}
		proj := make([]int64, len(prefixVars))
		for i, v := range prefixVars {
			proj[i] = row[pos[v]]
		}
		key := fmt.Sprint(proj)
		if !seen[key] {
			seen[key] = true
			prefixRows = append(prefixRows, proj)
		}
		return true
	})
	if err != nil {
		t.Fatalf("reference enumerate: %v", err)
	}
	if len(q.Aggs) == 0 {
		sortedRows(prefixRows)
		return prefixRows
	}
	// Aggregate over the distinct prefix bindings, grouped by the plain
	// output columns.
	qpos := make(map[string]int, q.Prefix())
	for i, v := range prefixVars {
		qpos[v] = i
	}
	keys := len(q.Out())
	groups := make(map[string][]int64) // key -> [keys..., accs...]
	var order []string
	for _, pr := range prefixRows {
		key := fmt.Sprint(pr[:keys])
		acc, ok := groups[key]
		if !ok {
			acc = append([]int64(nil), pr[:keys]...)
			for _, ag := range q.Aggs {
				v := pr[qpos[ag.Var]]
				if ag.Func == query.AggCount {
					v = 1
				}
				acc = append(acc, v)
			}
			groups[key] = acc
			order = append(order, key)
			continue
		}
		for i, ag := range q.Aggs {
			v := pr[qpos[ag.Var]]
			switch ag.Func {
			case query.AggCount:
				acc[keys+i]++
			case query.AggSum:
				acc[keys+i] += v
			case query.AggMin:
				acc[keys+i] = min(acc[keys+i], v)
			case query.AggMax:
				acc[keys+i] = max(acc[keys+i], v)
			}
		}
	}
	rows := make([][]int64, 0, len(order))
	for _, k := range order {
		rows = append(rows, groups[k])
	}
	sortedRows(rows)
	return rows
}

func collectRows(t *testing.T, p *Prepared) [][]int64 {
	t.Helper()
	var rows [][]int64
	if err := p.Enumerate(context.Background(), func(tuple []int64) bool {
		rows = append(rows, append([]int64(nil), tuple...))
		return true
	}); err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	return rows
}

func requireSameRows(t *testing.T, label string, got, want [][]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if relation.CompareTuples(got[i], want[i]) != 0 {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestExtendedDifferential runs the extended corpus under both trie-driven
// engines and requires counts and row sets identical to an independent
// brute-force reference (enumerate-then-filter-then-group). The subtest
// leaf names the index the engines bind.
func TestExtendedDifferential(t *testing.T) {
	ctx := context.Background()
	g := GenerateGraph(HolmeKim, 250, 900, 3)
	s := g.Store
	for _, src := range extendedCorpus() {
		q, err := s.ParseQuery("q", src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		want := referenceEval(t, s, q)
		for _, alg := range []Algorithm{LFTJ, MS} {
			t.Run(fmt.Sprintf("%s/%s/csr", src, alg), func(t *testing.T) {
				p, err := s.Prepare(q, Options{Algorithm: alg, Workers: 1})
				if err != nil {
					t.Fatalf("prepare: %v", err)
				}
				n, err := p.Count(ctx)
				if err != nil {
					t.Fatalf("count: %v", err)
				}
				rows := collectRows(t, p)
				if int64(len(rows)) != n {
					t.Fatalf("count %d != enumerated %d", n, len(rows))
				}
				for _, r := range rows {
					if len(r) != q.OutWidth() {
						t.Fatalf("row width %d, want OutWidth %d", len(r), q.OutWidth())
					}
				}
				sortedRows(rows)
				requireSameRows(t, string(alg), rows, want)
			})
		}
	}
}

// TestExtendedDifferentialChurn re-runs a slice of the extended corpus after
// every step of a randomized 15-step Apply churn, across both engines,
// against the brute-force reference recomputed per step. The handles are
// re-prepared each step, so the plan cache must serve plans whose indexes
// the overlays advanced through the writes.
func TestExtendedDifferentialChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := NewStore()
	if err := s.DefineRelation("edge", 2); err != nil {
		t.Fatal(err)
	}
	var init [][]int64
	for i := 0; i < 200; i++ {
		init = append(init, []int64{int64(rng.Intn(30)), int64(rng.Intn(30))})
	}
	if err := s.Load("edge", init); err != nil {
		t.Fatal(err)
	}
	srcs := []string{
		"out(a) :- edge(a, b)",
		"edge(a, b), a < b",
		"edge(3, b)",
		"deg(a, count(b)) :- edge(a, b)",
		"hot(a, sum(b)) :- edge(a, b), b >= 5",
	}
	queries := make([]*Query, len(srcs))
	for i, src := range srcs {
		q, err := s.ParseQuery(fmt.Sprintf("q%d", i), src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		queries[i] = q
	}
	for step := 0; step < 15; step++ {
		var ins, del [][]int64
		for k := 0; k < 1+rng.Intn(5); k++ {
			tu := []int64{int64(rng.Intn(30)), int64(rng.Intn(30))}
			if rng.Intn(2) == 0 {
				ins = append(ins, tu)
			} else {
				del = append(del, tu)
			}
		}
		if err := s.Apply("edge", ins, del); err != nil {
			t.Fatalf("step %d apply: %v", step, err)
		}
		for qi, q := range queries {
			want := referenceEval(t, s, q)
			for _, alg := range []Algorithm{LFTJ, MS} {
				p, err := s.Prepare(q, Options{Algorithm: alg, Workers: 1})
				if err != nil {
					t.Fatalf("step %d %s/%s prepare: %v", step, srcs[qi], alg, err)
				}
				rows := collectRows(t, p)
				sortedRows(rows)
				requireSameRows(t, fmt.Sprintf("step %d %s/%s", step, srcs[qi], alg), rows, want)
			}
		}
	}
}

// TestExtendedUnsupportedEngines pins the gate: extended queries on the
// engines without pushdown support fail Prepare with ErrUnsupportedQuery
// instead of silently returning plain-join results.
func TestExtendedUnsupportedEngines(t *testing.T) {
	g := GenerateGraph(ErdosRenyi, 100, 300, 2)
	s := g.Store
	q, err := s.ParseQuery("q", "out(a) :- edge(a, b)")
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{Hybrid, PSQL, MonetDB, Yannakakis, GraphLab, GenericJoin} {
		if _, err := s.Prepare(q, Options{Algorithm: alg}); err == nil {
			t.Errorf("%s: extended query accepted, want ErrUnsupportedQuery", alg)
		} else if !errors.Is(err, ErrUnsupportedQuery) {
			t.Errorf("%s: error %v, want ErrUnsupportedQuery", alg, err)
		}
	}
	// Plain queries stay accepted everywhere.
	if _, err := s.Prepare(Triangles(), Options{Algorithm: Yannakakis}); err != nil {
		t.Errorf("plain query on yannakakis: %v", err)
	}
}

// TestExtendedTxnAndBatch runs aggregate and projected queries through the
// snapshot paths: ReadTxn executions and Batch requests must apply the same
// streaming aggregation as direct Prepared executions.
func TestExtendedTxnAndBatch(t *testing.T) {
	ctx := context.Background()
	g := GenerateGraph(BarabasiAlbert, 150, 600, 4)
	s := g.Store
	for _, src := range []string{"deg(a, count(b)) :- edge(a, b)", "out(a) :- edge(a, b), a < 100"} {
		q, err := s.ParseQuery("q", src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Prepare(q, Options{Algorithm: LFTJ, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := collectRows(t, p)
		wantN, err := p.Count(ctx)
		if err != nil {
			t.Fatal(err)
		}
		txn := s.ReadTxn()
		n, err := txn.Count(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if n != wantN {
			t.Errorf("%s: txn count %d, want %d", src, n, wantN)
		}
		var got [][]int64
		for row := range txn.Rows(ctx, p) {
			got = append(got, row)
		}
		requireSameRows(t, "txn rows "+src, got, want)
		res := s.Batch(ctx, []Request{{Prepared: p, Rows: true}, {Prepared: p}})
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("%s: batch req %d: %v", src, i, r.Err)
			}
			if r.Count != wantN {
				t.Errorf("%s: batch req %d count %d, want %d", src, i, r.Count, wantN)
			}
		}
		requireSameRows(t, "batch rows "+src, res[0].Rows, want)
	}
}
