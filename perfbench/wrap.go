package main

import (
	"context"
	"fmt"
	"iter"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// Timing wrappers for the traced run. Each forwards every call unchanged to
// the value it wraps and records a span around it; the untraced run builds
// the same servers and router without them.

// applyKey identifies an apply by the oriented edge it deletes.
func applyKey(batches map[string][]repro.Delta) string {
	for _, d := range batches["fwd"] {
		if d.Delete {
			return fmt.Sprintf("apply|%d,%d", d.Tuple[0], d.Tuple[1])
		}
	}
	return ""
}

func parseKey(src string) string       { return "parse|" + src }
func legParseKey(src string) string    { return "legparse|" + src }
func prepareKey(q *repro.Query) string { return "prepare|" + q.String() }

// frontQuerier wraps the Querier a serving front hosts (registered through
// server.Config.Queriers): repro.Local over the store on serve, the router on
// routed.
type frontQuerier struct {
	inner  repro.Querier
	rec    *recorder
	routed bool
}

// frontStore is frontQuerier over a local store; it forwards OverlayDepth so
// the server registers the same store gauges it does for a plain Store.
type frontStore struct {
	*frontQuerier
	st *repro.Store
}

func (f frontStore) OverlayDepth() int { return f.st.OverlayDepth() }

func (f *frontQuerier) timed(op int64, name string, call func() error) error {
	start := time.Now()
	err := call()
	f.rec.add(span{Op: op, Layer: layerFront, Name: name, Start: start, End: time.Now()})
	return err
}

func (f *frontQuerier) DefineRelation(name string, arity int) error {
	return f.inner.DefineRelation(name, arity)
}
func (f *frontQuerier) Load(name string, tuples [][]int64) error {
	return f.timed(0, "load", func() error { return f.inner.Load(name, tuples) })
}
func (f *frontQuerier) Apply(name string, inserts, deletes [][]int64) error {
	return f.inner.Apply(name, inserts, deletes)
}
func (f *frontQuerier) ApplyAll(batches map[string][]repro.Delta) error {
	op := f.rec.applyOp(applyKey(batches))
	return f.timed(op, "apply", func() error { return f.inner.ApplyAll(batches) })
}
func (f *frontQuerier) Relations() []string            { return f.inner.Relations() }
func (f *frontQuerier) Arity(name string) (int, error) { return f.inner.Arity(name) }
func (f *frontQuerier) Schema(ctx context.Context) ([]repro.RelationInfo, error) {
	return f.inner.Schema(ctx)
}
func (f *frontQuerier) ParseQuery(name, src string) (*repro.Query, error) {
	op := f.rec.claim(parseKey(src))
	if f.routed && op != 0 {
		f.rec.expect(legParseKey(src), op)
	}
	var q *repro.Query
	err := f.timed(op, "parse", func() (err error) {
		q, err = f.inner.ParseQuery(name, src)
		return err
	})
	return q, err
}
func (f *frontQuerier) Prepare(q *repro.Query, opts repro.Options) (repro.PreparedQuery, error) {
	op := f.rec.claim(prepareKey(q))
	if f.routed && op != 0 {
		f.rec.setQuery(q, op)
		defer f.rec.setQuery(q, 0)
	}
	start := time.Now()
	p, err := f.inner.Prepare(q, opts)
	sp := span{Op: op, Layer: layerFront, Name: "prepare", Start: start, End: time.Now()}
	if lp, ok := p.(*repro.Prepared); ok {
		st := lp.Stats()
		sp.Hits, sp.Misses = st.PlanCacheHits, st.PlanCacheMisses
	}
	f.rec.add(sp)
	if err != nil {
		return nil, err
	}
	return &frontPrepared{PreparedQuery: p, rec: f.rec, op: op}, nil
}
func (f *frontQuerier) Count(ctx context.Context, q *repro.Query, opts repro.Options) (int64, error) {
	return f.inner.Count(ctx, q, opts)
}
func (f *frontQuerier) Enumerate(ctx context.Context, q *repro.Query, opts repro.Options, emit func([]int64) bool) error {
	return f.inner.Enumerate(ctx, q, opts, emit)
}
func (f *frontQuerier) ReadTxn() (repro.QueryTxn, error) {
	t, err := f.inner.ReadTxn()
	if err != nil {
		return nil, err
	}
	return unwrappingTxn{t}, nil
}
func (f *frontQuerier) Batch(ctx context.Context, reqs []repro.BatchRequest) ([]repro.Result, error) {
	inner := make([]repro.BatchRequest, len(reqs))
	for i, r := range reqs {
		inner[i] = repro.BatchRequest{Prepared: unwrap(r.Prepared), Rows: r.Rows}
	}
	return f.inner.Batch(ctx, inner)
}
func (f *frontQuerier) Close() error { return f.inner.Close() }

// frontPrepared times executions of a front-side handle and, for a local
// store, reads the engine counters each execution added.
type frontPrepared struct {
	repro.PreparedQuery
	rec *recorder
	op  int64
}

func (p *frontPrepared) exec(call func() error) error {
	lp, local := p.PreparedQuery.(*repro.Prepared)
	var before repro.ExecStats
	if local {
		before = lp.Stats()
	}
	start := time.Now()
	err := call()
	sp := span{Op: p.op, Layer: layerFront, Name: "exec", Start: start, End: time.Now()}
	if local {
		sp.Seeks = lp.Stats().Seeks - before.Seeks
	}
	p.rec.add(sp)
	return err
}

func (p *frontPrepared) Count(ctx context.Context) (n int64, err error) {
	err = p.exec(func() (err error) {
		n, err = p.PreparedQuery.Count(ctx)
		return err
	})
	return n, err
}
func (p *frontPrepared) Enumerate(ctx context.Context, emit func([]int64) bool) error {
	return p.exec(func() error { return p.PreparedQuery.Enumerate(ctx, emit) })
}
func (p *frontPrepared) Close() error {
	start := time.Now()
	err := p.PreparedQuery.Close()
	p.rec.add(span{Op: p.op, Layer: layerFront, Name: "close", Start: start, End: time.Now()})
	return err
}

// Explain forwards to a local handle, so the server's Explain request sees
// the same plan it would without the wrapper.
func (p *frontPrepared) Explain() repro.Explanation {
	if lp, ok := p.PreparedQuery.(*repro.Prepared); ok {
		return lp.Explain()
	}
	return repro.Explanation{}
}

func unwrap(p repro.PreparedQuery) repro.PreparedQuery {
	switch w := p.(type) {
	case *frontPrepared:
		return w.PreparedQuery
	case *legPrepared:
		return w.PreparedQuery
	}
	return p
}

// unwrappingTxn hands the wrapped Querier's own handles to its transaction.
type unwrappingTxn struct{ repro.QueryTxn }

func (t unwrappingTxn) Count(ctx context.Context, p repro.PreparedQuery) (int64, error) {
	return t.QueryTxn.Count(ctx, unwrap(p))
}
func (t unwrappingTxn) Enumerate(ctx context.Context, p repro.PreparedQuery, emit func([]int64) bool) error {
	return t.QueryTxn.Enumerate(ctx, unwrap(p), emit)
}
func (t unwrappingTxn) Rows(ctx context.Context, p repro.PreparedQuery) iter.Seq[[]int64] {
	return t.QueryTxn.Rows(ctx, unwrap(p))
}
func (t unwrappingTxn) RowsErr(ctx context.Context, p repro.PreparedQuery) iter.Seq2[[]int64, error] {
	return t.QueryTxn.RowsErr(ctx, unwrap(p))
}

// legQuerier wraps the client connection the router holds to one shard.
type legQuerier struct {
	repro.Querier
	rec  *recorder
	host int
}

func (l *legQuerier) timed(op int64, name string, call func() error) error {
	start := time.Now()
	err := call()
	l.rec.add(span{Op: op, Layer: layerLeg, Name: name, Host: l.host, Start: start, End: time.Now()})
	return err
}

func (l *legQuerier) ApplyAll(batches map[string][]repro.Delta) error {
	op := l.rec.applyOp(applyKey(batches))
	return l.timed(op, "apply", func() error { return l.Querier.ApplyAll(batches) })
}
func (l *legQuerier) ParseQuery(name, src string) (q *repro.Query, err error) {
	op := l.rec.claim(legParseKey(src))
	err = l.timed(op, "parse", func() (err error) {
		q, err = l.Querier.ParseQuery(name, src)
		return err
	})
	return q, err
}
func (l *legQuerier) Prepare(q *repro.Query, opts repro.Options) (p repro.PreparedQuery, err error) {
	op := l.rec.queryOp(q)
	err = l.timed(op, "prepare", func() (err error) {
		p, err = l.Querier.Prepare(q, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &legPrepared{PreparedQuery: p, leg: l, op: op}, nil
}
func (l *legQuerier) ReadTxn() (repro.QueryTxn, error) {
	start := time.Now()
	t, err := l.Querier.ReadTxn()
	if err != nil {
		return nil, err
	}
	return &legTxn{QueryTxn: t, leg: l, begin: span{Layer: layerLeg, Name: "begin", Host: l.host,
		Start: start, End: time.Now()}}, nil
}
func (l *legQuerier) Batch(ctx context.Context, reqs []repro.BatchRequest) ([]repro.Result, error) {
	inner := make([]repro.BatchRequest, len(reqs))
	for i, r := range reqs {
		inner[i] = repro.BatchRequest{Prepared: unwrap(r.Prepared), Rows: r.Rows}
	}
	return l.Querier.Batch(ctx, inner)
}

type legPrepared struct {
	repro.PreparedQuery
	leg *legQuerier
	op  int64
}

func (p *legPrepared) Count(ctx context.Context) (n int64, err error) {
	err = p.leg.timed(p.op, "exec", func() (err error) {
		n, err = p.PreparedQuery.Count(ctx)
		return err
	})
	return n, err
}
func (p *legPrepared) Enumerate(ctx context.Context, emit func([]int64) bool) error {
	return p.leg.timed(p.op, "exec", func() error { return p.PreparedQuery.Enumerate(ctx, emit) })
}
func (p *legPrepared) Close() error {
	return p.leg.timed(p.op, "close", p.PreparedQuery.Close)
}

// legTxn is a router snapshot lease on one shard. The lease is opened before
// the router knows which handle it will run, so its begin span is credited
// to the op of the first execution inside it.
type legTxn struct {
	repro.QueryTxn
	leg *legQuerier

	mu    sync.Mutex
	begin span
	op    int64
}

func (t *legTxn) bind(p repro.PreparedQuery) (repro.PreparedQuery, int64) {
	lp, ok := p.(*legPrepared)
	if !ok {
		return p, 0
	}
	t.mu.Lock()
	if t.op == 0 {
		t.op = lp.op
		t.begin.Op = lp.op
		t.leg.rec.add(t.begin)
	}
	t.mu.Unlock()
	return lp.PreparedQuery, lp.op
}

func (t *legTxn) Count(ctx context.Context, p repro.PreparedQuery) (n int64, err error) {
	inner, op := t.bind(p)
	err = t.leg.timed(op, "exec", func() (err error) {
		n, err = t.QueryTxn.Count(ctx, inner)
		return err
	})
	return n, err
}
func (t *legTxn) Enumerate(ctx context.Context, p repro.PreparedQuery, emit func([]int64) bool) error {
	inner, op := t.bind(p)
	return t.leg.timed(op, "exec", func() error { return t.QueryTxn.Enumerate(ctx, inner, emit) })
}
func (t *legTxn) Rows(ctx context.Context, p repro.PreparedQuery) iter.Seq[[]int64] {
	inner, _ := t.bind(p)
	return t.QueryTxn.Rows(ctx, inner)
}
func (t *legTxn) RowsErr(ctx context.Context, p repro.PreparedQuery) iter.Seq2[[]int64, error] {
	inner, _ := t.bind(p)
	return t.QueryTxn.RowsErr(ctx, inner)
}
func (t *legTxn) Close() error {
	t.mu.Lock()
	op := t.op
	t.mu.Unlock()
	return t.leg.timed(op, "end", t.QueryTxn.Close)
}

// countingConn counts the bytes a client connection moves each way.
type countingConn struct {
	net.Conn
	read, written atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.written.Add(int64(n))
	return n, err
}

func (c *countingConn) total() int64 { return c.read.Load() + c.written.Load() }
