package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/client"
	"repro/router"
	"repro/server"
)

// The serve and routed workloads: two closed-loop clients over loopback TCP
// to one server.Server. On serve the server hosts a durable store; on routed
// it hosts a router.Router over three shard servers, each durable alike.

const (
	serveClients = 2
	shardCount   = 3
	// walCheckpointBytes triggers a checkpoint every ~140 applies (an apply
	// logs ~60 bytes), so a 30-second run completes at least three, summed
	// over its stores (the front store on serve, the three shards on
	// routed).
	walCheckpointBytes = 8 << 10
	requestTimeout     = 60 * time.Second
	warmupRounds       = 3
)

// serveMix is the op mix, by weight.
var serveMix = []struct {
	typ    string
	weight int
}{{"hop2", 3}, {"rows", 2}, {"agg", 2}, {"apply", 3}}

var serveOps = []string{"hop2", "rows", "agg", "apply"}

func hop2Src(k int64) string { return fmt.Sprintf("q(b,c) :- edge(%d,b), edge(b,c)", k) }
func aggSrc(k int64) string  { return fmt.Sprintf("q(b, count(c)) :- edge(%d,b), edge(b,c)", k) }

// cluster is one set-up instance of the serve or routed deployment.
type cluster struct {
	routed    bool
	frontName string

	dirs      []string
	stores    []*repro.Store // durable stores: the front's on serve, the shards' on routed
	storeName []string
	servers   []*server.Server
	serving   sync.WaitGroup
	shardConn []*client.Store
	router    *router.Router
	clients   []*serveClient
}

// serveClient is one closed-loop client with its own connection, key
// stream, slice of the edge space and request ledger.
type serveClient struct {
	c     *client.Store
	conn  *countingConn // traced run only
	rng   *rand.Rand
	key   func() int64
	slice *edgeSlice
	rec   *recorder

	ledger    int64 // wire requests the server admitted
	rejected  int64
	keepRows  bool // keep row samples for the codec measurement
	rowSample [][]int64
}

// serveLabel names one instance: every store, server tenant and metrics
// label is unique within the process, so the shared registry keeps them
// apart.
func serveLabel(workload string, inst int, role string) string {
	return fmt.Sprintf("%s-%d-%d-%s", workload, os.Getpid(), inst, role)
}

func listen(srv *server.Server, wg *sync.WaitGroup) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Serve(l)
	}()
	return l.Addr().String(), nil
}

func openDurable(dir, label string) (*repro.Store, error) {
	st, _, err := repro.OpenStore(dir, repro.DurabilityOptions{
		Sync: "group", GroupWindow: 0, MetricsName: label, CheckpointBytes: walCheckpointBytes,
	})
	return st, err
}

// setupCluster brings the deployment up, loads the graph and warms it:
// servers up → define + load → first Prepare → warm-up ops.
func setupCluster(env *runEnv, inst int, rec *recorder, g *graph) (*cluster, error) {
	cl := &cluster{routed: env.workload == "routed",
		frontName: serveLabel(env.workload, inst, "front")}
	ctx := context.Background()
	newDir := func(role string) (string, error) {
		dir := filepath.Join(env.work, serveLabel(env.workload, inst, role))
		os.RemoveAll(dir)
		cl.dirs = append(cl.dirs, dir)
		return dir, os.MkdirAll(dir, 0o755)
	}
	var front repro.Querier
	var frontStore *repro.Store
	if !cl.routed {
		dir, err := newDir("wal")
		if err != nil {
			return cl, err
		}
		st, err := openDurable(dir, cl.frontName)
		if err != nil {
			return cl, err
		}
		cl.stores = append(cl.stores, st)
		cl.storeName = append(cl.storeName, cl.frontName)
		frontStore = st
		if rec != nil {
			front = newFrontStore(st, rec)
		}
	} else {
		hosts := make([]repro.Querier, shardCount)
		labels := make([]string, shardCount)
		for i := range hosts {
			name := serveLabel(env.workload, inst, fmt.Sprintf("shard%d", i))
			dir, err := newDir(fmt.Sprintf("shard%d-wal", i))
			if err != nil {
				return cl, err
			}
			st, err := openDurable(dir, name)
			if err != nil {
				return cl, err
			}
			cl.stores = append(cl.stores, st)
			cl.storeName = append(cl.storeName, name)
			srv := server.New(server.Config{Stores: map[string]*repro.Store{name: st}})
			cl.servers = append(cl.servers, srv)
			addr, err := listen(srv, &cl.serving)
			if err != nil {
				return cl, err
			}
			c, err := client.Dial(ctx, addr, client.WithStore(name), client.WithRequestTimeout(requestTimeout))
			if err != nil {
				return cl, err
			}
			cl.shardConn = append(cl.shardConn, c)
			hosts[i], labels[i] = c, name
			if rec != nil {
				hosts[i] = &legQuerier{Querier: c, rec: rec, host: i}
			}
		}
		r, err := router.New(hosts, labels, router.Config{Partitioner: router.HashPartitioner()})
		if err != nil {
			return cl, err
		}
		cl.router = r
		front = r
		if rec != nil {
			front = &frontQuerier{inner: r, rec: rec, routed: true}
		}
	}
	cfg := server.Config{}
	if front != nil {
		cfg.Queriers = map[string]repro.Querier{cl.frontName: front}
	} else {
		cfg.Stores = map[string]*repro.Store{cl.frontName: frontStore}
	}
	srv := server.New(cfg)
	cl.servers = append(cl.servers, srv)
	addr, err := listen(srv, &cl.serving)
	if err != nil {
		return cl, err
	}
	for i := 0; i < serveClients; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return cl, err
		}
		sc := &serveClient{rec: rec, rng: clientRNG(env.seed, i),
			slice: newEdgeSlice(g, i, serveClients)}
		sc.key = keyDraw(sc.rng, g.n)
		if rec != nil {
			sc.conn = &countingConn{Conn: nc}
			nc = sc.conn
		}
		if sc.c, err = client.New(ctx, nc, client.WithStore(cl.frontName),
			client.WithRequestTimeout(requestTimeout)); err != nil {
			nc.Close()
			return cl, err
		}
		cl.clients = append(cl.clients, sc)
	}
	c0 := cl.clients[0].c
	for _, rel := range []string{"edge", "fwd"} {
		if err := c0.DefineRelation(rel, 2); err != nil {
			return cl, err
		}
	}
	if err := c0.Load("edge", g.symmetric()); err != nil {
		return cl, err
	}
	if err := c0.Load("fwd", g.oriented()); err != nil {
		return cl, err
	}
	// First Prepare builds the indexes; then every client runs every op a
	// few times so plans, buffers and the first checkpoint are behind us.
	if _, err := cl.clients[0].hop2(0, 0); err != nil {
		return cl, err
	}
	errs := make([]error, len(cl.clients))
	var wg sync.WaitGroup
	for i, sc := range cl.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < warmupRounds && errs[i] == nil; r++ {
				for _, typ := range serveOps {
					if res := sc.do(typ, 0); res.err != nil {
						errs[i] = res.err
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	return cl, errors.Join(errs...)
}

func newFrontStore(st *repro.Store, rec *recorder) repro.Querier {
	return frontStore{frontQuerier: &frontQuerier{inner: repro.Local(st), rec: rec}, st: st}
}

// teardown stops every server and removes the WAL directories.
func (cl *cluster) teardown() {
	for _, sc := range cl.clients {
		if sc.c != nil {
			sc.c.Close()
		}
	}
	if len(cl.servers) > 0 {
		cl.servers[len(cl.servers)-1].Close() // the front first
	}
	if cl.router != nil {
		cl.router.Close()
	}
	for _, c := range cl.shardConn {
		c.Close()
	}
	for _, srv := range cl.servers {
		srv.Close()
	}
	cl.serving.Wait()
	for _, st := range cl.stores {
		st.Close()
	}
	for _, d := range cl.dirs {
		os.RemoveAll(d)
	}
}

// opResult is one op a client completed.
type opResult struct {
	typ        string
	op         int64
	start, end time.Time
	err        error
	rows       int64
	bytes      int64
	requests   int64           // wire requests the op made
	stats      repro.ExecStats // engine counters the op added (traced analytic run)
}

var errOverloaded = client.ErrOverloaded

func (r opResult) dur() time.Duration { return r.end.Sub(r.start) }

// count records one wire request in the ledger: admitted requests count,
// admission rejections are tallied apart (the server keeps them in
// rejected_total).
func (c *serveClient) count(err error) error {
	if errors.Is(err, client.ErrOverloaded) {
		c.rejected++
	} else {
		c.ledger++
	}
	return err
}

// query runs ParseQuery → Prepare → run → Close: the four round trips of
// every read op.
func (c *serveClient) query(op int64, src string, run func(p repro.PreparedQuery) error) error {
	c.rec.expect(parseKey(src), op)
	q, err := c.c.ParseQuery("q", src)
	if c.count(err) != nil {
		return err
	}
	c.rec.expect(prepareKey(q), op)
	p, err := c.c.Prepare(q, repro.Options{Algorithm: repro.LFTJ})
	if c.count(err) != nil {
		return err
	}
	runErr := run(p)
	c.count(runErr)
	closeErr := p.Close()
	c.count(closeErr)
	return errors.Join(runErr, closeErr)
}

func (c *serveClient) hop2(op, k int64) (n int64, err error) {
	err = c.query(op, hop2Src(k), func(p repro.PreparedQuery) (err error) {
		n, err = p.Count(context.Background())
		return err
	})
	return n, err
}

func (c *serveClient) collect(op int64, src string) (rows [][]int64, err error) {
	err = c.query(op, src, func(p repro.PreparedQuery) error {
		return p.Enumerate(context.Background(), func(t []int64) bool {
			rows = append(rows, append([]int64(nil), t...))
			return true
		})
	})
	return rows, err
}

// apply swaps one edge of the client's slice: it deletes a present edge and
// inserts an absent one, in both edge directions and in fwd, as one atomic
// write. The model changes only once the write is acknowledged.
func (c *serveClient) apply(op int64) error {
	del, ins := c.slice.nextSwap(c.rng)
	batches := map[string][]repro.Delta{
		"edge": {repro.Remove(del[0], del[1]), repro.Remove(del[1], del[0]),
			repro.Insert(ins[0], ins[1]), repro.Insert(ins[1], ins[0])},
		"fwd": {repro.Remove(del[0], del[1]), repro.Insert(ins[0], ins[1])},
	}
	key := applyKey(batches)
	c.rec.setApply(key, op)
	err := c.c.ApplyAll(batches)
	c.rec.setApply(key, 0)
	if c.count(err) == nil {
		c.slice.commit(del, ins)
	}
	return err
}

// do runs one op of the given type and reports it.
func (c *serveClient) do(typ string, op int64) opResult {
	r := opResult{typ: typ, op: op}
	var before int64
	if c.conn != nil {
		before = c.conn.total()
	}
	ledger := c.ledger + c.rejected
	r.start = time.Now()
	switch typ {
	case "hop2":
		_, r.err = c.hop2(op, c.key())
	case "rows", "agg":
		k := c.key()
		src := hop2Src(k)
		if typ == "agg" {
			src = aggSrc(k)
		}
		var rows [][]int64
		rows, r.err = c.collect(op, src)
		r.rows = int64(len(rows))
		if c.keepRows && typ == "rows" && len(c.rowSample) < codecSampleRows {
			c.rowSample = append(c.rowSample, rows...)
		}
	case "apply":
		r.err = c.apply(op)
	}
	r.end = time.Now()
	r.requests = c.ledger + c.rejected - ledger
	if c.conn != nil {
		r.bytes = c.conn.total() - before
	}
	return r
}

// drive runs the closed loop until the deadline; an op in flight at the
// deadline completes. ids hands out op ids shared by all clients.
func (c *serveClient) drive(deadline time.Time, ids *opIDs) []opResult {
	total := 0
	for _, m := range serveMix {
		total += m.weight
	}
	var out []opResult
	for time.Now().Before(deadline) {
		pick := c.rng.Intn(total)
		typ := ""
		for _, m := range serveMix {
			if pick < m.weight {
				typ = m.typ
				break
			}
			pick -= m.weight
		}
		op := ids.next()
		r := c.do(typ, op)
		out = append(out, r)
		c.rec.add(span{Op: op, Layer: layerOp, Name: typ, Start: r.start, End: r.end})
	}
	return out
}

type opIDs struct {
	mu sync.Mutex
	n  int64
}

func (o *opIDs) next() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.n++
	return o.n
}

// measure runs every client's closed loop for d and returns all ops.
func (cl *cluster) measure(d time.Duration) ([]opResult, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	ids := &opIDs{}
	logs := make([][]opResult, len(cl.clients))
	var wg sync.WaitGroup
	for i, sc := range cl.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[i] = sc.drive(deadline, ids)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []opResult
	for _, l := range logs {
		all = append(all, l...)
	}
	return all, elapsed
}

func (cl *cluster) ledger() (admitted, rejected int64) {
	for _, sc := range cl.clients {
		admitted += sc.ledger
		rejected += sc.rejected
	}
	return admitted, rejected
}

// check compares the answers for a fixed key sample with the edge-set model
// with every acknowledged swap applied: the hop2 count, the rows result as a
// sorted set and the agg groups.
func (cl *cluster) check(env *runEnv, n int) error {
	var edges [][2]int64
	for _, sc := range cl.clients {
		edges = append(edges, sc.slice.present...)
	}
	m := newServeModel(n, edges)
	c := cl.clients[0]
	for _, k := range checkSample(env.seed, n) {
		want := m.rows(k)
		cnt, err := c.hop2(0, k)
		if err != nil {
			return err
		}
		if cnt != int64(len(want)) {
			return fmt.Errorf("hop2 key %d: count %d, want %d", k, cnt, len(want))
		}
		rows, err := c.collect(0, hop2Src(k))
		if err != nil {
			return err
		}
		sortTuples(rows)
		if err := sameTuples(rows, want); err != nil {
			return fmt.Errorf("rows key %d: %w", k, err)
		}
		groups, err := c.collect(0, aggSrc(k))
		if err != nil {
			return err
		}
		sortTuples(groups)
		if err := sameTuples(groups, m.agg(k)); err != nil {
			return fmt.Errorf("agg key %d: %w", k, err)
		}
	}
	return nil
}

// overlayDepth sums the overlay depth of the cluster's stores.
func (cl *cluster) overlayDepth() int {
	d := 0
	for _, st := range cl.stores {
		d += st.OverlayDepth()
	}
	return d
}

// sortedDurations is the sorted latencies of the successful ops of one type.
func sortedDurations(rs []opResult, typ string) []time.Duration {
	var ds []time.Duration
	for _, r := range rs {
		if r.typ == typ && r.err == nil {
			ds = append(ds, r.dur())
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}
