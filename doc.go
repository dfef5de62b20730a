// Package repro is a from-scratch Go reproduction of "Join Processing for
// Graph Patterns: An Old Dog with New Tricks" (Nguyen, Aref, Bravenboer,
// Kollias, Ngo, Ré, Rudra; arXiv:1503.04169, 2015): the first practical
// implementation and empirical evaluation of worst-case-optimal (Leapfrog
// Triejoin) and beyond-worst-case (Minesweeper / #Minesweeper) join
// algorithms on graph-pattern workloads.
//
// # Prepare once, execute repeatedly
//
// The API follows the lifecycle the paper assumes of its host system
// (LogicBlox): a query is compiled once against a fixed physical design —
// validated, its global attribute order (GAO) fixed, every atom bound to a
// GAO-consistent index (§4.1) — and the compiled plan is then executed
// repeatedly:
//
//	g := repro.GenerateGraph(repro.BarabasiAlbert, 10_000, 50_000, 1)
//	p, err := g.Prepare(repro.Triangles(), repro.Options{Algorithm: "lftj"})
//	n, err := p.Count(ctx)            // pure execution, no re-planning
//	for row := range p.Rows(ctx) {    // streaming iterator; break stops early
//		...
//	}
//	fmt.Print(p.Explain())            // GAO, per-atom index, AGM bound
//	st := p.Stats()                   // unified counters across executions
//
// A Prepared handle is safe for concurrent use and pins the physical design
// it was compiled against; compiled plans are also cached on the store
// (keyed on query shape × algorithm × GAO, invalidated when a
// relation they read is replaced), so re-preparing an unchanged shape is
// cheap. Store.Count and Store.Enumerate are one-shot conveniences over
// Prepare; to read execution counters, prepare a handle and call Stats.
//
// # General schemas: Store
//
// Graph is a Store holding the paper's fixed §5.1 benchmark schema (edge,
// fwd, v1..v4). Store is the general layer — the same generalization step
// from fixed benchmark patterns to arbitrary graph-pattern workloads: the
// caller defines named relations of any arity, bulk-loads and
// incrementally mutates them, and queries them with schema-checked parsing
// over that schema. Directed graphs, edge-labeled
// graphs (one relation per label, or a ternary relation with the label as
// a column), and arbitrary n-ary relations are all ordinary schemas:
//
//	s := repro.NewStore()
//	err := s.DefineRelation("follows", 2)
//	err = s.Load("follows", tuples)          // bulk load (replaces)
//	err = s.Apply("follows", ins, dels)      // incremental; plans stay valid
//	q, err := s.ParseQuery("fof", "follows(a, b), follows(b, c)")
//	p, err := s.Prepare(q, repro.Options{})
//
// ParseQuery accepts an optional rule head — "out(b, a) :- e(a, b)" — that
// names the query and fixes the output variable order; unknown relations,
// arity mismatches, and unbound head variables fail eagerly with typed
// errors. Graph embeds *Store, so every Store method works on a Graph;
// its own methods only build the benchmark schema and write edges and
// samples in ways that keep that schema's invariants.
//
// Store.ReadTxn returns a snapshot read-transaction: every execution
// through it observes the single index state pinned when the transaction
// began, regardless of concurrent Apply batches — several counts and row
// streams that must agree with each other run inside one transaction.
// Store.Batch executes many prepared queries concurrently against one
// shared snapshot under a worker budget (the serving regime: prepare once,
// batch the point lookups). Store.ApplyAll applies update batches to
// several relations as one atomic write — no snapshot ever observes the
// relations torn.
//
// # Local and remote deployment
//
// The Querier interface is the deployment seam: it covers the Store
// surface (schema operations, ParseQuery, Prepare, ReadTxn, Batch) with
// implementation-neutral handle types (PreparedQuery, QueryTxn), and has
// two constructors — repro.Local(store) for in-process use, and
// client.Dial (package repro/client) for a connection to a graphjoind
// server (package repro/server; cmd/graphjoind). Queries then execute
// server-side against shared indexes, with streaming flow-controlled Rows,
// remote snapshot transactions, and typed errors that survive the wire for
// errors.Is. Remote execution is differential-tested to produce
// byte-identical results to local execution.
//
// # Durability
//
// NewStore is in-memory; OpenStore roots a store in a directory and makes
// acknowledged writes crash-safe. Every mutation is appended to a
// write-ahead log and fsynced per DurabilityOptions.Sync before it
// returns — "group" (the default) shares fsyncs among concurrent writers
// through a group-commit leader, "always" syncs each commit, and "none"
// trades durability of the most recent writes for in-memory-like write
// latency (recovery is still never corrupted). Store.Checkpoint snapshots
// the relations and prunes the log; Store.Close ends persistence. On open,
// recovery loads the newest valid snapshot and replays the log tail
// through the same delta path live writes take, reporting what it found
// (and any dropped torn tail from an unclean shutdown) via RecoveryInfo.
//
// Deployment notes: give each store its own directory on a local
// filesystem (graphjoind -data-dir does this per tenant, with a
// -checkpoint-every background ticker and a final checkpoint on drain, so
// clean restarts replay nothing); checkpoint roughly as often as the
// replay time you can afford at startup; and treat RecoveryInfo.TailErr
// as an operational signal — the store is consistent, but the previous
// process died uncleanly.
//
// # Storage and the CSR index
//
// Relations are immutable, lexicographically sorted tuple sets over int64
// domains (internal/relation). LFTJ and Minesweeper bind every atom of a
// compiled query to one GAO-consistent index — the relation with its
// columns permuted into global attribute order (§4.1) — materialized as a
// CSR attribute trie (one contiguous key array per level plus
// child-offset arrays, the TrieJax/EmptyHeaded layout): cursor Open/Next
// are O(1) array arithmetic, SeekGE gallops over a dense cache-resident
// array, and gap probes run one bounded binary search per level. The trie
// is built once per index at Prepare time for up to ~1.5·arity·n extra
// keys of memory, and maintained incrementally: update batches
// (Store.Apply, the incremental views) fold into a small sorted delta
// overlay — an adds log plus delete tombstones merged at cursor level and
// compacted past a threshold — so an update costs time proportional to
// the small log, not an O(arity·n) trie rebuild, and compiled plans stay
// valid across updates. The §4.10 parallel job cut points are read off
// level 0 of the bound trie itself. Generic join, whose Algorithm 1
// narrows explicit row spans, binds the sorted rows instead.
//
// The references the CSR index is tested against are the brute-force
// oracle internal/naive (query results, backend_diff_test.go) and the
// binary-search cursor and gap probe over the sorted rows
// (relation.TrieIterator and Relation.ProbeGap, cursor contract).
// BenchmarkBackend and BenchmarkBackendParallel in bench_test.go track the
// join hot path.
//
// # Engines
//
//   - "lftj" — Leapfrog Triejoin, worst-case optimal (paper §2.2);
//   - "ms" — Minesweeper with the constraint data structure and all of the
//     paper's Ideas 1–8 (paper §2.3, §4), beyond-worst-case optimal for
//     β-acyclic queries;
//   - "hybrid" — Minesweeper on the acyclic part + LFTJ on the clique part
//     for lollipop queries (paper §4.12);
//   - "psql" / "monetdb" — Selinger-style pairwise baselines (row-store DP
//     optimizer / column-store greedy bulk execution);
//   - "yannakakis" — the classical linear-time algorithm for acyclic joins;
//   - "graphlab" — a specialized parallel clique counter;
//   - "genericjoin" — the paper's Algorithm 1, an implementation ablation.
//
// The lftj, ms, and genericjoin engines execute pinned compiled plans; the
// remaining engines re-derive their internal state per run but share the
// same Prepared interface and unified stats surface.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// regenerated tables and figures.
package repro
