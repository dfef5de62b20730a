package main

// The metric catalogue: every metric the benchmark reports, with its unit,
// which direction is better, and — for per-layer metrics — the end-to-end
// figure it should move and the workloads it is measured on. BENCHMARK.json
// lists the same names (catalog_test.go keeps the two in step).

type metricDef struct {
	name, unit, better string
	moves              string // per-layer only: the end-to-end figure it should move
	on                 string // per-layer only: workloads where the layer does work
}

// endToEnd is reported by every workload from the untraced run. Per-op
// latencies are summarised over the workload's own op types, so the same
// names apply to analytic (tri, clique4, path3, proj2) and to serve and
// routed (hop2, rows, agg, apply); each op type's own median and tail are in
// the report line.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "heap_mb", unit: "MiB", better: "lower"},
	{name: "ops_s", unit: "ops/s", better: "higher"},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "op_p50_ms.gmean", unit: "ms", better: "lower"},
	{name: "op_p50_ms.max", unit: "ms", better: "lower"},
	{name: "op_p50_ms.min", unit: "ms", better: "lower"},
}

// perLayer is reported by every workload from the traced run. A layer a
// workload does not exercise reports 0 there.
var perLayer = []metricDef{
	{"core.seeks_per_op.tri", "count", "lower", "tri.p50_ms", "analytic"},
	{"core.seeks_per_op.clique4", "count", "lower", "clique4.p50_ms", "analytic"},
	{"core.seeks_per_op.path3", "count", "lower", "path3.p50_ms", "analytic"},
	{"core.seeks_per_op.proj2", "count", "lower", "proj2.p50_ms", "analytic"},
	{"core.seeks_per_op.hop2", "count", "lower", "hop2.p50_ms", "serve"},
	{"core.seeks_per_op.rows", "count", "lower", "rows.p50_ms", "serve"},
	{"core.seeks_per_op.agg", "count", "lower", "agg.p50_ms", "serve"},
	{"core.plan_cache_hit_ratio", "ratio", "higher", "hop2/rows/agg.p50_ms", "serve; analytic is the bypass"},
	{"core.overlay_depth", "count", "lower", "hop2.p99_ms, apply.p99_ms", "serve, routed"},
	{"core.overlay_compactions", "count", "lower", "hop2.p99_ms, apply.p99_ms", "serve, routed"},
	{"lftj.exec_ms.tri", "ms", "lower", "tri.p50_ms", "analytic"},
	{"lftj.exec_ms.clique4", "ms", "lower", "clique4.p50_ms", "analytic"},
	{"lftj.exec_ms.proj2", "ms", "lower", "proj2.p50_ms", "analytic"},
	{"lftj.probes_per_output.proj2", "count", "lower", "proj2.p50_ms", "analytic; tri is the bypass"},
	{"minesweeper.exec_ms.path3", "ms", "lower", "path3.p50_ms", "analytic"},
	{"minesweeper.constraints_per_op.path3", "count", "lower", "path3.p50_ms", "analytic"},
	{"minesweeper.free_tuple_steps_per_op.path3", "count", "lower", "path3.p50_ms", "analytic"},
	{"minesweeper.probe_memo_hit_ratio.path3", "ratio", "higher", "path3.p50_ms", "analytic"},
	{"repro.load_s", "s", "lower", "setup_s", "all"},
	{"repro.parse_us", "us", "lower", "hop2/rows/agg.p50_ms", "serve, routed"},
	{"repro.prepare_us", "us", "lower", "hop2/rows/agg.p50_ms", "serve, routed"},
	{"repro.exec_us.hop2", "us", "lower", "hop2.p50_ms", "serve, routed"},
	{"repro.exec_us.rows", "us", "lower", "rows.p50_ms", "serve, routed"},
	{"repro.exec_us.agg", "us", "lower", "agg.p50_ms", "serve, routed"},
	{"repro.apply_us", "us", "lower", "apply.p50_ms", "serve, routed"},
	{"durable.fsyncs_per_apply", "count", "lower", "apply.p50_ms, apply.p99_ms", "serve, routed"},
	{"durable.fsync_ms", "ms", "lower", "apply.p50_ms, apply.p99_ms", "serve, routed"},
	{"durable.records_per_fsync", "count", "higher", "apply.p50_ms, apply.p99_ms", "serve, routed"},
	{"durable.checkpoints", "count", "lower", "apply.p99_ms, hop2.p99_ms", "serve, routed"},
	{"durable.checkpoint_ms", "ms", "lower", "apply.p99_ms, hop2.p99_ms", "serve, routed"},
	{"wire.bytes_per_op.hop2", "bytes", "lower", "hop2.p50_ms", "serve, routed"},
	{"wire.bytes_per_op.rows", "bytes", "lower", "rows.p50_ms", "serve, routed"},
	{"wire.bytes_per_op.agg", "bytes", "lower", "agg.p50_ms", "serve, routed"},
	{"wire.bytes_per_op.apply", "bytes", "lower", "apply.p50_ms", "serve, routed"},
	{"wire.bytes_per_row", "bytes", "lower", "rows.p50_ms", "serve, routed"},
	{"codec.encode_ns_per_row", "ns", "lower", "rows.p50_ms", "serve, routed"},
	{"codec.decode_ns_per_row", "ns", "lower", "rows.p50_ms", "serve, routed"},
	{"server.self_us.hop2", "us", "lower", "hop2.p50_ms", "serve, routed"},
	{"server.self_us.rows", "us", "lower", "rows.p50_ms", "serve, routed"},
	{"server.self_us.agg", "us", "lower", "agg.p50_ms", "serve, routed"},
	{"server.self_us.apply", "us", "lower", "apply.p50_ms", "serve, routed"},
	{"server.round_trips_per_op.hop2", "count", "lower", "hop2.p50_ms", "serve, routed"},
	{"server.round_trips_per_op.rows", "count", "lower", "rows.p50_ms", "serve, routed"},
	{"server.round_trips_per_op.agg", "count", "lower", "agg.p50_ms", "serve, routed"},
	{"server.round_trips_per_op.apply", "count", "lower", "apply.p50_ms", "serve, routed"},
	{"server.credit_stall_ms", "ms", "lower", "rows.p99_ms", "serve, routed"},
	{"server.rejected", "count", "lower", "fail_ratio", "serve, routed"},
	{"router.leg_us.hop2", "us", "lower", "hop2.p50_ms", "routed; serve is the bypass"},
	{"router.leg_us.rows", "us", "lower", "rows.p50_ms", "routed; serve is the bypass"},
	{"router.leg_us.agg", "us", "lower", "agg.p50_ms", "routed; serve is the bypass"},
	{"router.leg_us.apply", "us", "lower", "apply.p50_ms", "routed; serve is the bypass"},
	{"router.merge_self_us.hop2", "us", "lower", "hop2.p50_ms", "routed"},
	{"router.merge_self_us.rows", "us", "lower", "rows.p50_ms", "routed"},
	{"router.merge_self_us.agg", "us", "lower", "agg.p50_ms", "routed"},
	{"router.fanout_width", "count", "lower", "op p99_ms", "routed"},
	{"router.straggler_ms", "ms", "lower", "op p99_ms", "routed"},
	{"router.retries", "count", "lower", "fail_ratio", "routed"},
	{"router.host_round_trips_per_op", "count", "lower", "op p50_ms", "routed"},
	{"trace.overhead_ratio", "ratio", "higher", "-", "all"},
}
