// Command perfbench is the repository's benchmark. It generates its inputs
// from a seed, drives one of three closed-loop workloads through the public
// surfaces — repro.Store in process (analytic), server.Server over loopback
// TCP through client (serve), and a router.Router over three shard servers
// (routed) — checks every answer, and prints its metrics.
//
//	perfbench -workload serve -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs the
// workload once untraced and once with timing wrappers installed, reports
// the per-layer metrics and writes the span dump. The last line of standard
// output is the result object; the line before it is a fuller report. Both
// are also written, with the spans, under .bench_build/perfbench/.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/relation"
)

// setupRepeats is how many times an untraced run sets its deployment up;
// setup_s is the median.
const setupRepeats = 5

// runEnv is one invocation's settings.
type runEnv struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // output and WAL directory inside the checkout
}

// outcome is what a run reports.
type outcome struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
	report            map[string]any
}

func main() {
	env := &runEnv{}
	root := flag.String("root", ".", "checkout root; output goes under .bench_build/perfbench")
	flag.StringVar(&env.workload, "workload", "", "analytic, serve or routed")
	flag.Int64Var(&env.seed, "seed", 1, "input seed")
	flag.Float64Var(&env.seconds, "seconds", 20, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	flag.Parse()
	env.trace = *traceFlag == 1
	env.work = filepath.Join(*root, ".bench_build", "perfbench")
	if err := os.MkdirAll(env.work, 0o755); err != nil {
		fatal(err)
	}
	steal0, total0 := cpuTicks()
	var out *outcome
	var err error
	switch env.workload {
	case "analytic":
		out, err = runAnalytic(env)
	case "serve", "routed":
		out, err = runServe(env)
	default:
		fatal(fmt.Errorf("unknown -workload %q (want analytic, serve or routed)", env.workload))
	}
	var wrong *wrongAnswer
	if errors.As(err, &wrong) {
		out = &outcome{correct: false, attempted: 1, failed: 1, metrics: map[string]float64{},
			report: map[string]any{"error": err.Error()}}
	} else if err != nil {
		fatal(err)
	}
	out.report["stamp"] = stamp(env)
	if steal1, total1 := cpuTicks(); total1 > total0 {
		// Share of the machine's CPU time the hypervisor gave to other
		// guests during the run: high values explain slow, noisy runs.
		out.report["cpu_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	emit(env, out)
	if !out.correct {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", out.report["error"])
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

// emit prints the report line and the result line, and saves both.
func emit(env *runEnv, out *outcome) {
	defs := endToEnd
	if env.trace {
		defs = perLayer
	}
	ms := make(map[string]any, len(defs))
	for _, d := range defs {
		if v, ok := out.metrics[d.name]; ok {
			ms[d.name] = map[string]any{"value": v, "unit": d.unit}
		}
	}
	result, _ := json.Marshal(map[string]any{"correct": out.correct, "attempted": out.attempted,
		"failed": out.failed, "metrics": ms})
	report, _ := json.Marshal(map[string]any{"report": out.report})
	fmt.Println(string(report))
	fmt.Println(string(result))
	name := fmt.Sprintf("%s-seed%d-trace%d.json", env.workload, env.seed, map[bool]int{false: 0, true: 1}[env.trace])
	os.WriteFile(filepath.Join(env.work, name), append(append(report, '\n'), append(result, '\n')...), 0o644)
}

// stamp describes the machine and the run's settings.
func stamp(env *runEnv) map[string]any {
	s := map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"seed":       env.seed,
		"seconds":    env.seconds,
		"workload":   env.workload,
		"traced":     env.trace,
	}
	switch env.workload {
	case "analytic":
		in := genAnalytic(env.seed)
		s["graph"] = map[string]any{"model": "holme-kim", "nodes": analyticNodes,
			"edge_target": analyticEdgeTarget, "edges": len(in.g.edges), "triad_p": analyticTriadP,
			"v1": len(in.v1), "v2": len(in.v2)}
		s["clients"] = 1
		s["workers"] = analyticWorkers
	default:
		s["graph"] = map[string]any{"model": "barabasi-albert", "nodes": serveNodes,
			"edge_target": serveEdgeTarget, "edges": len(genServe(env.seed).edges), "zipf_s": serveZipfS}
		s["clients"] = serveClients
		s["wal_fs"] = fsType(env.work)
		s["sync"] = "group"
		s["group_window"] = "0s"
		s["checkpoint_bytes"] = walCheckpointBytes
		if env.workload == "routed" {
			s["shards"] = shardCount
			s["partitioner"] = "hash"
		}
	}
	return s
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks returns the steal and total ticks of the machine's CPU line in
// /proc/stat (zeros where it cannot be read).
func cpuTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// ---- statistics ----

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// quantile is the nearest-rank quantile of sorted durations, in ms.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	i = max(0, min(i, len(ds)-1))
	return ms(ds[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencyReport adds each op type's median and its highest percentile with
// at least ten samples beyond it, with the sample count, to rep; it returns
// the medians.
func latencyReport(rep map[string]any, ops []opResult, types []string) []float64 {
	var p50s []float64
	for _, typ := range types {
		ds := sortedDurations(ops, typ)
		p50 := quantile(ds, 0.5)
		p50s = append(p50s, p50)
		rep[typ+".p50_ms"] = p50
		rep[typ+".n"] = len(ds)
		for _, p := range []struct {
			name string
			q    float64
		}{{"p999", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
			if float64(len(ds))*(1-p.q) >= 10 {
				rep[typ+"."+p.name+"_ms"] = quantile(ds, p.q)
				break
			}
		}
	}
	return p50s
}

// summary fills the end-to-end metrics common to every workload. cpu is
// the process CPU time over the measured window: clients, servers and
// engines all run in this process.
func summary(m map[string]float64, p50s []float64, ops int, elapsed, cpu time.Duration) {
	m["ops_s"] = float64(ops) / elapsed.Seconds()
	m["cpu_ms_per_op"] = ms(cpu) / float64(ops)
	logSum, hi, lo := 0.0, 0.0, math.Inf(1)
	for _, v := range p50s {
		logSum += math.Log(v)
		hi = max(hi, v)
		lo = min(lo, v)
	}
	m["op_p50_ms.gmean"] = math.Exp(logSum / float64(len(p50s)))
	m["op_p50_ms.max"] = hi
	m["op_p50_ms.min"] = lo
}

// cpuTime is the CPU time this process has used, user and system. Time the
// hypervisor gives to other guests is not charged to it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapMiB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapInuse) / (1 << 20)
}

// ---- analytic ----

func runAnalytic(env *runEnv) (*outcome, error) {
	ref := refAnalytic(genAnalytic(env.seed))
	out := &outcome{correct: true, metrics: map[string]float64{}, report: map[string]any{}}
	out.report["reference"] = ref
	d := time.Duration(env.seconds * float64(time.Second))
	if !env.trace {
		var setups []float64
		var a *analyticRun
		for i := 0; i < setupRepeats; i++ {
			a = nil // let the previous set-up be collected
			runtime.GC()
			start := time.Now()
			var err error
			if a, err = setupAnalytic(env.seed); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		out.metrics["setup_s"] = median(setups)
		out.report["setup_s.all"] = setups
		out.metrics["heap_mb"] = heapMiB()
		cpu0 := cpuTime()
		ops, elapsed, err := a.measure(d, ref, false)
		cpu := cpuTime() - cpu0
		out.attempted = int64(len(ops))
		if err != nil {
			return out, err
		}
		summary(out.metrics, latencyReport(out.report, ops, opNames()), len(ops), elapsed, cpu)
		out.report["fail_ratio"] = 0.0
		return out, nil
	}

	// Traced: the same workload untraced for half the time, then traced.
	a, err := setupAnalytic(env.seed)
	if err != nil {
		return nil, err
	}
	plain, plainElapsed, err := a.measure(d/2, ref, false)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	a, err = setupAnalytic(env.seed)
	if err != nil {
		return nil, err
	}
	compactions := relation.OverlayCompactions()
	ops, elapsed, err := a.measure(d/2, ref, true)
	out.attempted = int64(len(plain) + len(ops))
	if err != nil {
		return out, err
	}
	m := zeroLayers()
	perType := map[string][]opResult{}
	for _, r := range ops {
		perType[r.typ] = append(perType[r.typ], r)
		rec.add(span{Op: r.op, Layer: layerOp, Name: r.typ, Start: r.start, End: r.end})
	}
	for typ, rs := range perType {
		var seeks, execMs []float64
		var lftjSeeks, outputs, memo, msProbes, constraints, steps float64
		for _, r := range rs {
			// Index seeks of either engine: LFTJ's trie seeks, Minesweeper's
			// gap probes.
			seeks = append(seeks, float64(r.stats.Seeks+r.stats.Probes))
			execMs = append(execMs, ms(r.dur()))
			outputs += float64(r.stats.Outputs)
			lftjSeeks += float64(r.stats.Seeks)
			memo += float64(r.stats.ProbeMemoHits)
			msProbes += float64(r.stats.Probes)
			constraints += float64(r.stats.Constraints)
			steps += float64(r.stats.FreeTupleSteps)
		}
		m["core.seeks_per_op."+typ] = mean(seeks)
		n := float64(len(rs))
		switch typ {
		case "path3":
			m["minesweeper.exec_ms.path3"] = median(execMs)
			m["minesweeper.constraints_per_op.path3"] = constraints / n
			m["minesweeper.free_tuple_steps_per_op.path3"] = steps / n
			if memo+msProbes > 0 {
				m["minesweeper.probe_memo_hit_ratio.path3"] = memo / (memo + msProbes)
			}
		default:
			m["lftj.exec_ms."+typ] = median(execMs)
			if typ == "proj2" && outputs > 0 {
				// LFTJ's index probes are its trie seeks.
				m["lftj.probes_per_output.proj2"] = lftjSeeks / outputs
			}
		}
	}
	var hits, misses float64
	for _, p := range a.prepared {
		st := p.Stats()
		hits += float64(st.PlanCacheHits)
		misses += float64(st.PlanCacheMisses)
	}
	if hits+misses > 0 {
		m["core.plan_cache_hit_ratio"] = hits / (hits + misses)
	}
	m["core.overlay_depth"] = float64(a.store.OverlayDepth())
	m["core.overlay_compactions"] = float64(relation.OverlayCompactions() - compactions)
	m["repro.load_s"] = a.loadTime.Seconds()
	m["trace.overhead_ratio"] = (float64(len(ops)) / elapsed.Seconds()) /
		(float64(len(plain)) / plainElapsed.Seconds())
	out.metrics = m
	return out, writeSpans(env, rec)
}

func opNames() []string {
	var names []string
	for _, op := range analyticOps {
		names = append(names, op.name)
	}
	return names
}

func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

func writeSpans(env *runEnv, rec *recorder) error {
	return rec.tree().dump(filepath.Join(env.work, fmt.Sprintf("spans-%s-seed%d.json", env.workload, env.seed)))
}

// ---- serve and routed ----

// registry snapshots the process metrics registry.
func registry() ([]metrics.Sample, error) {
	var buf bytes.Buffer
	if err := metrics.Default().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return metrics.ParseText(&buf)
}

func delta(before, after []metrics.Sample, name string, kv ...string) float64 {
	return metrics.SumSamples(after, name, kv...) - metrics.SumSamples(before, name, kv...)
}

// served is one measured serve/routed instance.
type served struct {
	cl            *cluster
	heapMiB       float64 // after set-up and a GC
	start         time.Time
	ops           []opResult
	elapsed, cpu  time.Duration
	before, after []metrics.Sample
	failed        int64
}

// runInstance sets a deployment up (timed), measures it for d, checks its
// answers and its request ledger, and tears it down.
func runInstance(env *runEnv, inst int, rec *recorder, d time.Duration, keep func(*served) error) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	g := genServe(env.seed)
	cl, err := setupCluster(env, inst, rec, g)
	setup := time.Since(start)
	defer cl.teardown()
	if err != nil {
		return 0, err
	}
	if keep == nil {
		return setup, nil
	}
	for _, sc := range cl.clients {
		sc.ledger, sc.rejected = 0, 0
		sc.keepRows = rec != nil
	}
	s := &served{cl: cl, heapMiB: heapMiB()}
	if s.before, err = registry(); err != nil {
		return 0, err
	}
	s.start = time.Now()
	cpu0 := cpuTime()
	s.ops, s.elapsed = cl.measure(d)
	s.cpu = cpuTime() - cpu0
	if s.after, err = registry(); err != nil {
		return 0, err
	}
	for _, r := range s.ops {
		if r.err != nil {
			s.failed++
			if !errors.Is(r.err, errOverloaded) {
				return 0, fmt.Errorf("%s: %w", r.typ, r.err)
			}
		}
	}
	if err := keep(s); err != nil {
		return 0, err
	}
	if err := cl.check(env, g.n); err != nil {
		return 0, &wrongAnswer{err.Error()}
	}
	final, err := registry()
	if err != nil {
		return 0, err
	}
	admitted, rejected := cl.ledger()
	server := delta(s.before, final, "graphjoind_requests_total", "store", cl.frontName)
	if int64(server) != admitted || int64(delta(s.before, final, "graphjoind_rejected_total", "store", cl.frontName)) != rejected {
		return 0, &wrongAnswer{fmt.Sprintf("ledger mismatch: server requests_total advanced by %v, client ledger says %d", server, admitted)}
	}
	return setup, nil
}

func runServe(env *runEnv) (*outcome, error) {
	out := &outcome{correct: true, metrics: map[string]float64{}, report: map[string]any{}}
	d := time.Duration(env.seconds * float64(time.Second))
	if !env.trace {
		var setups []float64
		for i := 0; i < setupRepeats; i++ {
			var keep func(*served) error
			if i == setupRepeats-1 {
				keep = func(s *served) error {
					out.metrics["heap_mb"] = s.heapMiB
					summariseServe(out, s)
					return nil
				}
			}
			setup, err := runInstance(env, i, nil, d, keep)
			if err != nil {
				return out, err
			}
			setups = append(setups, setup.Seconds())
		}
		out.metrics["setup_s"] = median(setups)
		out.report["setup_s.all"] = setups
		return out, nil
	}
	var plainOps float64
	if _, err := runInstance(env, 0, nil, d/2, func(s *served) error {
		plainOps = float64(len(s.ops)) / s.elapsed.Seconds()
		out.attempted += int64(len(s.ops))
		return nil
	}); err != nil {
		return out, err
	}
	rec := newRecorder()
	_, err := runInstance(env, 1, rec, d/2, func(s *served) error {
		out.attempted += int64(len(s.ops))
		out.failed += s.failed
		out.metrics = serveLayers(s, rec)
		out.metrics["trace.overhead_ratio"] = (float64(len(s.ops)) / s.elapsed.Seconds()) / plainOps
		out.report["trace.unattributed_spans"] = rec.tree().unattributed(s.start)
		return nil
	})
	if err != nil {
		return out, err
	}
	return out, writeSpans(env, rec)
}

// summariseServe fills the end-to-end metrics of a serve/routed instance.
func summariseServe(out *outcome, s *served) {
	out.attempted = int64(len(s.ops))
	out.failed = s.failed
	ok := len(s.ops) - int(s.failed)
	summary(out.metrics, latencyReport(out.report, s.ops, serveOps), ok, s.elapsed, s.cpu)
	out.report["fail_ratio"] = float64(s.failed) / float64(len(s.ops))
	out.report["ops_s.windows"] = windowRates(s.ops, 5*time.Second)
	ckpts := 0.0
	for _, name := range s.cl.storeName {
		ckpts += delta(s.before, s.after, "graphjoind_checkpoint_seconds_count", "store", name)
	}
	out.report["checkpoints"] = ckpts
}

// windowRates is the completed-op rate in each successive window of the
// run, showing how steady throughput was within it.
func windowRates(ops []opResult, w time.Duration) []float64 {
	if len(ops) == 0 {
		return nil
	}
	start := ops[0].start
	for _, r := range ops {
		if r.start.Before(start) {
			start = r.start
		}
	}
	var counts []float64
	for _, r := range ops {
		i := int(r.end.Sub(start) / w)
		for len(counts) <= i {
			counts = append(counts, 0)
		}
		counts[i]++
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return counts
}
