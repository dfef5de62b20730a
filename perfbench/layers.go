package main

import (
	"time"

	"repro/internal/codec"
)

// codecSampleRows caps the rows kept from a traced serve run for timing the
// wire codec.
const codecSampleRows = 200_000

// serveLayers computes the per-layer metrics of a traced serve or routed
// instance from its spans, its ops and the registry deltas over the
// measured window.
func serveLayers(s *served, rec *recorder) map[string]float64 {
	m := zeroLayers()
	t := rec.tree()
	cl := s.cl
	typeOf := make(map[int64]string, len(s.ops))
	byType := map[string][]opResult{}
	for _, r := range s.ops {
		typeOf[r.op] = r.typ
		byType[r.typ] = append(byType[r.typ], r)
	}

	// Client side: round trips, bytes, and the server's self time (the op
	// span minus the front Querier spans under it).
	var rowBytes, rows float64
	for typ, rs := range byType {
		var trips, bytes []float64
		for _, r := range rs {
			trips = append(trips, float64(r.requests))
			bytes = append(bytes, float64(r.bytes))
			if typ == "rows" {
				rowBytes += float64(r.bytes)
				rows += float64(r.rows)
			}
		}
		m["server.round_trips_per_op."+typ] = mean(trips)
		m["wire.bytes_per_op."+typ] = mean(bytes)
	}
	if rows > 0 {
		m["wire.bytes_per_row"] = rowBytes / rows
	}

	selfUs := map[string][]float64{}
	legUs := map[string][]float64{}
	mergeUs := map[string][]float64{}
	frontUs := map[string][]float64{}
	seeks := map[int64]float64{}
	var hits, misses float64
	for i, sp := range t.spans {
		typ, measured := typeOf[sp.Op]
		if !measured {
			continue
		}
		switch sp.Layer {
		case layerOp:
			selfUs[typ] = append(selfUs[typ], us(t.self(i)))
			if cl.routed {
				legUs[typ] = append(legUs[typ], us(t.layerCover(sp.Op, layerLeg)))
			}
		case layerFront:
			name := sp.Name
			switch sp.Name {
			case "exec":
				name = "exec." + typ
				seeks[sp.Op] += float64(sp.Seeks)
				if cl.routed {
					var longest time.Duration
					for _, c := range t.children[i] {
						longest = max(longest, t.spans[c].dur())
					}
					mergeUs[typ] = append(mergeUs[typ], us(sp.dur()-longest))
				}
			case "prepare":
				hits += float64(sp.Hits)
				misses += float64(sp.Misses)
			}
			frontUs[name] = append(frontUs[name], us(sp.dur()))
		}
	}
	for _, typ := range serveOps {
		m["server.self_us."+typ] = median(selfUs[typ])
		if cl.routed {
			m["router.leg_us."+typ] = median(legUs[typ])
		}
		if typ == "apply" {
			continue
		}
		m["repro.exec_us."+typ] = median(frontUs["exec."+typ])
		if cl.routed {
			m["router.merge_self_us."+typ] = median(mergeUs[typ])
		} else {
			var per []float64
			for _, r := range byType[typ] {
				per = append(per, seeks[r.op])
			}
			m["core.seeks_per_op."+typ] = mean(per)
		}
	}
	m["repro.parse_us"] = median(frontUs["parse"])
	m["repro.prepare_us"] = median(frontUs["prepare"])
	m["repro.apply_us"] = median(frontUs["apply"])
	if hits+misses > 0 && !cl.routed {
		m["core.plan_cache_hit_ratio"] = hits / (hits + misses)
	}
	var load time.Duration
	for _, sp := range t.spans {
		if sp.Layer == layerFront && sp.Name == "load" {
			load += sp.dur()
		}
	}
	m["repro.load_s"] = load.Seconds()

	// Registry deltas over the measured window.
	d := func(name string, kv ...string) float64 { return delta(s.before, s.after, name, kv...) }
	m["core.overlay_depth"] = float64(cl.overlayDepth())
	m["core.overlay_compactions"] = d("graphjoind_overlay_compactions_total")
	var fsyncs, fsyncSum, groups, records, ckpts, ckptSum float64
	for _, name := range cl.storeName {
		fsyncs += d("graphjoind_wal_fsync_seconds_count", "store", name)
		fsyncSum += d("graphjoind_wal_fsync_seconds_sum", "store", name)
		groups += d("graphjoind_wal_group_commit_records_count", "store", name)
		records += d("graphjoind_wal_group_commit_records_sum", "store", name)
		ckpts += d("graphjoind_checkpoint_seconds_count", "store", name)
		ckptSum += d("graphjoind_checkpoint_seconds_sum", "store", name)
	}
	if applies := float64(len(byType["apply"])); applies > 0 {
		m["durable.fsyncs_per_apply"] = fsyncs / applies
	}
	if fsyncs > 0 {
		m["durable.fsync_ms"] = 1000 * fsyncSum / fsyncs
	}
	if groups > 0 {
		m["durable.records_per_fsync"] = records / groups
	}
	m["durable.checkpoints"] = ckpts
	if ckpts > 0 {
		m["durable.checkpoint_ms"] = 1000 * ckptSum / ckpts
	}
	m["server.credit_stall_ms"] = 1000 * d("graphjoind_rows_credit_stall_seconds_total", "store", cl.frontName)
	m["server.rejected"] = d("graphjoind_rejected_total", "store", cl.frontName)
	if cl.routed {
		if n := d("graphjoinrouter_fanout_width_count"); n > 0 {
			m["router.fanout_width"] = d("graphjoinrouter_fanout_width_sum") / n
		}
		if n := d("graphjoinrouter_straggler_gap_seconds_count"); n > 0 {
			m["router.straggler_ms"] = 1000 * d("graphjoinrouter_straggler_gap_seconds_sum") / n
		}
		m["router.retries"] = d("graphjoinrouter_retries_total")
		var hostReqs float64
		for _, name := range cl.storeName {
			hostReqs += d("graphjoind_requests_total", "store", name)
		}
		m["router.host_round_trips_per_op"] = hostReqs / float64(len(s.ops))
	}

	var sample [][]int64
	for _, sc := range cl.clients {
		sample = append(sample, sc.rowSample...)
	}
	m["codec.encode_ns_per_row"], m["codec.decode_ns_per_row"] = codecCost(sample)
	return m
}

// codecCost times the wire codec's tuple encoder and decoder over rows the
// run received, in chunks the size the server streams, and returns the
// median ns per row of each over several passes.
func codecCost(rows [][]int64) (encNs, decNs float64) {
	if len(rows) == 0 {
		return 0, 0
	}
	const chunk = 256
	var encs, decs []float64
	for pass := 0; pass < 5; pass++ {
		var frames [][]byte
		start := time.Now()
		for i := 0; i < len(rows); i += chunk {
			var e codec.Enc
			e.Tuples(rows[i:min(i+chunk, len(rows))])
			frames = append(frames, e.Bytes())
		}
		encs = append(encs, float64(time.Since(start).Nanoseconds())/float64(len(rows)))
		start = time.Now()
		for _, f := range frames {
			codec.NewDec(f).Tuples()
		}
		decs = append(decs, float64(time.Since(start).Nanoseconds())/float64(len(rows)))
	}
	return median(encs), median(decs)
}
