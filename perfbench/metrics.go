package main

// metricDef is one metric the benchmark reports: its unit, and whether it
// belongs to the timed run (end to end) or the traced run (per layer).
type metricDef struct {
	Name     string
	Unit     string
	EndToEnd bool
	// Better is the direction of improvement, "lower" or "higher".
	Better string
	// Bound, for end-to-end metrics, is the share of the parent's median by
	// which the metric may worsen before a change counts as a regression.
	Bound float64
	// On, for per-layer metrics, names the workloads whose layers the
	// metric measures; nil means every workload. A traced run must measure
	// every metric on its workload, and reports the others as 0.
	On []string
}

// appliesTo reports whether workload w must measure m.
func (m metricDef) appliesTo(w string) bool {
	if m.On == nil {
		return true
	}
	for _, x := range m.On {
		if x == w {
			return true
		}
	}
	return false
}

// solveCases names the paper cases of the solve workload, in batch order.
var solveCases = []string{"t1c1_exact", "t1c1_k20", "t3c2_k40", "t4c1_k40_k1500"}

// traceLayers are the layers whose self time the traced run reports: the
// ones a request's or a batch's span tree passes through.
var traceLayers = []string{"loadgen", "client", "server", "optimizer", "cluster"}

// Workload sets a per-layer metric applies to.
var (
	onAll     []string
	onSolve   = []string{"solve"}
	onServed  = []string{"serve-edit", "ring-hit"}
	onEdit    = []string{"serve-edit"}
	onRing    = []string{"ring-hit"}
	onCompute = []string{"solve", "serve-edit"}
)

// traceLayerOn is where each traced layer's spans occur.
var traceLayerOn = map[string][]string{
	"loadgen": onAll, "client": onServed, "server": onServed, "optimizer": onCompute, "cluster": onRing,
}

func e2e(name, unit, better string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, EndToEnd: true, Better: better, Bound: bound}
}

func layer(name, unit string, on []string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "lower", On: on}
}

// layerUp is a per-layer metric where more is better: a share of useful
// outcomes, or the paper's savings ratios.
func layerUp(name, unit string, on []string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "higher", On: on}
}

// catalogue lists every metric, in the order BENCHMARK.json lists them.
func catalogue() []metricDef {
	out := []metricDef{
		e2e("setup_s", "s", "lower", 0.25),
		e2e("solves_per_s", "1/s", "higher", 0.25),
		e2e("cpu_ms_per_op", "ms", "lower", 0.25),
		e2e("mem_peak_mb", "MiB", "lower", 0.25),
		e2e("p50_ms.low", "ms", "lower", 0.25),
		e2e("p50_ms.high", "ms", "lower", 0.25),

		layer("error_rate", "ratio", onAll),
		layer("loadgen.lag_ms_p99", "ms", onServed),
		layer("loadgen.p90_ms.low", "ms", onAll),
		layer("loadgen.p90_ms.high", "ms", onAll),
		layer("loadgen.p99_ms.low", "ms", onAll),
		layer("loadgen.p99_ms.high", "ms", onAll),
		layer("loadgen.dropped", "count", onServed),
		layerUp("loadgen.max_ok_rps", "1/s", onServed),
		layer("client.overhead_ms_p50", "ms", onServed),
		layer("client.req_kb", "KiB", onServed),
		layer("client.resp_kb", "KiB", onServed),
		layer("server.hit_ms_p50", "ms", onRing),
		layer("server.miss_ms_p50", "ms", onEdit),
		layer("server.forwarded_ms_p50", "ms", onRing),
		layer("server.queue_wait_ms_p99", "ms", onEdit),
		layer("server.compute_ms_p50", "ms", onEdit),
		layer("server.unattributed_ms_p50", "ms", onServed),
		layer("server.shed", "count", onServed),
		layer("server.timeouts", "count", onServed),
		layer("server.computed_per_req", "ratio", onServed),
		layer("plan.decode_us", "us", onServed),
		layer("plan.canonicalize_us", "us", onServed),
		layer("plan.digest_us", "us", onServed),
		layer("cache.key_us", "us", onServed),
		layer("cache.get_us", "us", onServed),
		layer("cache.put_us", "us", onServed),
		layerUp("cache.hit_ratio", "ratio", onServed),
		layer("cache.evictions_per_req", "ratio", onEdit),
		layer("cache.bytes_max", "bytes", onServed),
		layerUp("flight.coalesced_ratio", "ratio", onEdit),
		layerUp("substore.splice_ratio", "ratio", onEdit),
		layer("substore.evictions", "count", onEdit),
		layer("substore.bytes_max", "bytes", onEdit),
		layer("cluster.forwarded_ratio", "ratio", onRing),
		layer("cluster.forward_ms_p50", "ms", onRing),
		layer("cluster.forward_ms_p99", "ms", onRing),
		layerUp("cluster.replica_hit_ratio", "ratio", onRing),
		layer("cluster.hot_fills", "count", onRing),
		layer("cluster.peer_fallback", "count", onRing),
	}
	for _, c := range solveCases {
		out = append(out, layer("optimizer.solve_ms."+c, "ms", onSolve))
	}
	for _, c := range solveCases {
		out = append(out, layer("optimizer.peak_stored."+c, "count", onSolve))
	}
	out = append(out,
		layer("optimizer.node_eval_us_p50", "us", onCompute),
		layer("optimizer.node_eval_us_p99", "us", onCompute),
		layerUp("optimizer.worker_util", "ratio", onCompute),
		layer("optimizer.stored_ratio", "ratio", onSolve),
		layerUp("paper.m_ratio.t1c1", "ratio", onSolve),
		layerUp("paper.cpu_ratio.t1c1", "ratio", onSolve),
		layer("combine.candidates_per_solve", "count", onSolve),
		layer("combine.merge_us", "us", onSolve),
		layer("shape.minima_r_us", "us", onSolve),
		layer("shape.minima_l_us", "us", onSolve),
		layer("selection.rselect_ms", "ms", onSolve),
		layer("selection.lselect_ms", "ms", onSolve),
		layerUp("selection.fused_share", "ratio", onSolve),
		layer("selection.error_r", "count", onSolve),
		layer("selection.error_l", "count", onSolve),
		layer("cspp.solves", "count", onSolve),
		layerUp("cspp.pool_hit_ratio", "ratio", onSolve),
		layer("cspp.max_n", "count", onSolve),
		layer("memtrack.cas_retries", "count", onSolve),
		layer("arena.slab_bytes_peak", "bytes", onSolve),
		layer("runtime.alloc_kb_per_op", "KiB", onSolve),
		layer("runtime.gc_cycles_per_op", "count", onSolve),
	)
	for _, l := range traceLayers {
		out = append(out, layer("trace.self_ms."+l, "ms", traceLayerOn[l]))
	}
	out = append(out,
		layer("trace.unattributed_share", "ratio", onAll),
		layer("trace.overhead_ratio", "ratio", onAll),
	)
	return out
}
