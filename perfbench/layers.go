package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"floorplan"
	"floorplan/internal/benchsnap"
	"floorplan/internal/cache"
	"floorplan/internal/cluster"
	"floorplan/internal/combine"
	"floorplan/internal/plan"
	"floorplan/internal/selection"
	"floorplan/internal/server"
	"floorplan/internal/shape"
	"floorplan/internal/telemetry"
)

// replayInput is one request as the client sends it, with the result
// payload the server stored for it (nil when unknown).
type replayInput struct {
	body    []byte
	payload []byte
}

func newReplayInput(tree *floorplan.Tree, lib floorplan.Library, opts floorplan.ServeOptions, payload []byte) (replayInput, error) {
	body, err := json.Marshal(&server.OptimizeRequest{Tree: tree, Library: plan.Library(lib), Options: opts})
	if err != nil {
		return replayInput{}, err
	}
	return replayInput{body: body, payload: payload}, nil
}

// timeCalls runs fn over inputs 0..n-1 repeatedly for about d and returns
// the median time per call. Each timed sample is one pass over all n, so
// sub-microsecond calls are not swamped by the clock. Each pass is a span
// of the given layer.
func (r *runner) timeCalls(name, layer string, n int, d time.Duration, fn func(i int) error) (time.Duration, error) {
	var per []float64
	deadline := time.Now().Add(d)
	for len(per) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		t1 := time.Now()
		if len(per) < 20 {
			r.tracer.add(0, name, layer, "", t0, t1)
		}
		per = append(per, float64(t1.Sub(t0))/float64(n))
	}
	return time.Duration(median(per)), nil
}

// replayPlanCache times the request path's plan and cache calls on the
// workload's own request bodies: JSON decode, library canonicalization,
// subtree digests, cache key, and cache Put then Get under budget bytes.
func (r *runner) replayPlanCache(ins []replayInput, budget int64, d time.Duration) error {
	n := len(ins)
	reqs := make([]server.OptimizeRequest, n)
	canon := make([]plan.Library, n)
	keys := make([]cache.Key, n)
	slice := d / 6
	t, err := r.timeCalls("replay.plan.decode", "plan", n, slice, func(i int) error {
		reqs[i] = server.OptimizeRequest{}
		return json.Unmarshal(ins[i].body, &reqs[i])
	})
	if err != nil {
		return err
	}
	r.set("plan.decode_us", us(t))
	if t, err = r.timeCalls("replay.plan.canonicalize", "plan", n, slice, func(i int) (err error) {
		canon[i], err = plan.CanonicalLibrary(reqs[i].Library)
		return err
	}); err != nil {
		return err
	}
	r.set("plan.canonicalize_us", us(t))
	if t, err = r.timeCalls("replay.plan.digest", "plan", n, slice, func(i int) error {
		bin, err := plan.Restructure(reqs[i].Tree)
		if err != nil {
			return err
		}
		plan.SubtreeDigests(bin, []byte("perfbench"), canon[i])
		return nil
	}); err != nil {
		return err
	}
	r.set("plan.digest_us", us(t))
	if t, err = r.timeCalls("replay.cache.key", "cache", n, slice, func(i int) (err error) {
		o := reqs[i].Options
		keys[i], err = cache.KeySpec{
			Tree: reqs[i].Tree, Lib: canon[i], K1: o.K1, K2: o.K2, Theta: o.Theta, S: o.S,
			MemoryLimit: o.MemoryLimit, SkipPlacement: o.SkipPlacement,
		}.Key()
		return err
	}); err != nil {
		return err
	}
	r.set("cache.key_us", us(t))
	c, err := cache.New(cache.Config{MaxBytes: budget})
	if err != nil {
		return err
	}
	if t, err = r.timeCalls("replay.cache.put", "cache", n, slice, func(i int) error {
		p := ins[i].payload
		if p == nil {
			p = ins[i].body
		}
		c.Put(keys[i], p)
		return nil
	}); err != nil {
		return err
	}
	r.set("cache.put_us", us(t))
	if t, err = r.timeCalls("replay.cache.get", "cache", n, slice, func(i int) error {
		c.Get(keys[i])
		return nil
	}); err != nil {
		return err
	}
	r.set("cache.get_us", us(t))
	return nil
}

// replayKernels times direct calls into the optimizer's kernels on seeded
// inputs of the sizes the pinned micro grid uses.
func (r *runner) replayKernels(d time.Duration) error {
	seed := r.seed
	rc := benchsnap.RCandidates(65536, seed)
	lc := benchsnap.LCandidates(8192, seed+1)
	x, y := benchsnap.Staircase(4096, seed+2), benchsnap.Staircase(4096, seed+3)
	rl := benchsnap.Staircase(2048, seed+4)
	ll := benchsnap.MonotoneLList(1024, seed+5)
	slice := d / 5
	var t time.Duration
	var err error
	steps := []struct {
		name, layer, metric string
		scale               float64
		fn                  func(int) error
	}{
		{"replay.shape.minima_r", "shape", "shape.minima_r_us", 1e-3, func(int) error { shape.MinimaR(rc); return nil }},
		{"replay.shape.minima_l", "shape", "shape.minima_l_us", 1e-3, func(int) error { shape.MinimaL(lc); return nil }},
		{"replay.combine.merge", "combine", "combine.merge_us", 1e-3, func(int) error {
			if len(combine.VCut(x, y)) == 0 {
				return fmt.Errorf("empty merge")
			}
			return nil
		}},
		{"replay.selection.rselect", "selection", "selection.rselect_ms", 1e-6, func(int) error {
			_, err := selection.RSelect(rl, 64)
			return err
		}},
		{"replay.selection.lselect", "selection", "selection.lselect_ms", 1e-6, func(int) error {
			_, err := selection.LSelect(ll, 48)
			return err
		}},
	}
	for _, s := range steps {
		if t, err = r.timeCalls(s.name, s.layer, 1, slice, s.fn); err != nil {
			return err
		}
		r.set(s.metric, float64(t.Nanoseconds())*s.scale)
	}
	return nil
}

// counter, watermark and histogram look a metric up in both halves of a
// telemetry report.
func counter(rep *floorplan.TelemetryReport, name string) float64 {
	if v, ok := rep.Counters[name]; ok {
		return float64(v)
	}
	return float64(rep.Runtime.Counters[name])
}

func watermark(rep *floorplan.TelemetryReport, name string) float64 {
	if v, ok := rep.Watermarks[name]; ok {
		return float64(v)
	}
	return float64(rep.Runtime.Watermarks[name])
}

func histogram(rep *floorplan.TelemetryReport, name string) floorplan.HistSnapshot {
	if h, ok := rep.Histograms[name]; ok {
		return h
	}
	return rep.Runtime.Histograms[name]
}

// traceSolve is the traced solve run: an untraced stretch for the tracing
// overhead and the allocation counts, a stretch with a telemetry collector
// on every solve, and the kernel replays.
func (r *runner) traceSolve(ins []solveInput) error {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	base := r.closedLoop(ins, 1, r.seconds*2/10)
	runtime.ReadMemStats(&m1)
	busy := r.closedLoop(ins, runtime.NumCPU(), r.seconds/10)
	r.set("loadgen.p90_ms.low", quantile(batchMs(base), 0.9))
	r.set("loadgen.p90_ms.high", quantile(batchMs(busy), 0.9))
	r.set("loadgen.p99_ms.low", quantile(batchMs(base), 0.99))
	r.set("loadgen.p99_ms.high", quantile(batchMs(busy), 0.99))
	for _, b := range busy {
		r.attempted++
		if b.err != nil {
			r.fail("%v", b.err)
		}
	}
	r.set("runtime.alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(len(base)))
	r.set("runtime.gc_cycles_per_op", float64(m1.NumGC-m0.NumGC)/float64(len(base)))
	perCase := make([][]float64, len(ins))
	for _, b := range base {
		r.attempted++
		if b.err != nil {
			r.fail("%v", b.err)
		}
		for i, d := range b.cases {
			perCase[i] = append(perCase[i], ms(d))
		}
	}
	caseMs, caseM := map[string]float64{}, map[string]float64{}
	for i, in := range ins {
		caseMs[in.pc.name] = median(perCase[i])
		caseM[in.pc.name] = float64(base[0].m[i])
		r.set("optimizer.solve_ms."+in.pc.name, caseMs[in.pc.name])
		r.set("optimizer.peak_stored."+in.pc.name, caseM[in.pc.name])
	}
	r.set("paper.m_ratio.t1c1", caseM["t1c1_exact"]/caseM["t1c1_k20"])
	r.set("paper.cpu_ratio.t1c1", caseMs["t1c1_exact"]/caseMs["t1c1_k20"])

	var (
		batches             int
		traced              []float64
		stored, generated   float64
		candidates, solves  float64
		fused, selectPasses float64
		errR, errL          float64
		csppSolves, poolHit float64
		poolMiss, casRetry  float64
		maxN, arenaPeak     float64
		evalNs              floorplan.HistSnapshot
		solveWall           time.Duration
	)
	type solved struct {
		name       string
		start, end time.Time
		spans      []telemetry.Span
	}
	deadline := time.Now().Add(r.seconds * 4 / 10)
	for batches == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		var done []solved
		var batchErr error
		for _, in := range ins {
			tel := floorplan.NewCollector()
			epoch := time.Now()
			d, _, err := solveOnce(in, tel)
			if err != nil && batchErr == nil {
				batchErr = err
			}
			done = append(done, solved{in.pc.name, epoch, epoch.Add(d), tel.Spans()})
			rep := tel.Report()
			stored += counter(rep, "optimizer.stored")
			generated += counter(rep, "optimizer.generated")
			candidates += counter(rep, "optimizer.combine_candidates")
			fused += counter(rep, "selection.fused_r") + counter(rep, "selection.fused_l")
			selectPasses += counter(rep, "selection.fused_r") + counter(rep, "selection.fused_l") + counter(rep, "selection.table_l")
			errR += counter(rep, "optimizer.r_selection_error")
			errL += counter(rep, "optimizer.l_selection_error")
			csppSolves += counter(rep, "cspp.solves")
			poolHit += counter(rep, "cspp.pool_hits")
			poolMiss += counter(rep, "cspp.pool_misses")
			casRetry += counter(rep, "memtrack.cas_retries")
			maxN = maxf(maxN, watermark(rep, "cspp.max_n"))
			arenaPeak = maxf(arenaPeak, watermark(rep, "arena.slab_bytes_peak"))
			evalNs.Merge(histogram(rep, "optimizer.node_eval_ns"))
			solveWall += d
			solves++
		}
		end := time.Now()
		traced = append(traced, ms(end.Sub(t0)))
		batches++
		r.attempted++
		if batchErr != nil {
			r.fail("%v", batchErr)
		}
		traceID := strings.Split(floorplan.NewTraceparent(), "-")[1]
		root := r.tracer.add(0, "batch", "loadgen", traceID, t0, end)
		for _, sv := range done {
			id := r.tracer.add(root, "floorplan.Optimize "+sv.name, "optimizer", traceID, sv.start, sv.end)
			// Stage spans nest in the call; node evaluations nest in the
			// evaluate stage, several at once when workers run in parallel.
			evalParent := id
			for _, s := range sv.spans {
				if s.Cat == "stage" {
					sid := r.tracer.add(id, s.Name, "optimizer", traceID, sv.start.Add(s.Start), sv.start.Add(s.Start+s.Dur))
					if s.Name == "evaluate" {
						evalParent = sid
					}
				}
			}
			for _, s := range sv.spans {
				if s.Cat != "stage" {
					r.tracer.add(evalParent, s.Name, "optimizer", traceID, sv.start.Add(s.Start), sv.start.Add(s.Start+s.Dur))
				}
			}
		}
	}
	nb := float64(batches)
	r.set("optimizer.node_eval_us_p50", float64(evalNs.Quantile(0.5))/1e3)
	r.set("optimizer.node_eval_us_p99", float64(evalNs.Quantile(0.99))/1e3)
	r.set("optimizer.worker_util", float64(evalNs.Sum)/(float64(solveWall.Nanoseconds())*float64(runtime.GOMAXPROCS(0))))
	r.set("optimizer.stored_ratio", ratio(stored, generated))
	r.set("combine.candidates_per_solve", candidates/solves)
	r.set("selection.fused_share", ratio(fused, selectPasses))
	r.set("selection.error_r", errR/nb)
	r.set("selection.error_l", errL/nb)
	r.set("cspp.solves", csppSolves/nb)
	r.set("cspp.pool_hit_ratio", ratio(poolHit, poolHit+poolMiss))
	r.set("cspp.max_n", maxN)
	r.set("memtrack.cas_retries", casRetry/nb)
	r.set("arena.slab_bytes_peak", arenaPeak)
	r.set("trace.overhead_ratio", median(traced)/median(batchMs(base))-1)
	r.setTraceShares("batch", "floorplan.Optimize", nb)
	r.set("error_rate", ratio(float64(r.failed), float64(r.attempted)))
	return r.replayKernels(r.seconds * 3 / 10)
}

// setTraceShares reports per-layer self time per root span, and the share
// of the attributed spans' (those named attrPrefix...) time that none of
// their children explains.
func (r *runner) setTraceShares(rootName, attrPrefix string, roots float64) {
	self, _ := layerSelf(r.tracer.spans, rootName)
	for _, l := range traceLayers {
		r.set("trace.self_ms."+l, ms(self[l])/roots)
	}
	st := selfTimes(r.tracer.spans)
	var un, tot time.Duration
	for _, s := range r.tracer.spans {
		if strings.HasPrefix(s.Name, attrPrefix) {
			un += st[s.ID]
			tot += s.dur()
		}
	}
	r.set("trace.unattributed_share", ratio(float64(un), float64(tot)))
}

// statsSnap is every node's /v1/stats at one instant.
type statsSnap []*floorplan.ServeStats

func snapStats(clients []*floorplan.Client) (statsSnap, error) {
	out := make(statsSnap, len(clients))
	for i, c := range clients {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		s, err := c.Stats(ctx)
		cancel()
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// sum adds f over the nodes' deltas between two snapshots.
func (b statsSnap) sum(a statsSnap, f func(s *floorplan.ServeStats) int64) float64 {
	var t int64
	for i := range a {
		t += f(a[i]) - f(b[i])
	}
	return float64(t)
}

// hist merges a histogram's per-node deltas between two snapshots.
func (b statsSnap) hist(a statsSnap, name string) floorplan.HistSnapshot {
	var out floorplan.HistSnapshot
	for i := range a {
		out.Merge(a[i].Histograms[name].Delta(b[i].Histograms[name]))
	}
	return out
}

// clusterStat reads one cluster counter; single-node servers have none.
func clusterStat(f func(c *cluster.Stats) int64) func(s *floorplan.ServeStats) int64 {
	return func(s *floorplan.ServeStats) int64 {
		if s.Cluster == nil {
			return 0
		}
		return f(s.Cluster)
	}
}

// traceServed is the traced served run on nodes that write access logs:
// stretches at the low and high rates joined with those logs and the
// servers' stats, and the plan and cache replays on the workload's own
// request bodies. base is the untraced stretch at the low rate, run
// before on nodes whose logs were discarded; it gives the tracing
// overhead. next is the first request index not yet sent.
func (r *runner) traceServed(sp *servedSpec, nodes []*node, base []sample, next int) error {
	clients := newClients(nodes)
	slice := r.seconds / 5
	baseLat := r.tally(base)
	s0, err := snapStats(clients)
	if err != nil {
		return err
	}
	cpu0 := time.Now()
	low := r.openLoop(sp, clients, next, sp.low, 2*slice)
	next += len(low)
	high := r.openLoop(sp, clients, next, sp.high, slice)
	wall := time.Since(cpu0)
	s1, err := snapStats(clients)
	if err != nil {
		return err
	}
	lowLat, highLat := r.tally(low), r.tally(high)
	r.set("loadgen.p90_ms.low", quantile(lowLat, 0.9))
	r.set("loadgen.p90_ms.high", quantile(highLat, 0.9))
	r.set("loadgen.p99_ms.low", quantile(lowLat, 0.99))
	r.set("loadgen.p99_ms.high", quantile(highLat, 0.99))
	ss := append(low, high...)
	sent := float64(len(ss))

	var lags []float64
	var dropped, spliced, computed float64
	for _, s := range ss {
		lags = append(lags, ms(s.lag))
		if s.dropped {
			dropped++
		}
		spliced += float64(s.spliced)
		computed += float64(s.comput)
	}
	r.set("loadgen.lag_ms_p99", quantile(lags, 0.99))
	r.set("loadgen.dropped", dropped)
	// The overhead compares equal stretches from equally fresh nodes: the
	// untraced one with the traced low-rate stretch's opening part.
	var head []float64
	for _, s := range low[:min(len(base), len(low))] {
		head = append(head, s.latMs())
	}
	r.set("trace.overhead_ratio", quantile(head, 0.5)/quantile(baseLat, 0.5)-1)

	r.set("server.hit_ms_p50", float64(s0.hist(s1, "server.latency_hit_ns").Quantile(0.5))/1e6)
	r.set("server.miss_ms_p50", float64(s0.hist(s1, "server.latency_miss_ns").Quantile(0.5))/1e6)
	r.set("server.forwarded_ms_p50", float64(s0.hist(s1, "server.latency_forwarded_ns").Quantile(0.5))/1e6)
	r.set("server.shed", s0.sum(s1, func(s *floorplan.ServeStats) int64 { return s.Shed }))
	r.set("server.timeouts", s0.sum(s1, func(s *floorplan.ServeStats) int64 { return s.TimedOutQueued + s.TimedOutComputing }))
	r.set("server.computed_per_req", s0.sum(s1, func(s *floorplan.ServeStats) int64 { return s.Computed })/sent)
	hits := s0.sum(s1, func(s *floorplan.ServeStats) int64 { return s.Cache.Hits })
	misses := s0.sum(s1, func(s *floorplan.ServeStats) int64 { return s.Cache.Misses })
	r.set("cache.hit_ratio", ratio(hits, hits+misses))
	r.set("cache.evictions_per_req", s0.sum(s1, func(s *floorplan.ServeStats) int64 { return s.Cache.Evictions })/sent)
	r.set("flight.coalesced_ratio", s0.sum(s1, func(s *floorplan.ServeStats) int64 { return s.Coalesced })/sent)
	r.set("substore.splice_ratio", ratio(spliced, spliced+computed))
	r.set("substore.evictions", s0.sum(s1, func(s *floorplan.ServeStats) int64 { return s.Substore.Evictions }))
	var cacheMax, subMax float64
	for _, s := range s1 {
		cacheMax = maxf(cacheMax, float64(s.Cache.PeakBytes))
		subMax = maxf(subMax, float64(s.Substore.PeakBytes))
	}
	r.set("cache.bytes_max", cacheMax)
	r.set("substore.bytes_max", subMax)
	r.set("cluster.forwarded_ratio", s0.sum(s1, clusterStat(func(c *cluster.Stats) int64 { return c.Forwarded }))/sent)
	r.set("cluster.replica_hit_ratio", s0.sum(s1, clusterStat(func(c *cluster.Stats) int64 { return c.ReplicaHits }))/sent)
	r.set("cluster.hot_fills", s0.sum(s1, clusterStat(func(c *cluster.Stats) int64 { return c.HotFills })))
	r.set("cluster.peer_fallback", s0.sum(s1, clusterStat(func(c *cluster.Stats) int64 { return c.PeerFallbacks })))
	fwd := s0.hist(s1, "cluster.forward_ns")
	r.set("cluster.forward_ms_p50", float64(fwd.Quantile(0.5))/1e6)
	r.set("cluster.forward_ms_p99", float64(fwd.Quantile(0.99))/1e6)
	eval := s0.hist(s1, "optimizer.node_eval_ns")
	r.set("optimizer.node_eval_us_p50", float64(eval.Quantile(0.5))/1e3)
	r.set("optimizer.node_eval_us_p99", float64(eval.Quantile(0.99))/1e3)
	workers := 0
	for _, s := range s1 {
		workers += s.Workers
	}
	r.set("optimizer.worker_util", float64(eval.Sum)/(float64(wall.Nanoseconds())*float64(workers)))

	if err := r.joinAccessLogs(nodes, ss); err != nil {
		return err
	}
	ins, err := sp.bodies(64)
	if err != nil {
		return err
	}
	var reqBytes float64
	for _, in := range ins {
		reqBytes += float64(len(in.body))
	}
	r.set("client.req_kb", reqBytes/float64(len(ins))/1024)
	budget := int64(64 << 20)
	for i, a := range sp.args {
		if a == "-cache-mb" && i+1 < len(sp.args) {
			fmt.Sscan(sp.args[i+1], &budget)
			budget <<= 20
		}
	}
	if err := r.replayPlanCache(ins, budget, slice); err != nil {
		return err
	}
	r.set("error_rate", ratio(float64(r.failed), float64(r.attempted)))
	return nil
}

// joinAccessLogs reads every node's access log, joins the records to the
// traced requests by trace ID, and builds each request's span tree:
//
//	request (loadgen) ─ loadgen.queue, client.call (client)
//	client.call ─ server.request (server) ─ server.queue_wait (server),
//	              server.compute (optimizer), cluster.forward (cluster)
//	cluster.forward ─ the owner's server.request, with its own children
//
// The log carries durations, not sub-millisecond timestamps, so a server
// span is centred in its parent and its stages laid end to end from its
// start; self times depend on the durations alone.
func (r *runner) joinAccessLogs(nodes []*node, ss []sample) error {
	origin := map[string]accessRecord{}
	owner := map[string]accessRecord{}
	var unattr, queue, compute, respBytes []float64
	for _, nd := range nodes {
		recs, err := readAccessLog(nd.log)
		if err != nil {
			return err
		}
		for _, a := range recs {
			if a.InternalFrom != "" {
				owner[a.TraceID] = a
			} else {
				origin[a.TraceID] = a
			}
		}
	}
	var overhead []float64
	for _, s := range ss {
		if s.dropped {
			continue
		}
		a, ok := origin[s.traceID]
		if !ok {
			continue
		}
		call := s.end.Sub(s.start)
		overhead = append(overhead, ms(call)-a.ElapsedMs)
		unattr = append(unattr, a.unattributedMs())
		respBytes = append(respBytes, float64(a.Bytes))
		for _, rec := range []accessRecord{a, owner[s.traceID]} {
			if rec.ComputeMs > 0 || rec.QueueWaitMs > 0 {
				queue = append(queue, rec.QueueWaitMs)
				compute = append(compute, rec.ComputeMs)
			}
		}
		root := r.tracer.add(0, "request", "loadgen", s.traceID, s.due, s.end)
		r.tracer.add(root, "loadgen.queue", "loadgen", s.traceID, s.due, s.start)
		cid := r.tracer.add(root, "client.call", "client", s.traceID, s.start, s.end)
		sid, sStart := r.serverSpan(cid, s.traceID, a, s.start, s.end)
		if a.ForwardMs > 0 {
			fStart := sStart.Add(msDur(a.QueueWaitMs + a.ComputeMs))
			fEnd := fStart.Add(msDur(a.ForwardMs))
			fid := r.tracer.add(sid, "cluster.forward", "cluster", s.traceID, fStart, fEnd)
			if o, ok := owner[s.traceID]; ok {
				r.serverSpan(fid, s.traceID, o, fStart, fEnd)
			}
		}
	}
	var meanResp float64
	for _, b := range respBytes {
		meanResp += b
	}
	r.set("client.resp_kb", ratio(meanResp, float64(len(respBytes)))/1024)
	r.set("client.overhead_ms_p50", quantile(overhead, 0.5))
	r.set("server.unattributed_ms_p50", quantile(unattr, 0.5))
	r.set("server.queue_wait_ms_p99", quantile(queue, 0.99))
	r.set("server.compute_ms_p50", quantile(compute, 0.5))
	r.setTraceShares("request", "server.request", float64(len(overhead)))
	return nil
}

// serverSpan adds one access record as a server.request span centred in
// [pStart, pEnd], with its queue-wait and compute stages as children.
func (r *runner) serverSpan(parent int, traceID string, a accessRecord, pStart, pEnd time.Time) (int, time.Time) {
	d := msDur(a.ElapsedMs)
	if room := pEnd.Sub(pStart); d > room {
		d = room
	}
	start := pStart.Add((pEnd.Sub(pStart) - d) / 2)
	id := r.tracer.add(parent, "server.request "+a.Disposition, "server", traceID, start, start.Add(d))
	t := start
	if a.QueueWaitMs > 0 {
		r.tracer.add(id, "server.queue_wait", "server", traceID, t, t.Add(msDur(a.QueueWaitMs)))
		t = t.Add(msDur(a.QueueWaitMs))
	}
	if a.ComputeMs > 0 {
		r.tracer.add(id, "server.compute", "optimizer", traceID, t, t.Add(msDur(a.ComputeMs)))
	}
	return id, start
}

func msDur(v float64) time.Duration { return time.Duration(v * 1e6) }
