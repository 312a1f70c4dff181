package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"floorplan"
)

// node is one fpserve process built from the tree under test.
type node struct {
	cmd  *exec.Cmd
	url  string
	log  string // access-log path in traced runs
	done chan struct{}
}

// startNodes launches n fpserve processes: a single server on a kernel-
// chosen port, or an n-node static ring on ports picked just before launch.
// With logs set, each node's access log goes to a file in dir; otherwise it
// is discarded. Every process is stopped by stopNodes, and dies with
// perfbench.
func (r *runner) startNodes(dir string, n int, args []string, logs bool) ([]*node, error) {
	addrs := make([]string, n)
	if n > 1 {
		for i := range addrs {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			addrs[i] = l.Addr().String()
			l.Close()
		}
	}
	peers := make([]string, n)
	for i, a := range addrs {
		peers[i] = "http://" + a
	}
	var nodes []*node
	for i := 0; i < n; i++ {
		argv := append([]string{"-log-format", "json", "-log-level", "info"}, args...)
		addrFile := filepath.Join(dir, fmt.Sprintf("addr-%d", i))
		if n == 1 {
			// A file left by an earlier set-up would name a dead port.
			if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
			argv = append(argv, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
		} else {
			argv = append(argv, "-addr", addrs[i], "-self", peers[i],
				"-peers", strings.Join(peers, ","), "-node-id", fmt.Sprintf("n%d", i+1))
		}
		cmd := exec.Command(filepath.Join(r.bin, "fpserve"), argv...)
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		nd := &node{cmd: cmd, done: make(chan struct{})}
		if n > 1 {
			nd.url = peers[i]
		}
		if logs {
			nd.log = filepath.Join(dir, fmt.Sprintf("access-%d.log", i))
			f, err := os.Create(nd.log)
			if err != nil {
				stopNodes(nodes)
				return nil, err
			}
			cmd.Stderr = f
			defer f.Close()
		}
		if err := cmd.Start(); err != nil {
			stopNodes(nodes)
			return nil, fmt.Errorf("starting fpserve: %w", err)
		}
		go func() { _ = cmd.Wait(); close(nd.done) }()
		nodes = append(nodes, nd)
	}
	deadline := time.Now().Add(20 * time.Second)
	for i, nd := range nodes {
		for {
			if n == 1 && nd.url == "" {
				if raw, err := os.ReadFile(filepath.Join(dir, "addr-0")); err == nil && len(bytes.TrimSpace(raw)) > 0 {
					nd.url = "http://" + strings.TrimSpace(string(raw))
				}
			}
			if nd.url != "" {
				c := &floorplan.Client{BaseURL: nd.url}
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				err := c.Health(ctx)
				cancel()
				if err == nil {
					break
				}
			}
			select {
			case <-nd.done:
				stopNodes(nodes)
				return nil, fmt.Errorf("fpserve node %d exited during start-up", i)
			default:
			}
			if time.Now().After(deadline) {
				stopNodes(nodes)
				return nil, fmt.Errorf("fpserve node %d not healthy after 20s", i)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nodes, nil
}

// stopNodes drains every node with SIGTERM and waits for it to exit,
// killing any that does not within ten seconds. Nodes already stopped are
// left as they are.
func stopNodes(nodes []*node) {
	for _, nd := range nodes {
		_ = nd.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, nd := range nodes {
		select {
		case <-nd.done:
		case <-time.After(10 * time.Second):
			_ = nd.cmd.Process.Kill()
			<-nd.done
		}
	}
}

func nodesCPU(nodes []*node) (time.Duration, error) {
	var t time.Duration
	for _, nd := range nodes {
		c, err := procCPU(nd.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		t += c
	}
	return t, nil
}

func nodesPeakMiB(nodes []*node) (float64, error) {
	var t float64
	for _, nd := range nodes {
		m, err := peakRSSMiB(nd.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		t += m
	}
	return t, nil
}

// newClients returns one floorplan.Client per node over a shared transport
// that keeps at most one connection per CPU to each node. Retries are off
// so that the offered load stays what the schedule says.
func newClients(nodes []*node) []*floorplan.Client {
	tr := &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
		DisableCompression:  true,
	}
	hc := &http.Client{Transport: tr}
	out := make([]*floorplan.Client, len(nodes))
	for i, nd := range nodes {
		out[i] = &floorplan.Client{BaseURL: nd.url, HTTPClient: hc, Retry: floorplan.RetryPolicy{MaxAttempts: 1}}
	}
	return out
}

// servedSpec describes one served workload: its processes, its request
// stream and how each reply is checked.
type servedSpec struct {
	nodes int
	args  []string
	// low and high are the fixed open-loop rates; ladder the ascending
	// rates searched for the highest one whose p99 meets limitMs.
	low, high float64
	ladder    []float64
	limitMs   float64
	// setup builds the inputs and references; it runs once per set-up
	// repetition, before the servers start.
	setup func() error
	// warm brings freshly started servers to steady state.
	warm func(ctx context.Context, clients []*floorplan.Client) error
	// send issues request i (a global, never reused index) to c.
	send func(ctx context.Context, i int, c *floorplan.Client) (*floorplan.ServeResponse, error)
	// check verifies request i's reply; deferred checks return nil here
	// and run in finish.
	check func(i int, resp *floorplan.ServeResponse) error
	// finish runs after the servers stop: deferred output checks.
	finish func(r *runner) error
	// bodies returns sample request bodies for the plan and cache
	// replays of the traced run, with one result payload each.
	bodies func(n int) ([]replayInput, error)
}

// sample is one scheduled request.
type sample struct {
	due, start, end time.Time
	lag             time.Duration
	dropped, ok     bool
	traceID         string
	disp            string
	spliced, comput int64
}

func (s sample) latMs() float64 { return ms(s.end.Sub(s.due)) }

// openLoop offers requests first, first+1, ... at a fixed rate for d,
// round-robin over the clients, from one sender per CPU. Arrivals never
// wait for replies: an arrival that finds the queue full is dropped, and
// each latency runs from the request's intended send time, so a stall
// shows in every request it delays.
func (r *runner) openLoop(sp *servedSpec, clients []*floorplan.Client, first int, rate float64, d time.Duration) []sample {
	n := int(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	out := make([]sample, n)
	// The queue holds arrivals a busy sender has not yet taken; 4096 is
	// seconds of backlog at any rate the ladder offers.
	jobs := make(chan int, 4096)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				s := &out[j]
				tp := floorplan.NewTraceparent()
				s.traceID = strings.Split(tp, "-")[1]
				ctx := floorplan.WithTraceparent(context.Background(), tp)
				s.start = time.Now()
				resp, err := sp.send(ctx, first+j, clients[(first+j)%len(clients)])
				s.end = time.Now()
				if err != nil {
					s.disp = "error: " + err.Error()
					continue
				}
				s.disp = resp.Runtime.Cache
				s.spliced, s.comput = resp.Runtime.SubtreeSpliced, resp.Runtime.SubtreeComputed
				if err := sp.check(first+j, resp); err != nil {
					s.disp = "wrong: " + err.Error()
					continue
				}
				s.ok = true
			}
		}()
	}
	start := time.Now()
	for j := 0; j < n; j++ {
		due := start.Add(time.Duration(float64(j) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		out[j].due = due
		out[j].lag = time.Since(due)
		select {
		case jobs <- j:
		default:
			out[j].dropped = true
			out[j].end = time.Now()
		}
	}
	close(jobs)
	wg.Wait()
	return out
}

// tally counts a phase's samples into the runner and returns its latencies.
func (r *runner) tally(ss []sample) []float64 {
	lat := make([]float64, 0, len(ss))
	for _, s := range ss {
		r.attempted++
		switch {
		case s.dropped:
			r.fail("arrival dropped: sender queue full")
		case !s.ok:
			r.fail("%s", s.disp)
		}
		lat = append(lat, s.latMs())
	}
	return lat
}

// phaseOK reports whether a ladder step met the latency limit with every
// request answered.
func phaseOK(ss []sample, p99, limit float64) bool {
	for _, s := range ss {
		if s.dropped || !s.ok {
			return false
		}
	}
	return p99 <= limit
}

// ladderP99 is a ladder step's p99: the median of the p99s of its three
// equal sub-windows by intended send time.
func ladderP99(ss []sample) float64 {
	var sub []float64
	for w := 0; w < 3; w++ {
		part := ss[w*len(ss)/3 : (w+1)*len(ss)/3]
		lat := make([]float64, len(part))
		for i, x := range part {
			lat[i] = x.latMs()
		}
		sub = append(sub, quantile(lat, 0.99))
	}
	return median(sub)
}

// maxOKRate interpolates, in log latency, the rate at which the ladder's
// p99 crosses the limit: between the highest step that met it and the
// first that did not. A ladder that never fails reports its top rate; one
// that fails at once scales its first rate by limit/p99.
func maxOKRate(rates, p99s []float64, ok []bool, limit float64) float64 {
	for i := range rates {
		if ok[i] {
			continue
		}
		if i == 0 {
			return rates[0] * math.Min(1, limit/math.Max(p99s[0], 1e-9))
		}
		lo, hi := math.Log(math.Max(p99s[i-1], 1e-9)), math.Log(math.Max(p99s[i], 1e-9))
		x := 1.0
		if hi > lo {
			x = math.Max(0, math.Min(1, (math.Log(limit)-lo)/(hi-lo)))
		}
		return rates[i-1] + x*(rates[i]-rates[i-1])
	}
	return rates[len(rates)-1]
}

// startWarm starts the workload's servers and brings them to steady state.
func (r *runner) startWarm(sp *servedSpec, dir string, logs bool) ([]*node, error) {
	nodes, err := r.startNodes(dir, sp.nodes, sp.args, logs)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sp.warm(ctx, newClients(nodes)); err != nil {
		stopNodes(nodes)
		return nil, fmt.Errorf("warming: %w", err)
	}
	return nodes, nil
}

// setUp runs the workload's set-up setUps times: inputs and references,
// then servers started and warmed, their access logs discarded as in normal
// operation. All but the last set of servers are stopped; setup_s is the
// median.
func (r *runner) setUp(sp *servedSpec, dir string) ([]*node, error) {
	var times []float64
	var nodes []*node
	for rep := 0; rep < setUps; rep++ {
		if nodes != nil {
			stopNodes(nodes)
		}
		t0 := time.Now()
		if err := sp.setup(); err != nil {
			return nil, err
		}
		var err error
		if nodes, err = r.startWarm(sp, dir, false); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(times))
	return nodes, nil
}

// runServed measures a served workload: latency at the low and high fixed
// rates, with the CPU and peak memory of every fpserve process. The traced
// run climbs the rate ladder as well.
func (r *runner) runServed(sp *servedSpec) error {
	// perfbench is only the load generator here: collecting its garbage
	// less often keeps its GC from stealing CPU from the servers.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	dir, err := os.MkdirTemp(r.work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	nodes, err := r.setUp(sp, dir)
	if err != nil {
		return err
	}
	defer func() { stopNodes(nodes) }()
	clients := newClients(nodes)
	if r.trace {
		// The untraced stretch runs on the nodes as set up, whose access
		// logs are discarded as in the timed run; the traced stretches run
		// on nodes started afresh that write their logs to files.
		// The rate ladder runs on them too, after the untraced stretch.
		base := r.openLoop(sp, clients, 0, sp.low, r.seconds/5)
		rate, next := r.maxOK(sp, clients, len(base))
		r.set("loadgen.max_ok_rps", rate)
		stopNodes(nodes)
		if nodes, err = r.startWarm(sp, dir, true); err != nil {
			return err
		}
		err := r.traceServed(sp, nodes, base, next)
		stopNodes(nodes)
		if err != nil {
			return err
		}
		return sp.finish(r)
	}

	// Eight rounds of a low-rate then a high-rate window. Each latency is the
	// median of the rate's samples pooled over the six of its eight
	// windows in which the hypervisor stole least, so that a stall on the
	// host moves no result. These windows are never repeated, so every run
	// has done the same requests when peak memory is read.
	const rounds, kept = 8, 6
	win := r.seconds / (2 * rounds)
	next := 0
	var wins [2][]measured // low rate, high rate
	var highRate []float64
	var cpu time.Duration
	done := 0
	for k := 0; k < rounds; k++ {
		for hi, rate := range []float64{sp.low, sp.high} {
			w := startWindow()
			c0, err := nodesCPU(nodes)
			if err != nil {
				return err
			}
			ss := r.openLoop(sp, clients, next, rate, win)
			c1, err := nodesCPU(nodes)
			if err != nil {
				return err
			}
			next += len(ss)
			cpu += c1 - c0
			done += len(ss)
			wins[hi] = append(wins[hi], measured{w.stealShare(), r.tally(ss)})
			if hi == 1 {
				highRate = append(highRate, completedRate(ss))
			}
		}
	}
	mem, err := nodesPeakMiB(nodes)
	if err != nil {
		return err
	}
	stopNodes(nodes)
	if err := sp.finish(r); err != nil {
		return err
	}
	var steals []float64
	for _, w := range append(wins[0], wins[1]...) {
		steals = append(steals, 100*w.steal)
	}
	fmt.Fprintf(os.Stderr, "perfbench: steal %% per fixed-rate window, low then high: %s\n", fmtFloats(steals))
	lowLat, highLat := leastStolen(wins[0], kept), leastStolen(wins[1], kept)
	r.set("p50_ms.low", quantile(lowLat, 0.5))
	r.set("p50_ms.high", quantile(highLat, 0.5))
	r.set("solves_per_s", median(highRate))
	r.set("cpu_ms_per_op", ms(cpu)/float64(done))
	r.set("mem_peak_mb", mem)
	return nil
}

// maxOK climbs the workload's rate ladder from request next on and returns
// the highest rate whose p99 meets the latency limit, and the request index
// after the last one sent. The ladder climbs until a step misses the limit
// twice in a row, so that one disturbed step does not end it. A step's p99
// is the median over its three equal sub-windows, split by intended send
// time so that a backlog carries across them.
func (r *runner) maxOK(sp *servedSpec, clients []*floorplan.Client, next int) (float64, int) {
	step := 4 * r.seconds / 10 / time.Duration(len(sp.ladder)+1)
	climb := func(rate float64) (float64, bool) {
		for {
			w := startWindow()
			ss := r.openLoop(sp, clients, next, rate, step)
			next += len(ss)
			r.tally(ss)
			if !r.disturbed(w) {
				p99 := ladderP99(ss)
				return p99, phaseOK(ss, p99, sp.limitMs)
			}
		}
	}
	var p99s []float64
	var oks []bool
	for _, rate := range sp.ladder {
		p99, ok := climb(rate)
		if !ok {
			again, ok2 := climb(rate)
			p99, ok = math.Min(p99, again), ok2
		}
		p99s, oks = append(p99s, p99), append(oks, ok)
		if !ok {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: ladder p99 ms %v\n", fmtFloats(p99s))
	return maxOKRate(sp.ladder, p99s, oks, sp.limitMs), next
}

// measured is the latencies of one window (or one solve batch) and the
// share of the CPUs' time the hypervisor stole during it.
type measured struct {
	steal float64
	lat   []float64
}

// leastStolen pools the latencies of the k windows (or batches) in which
// the hypervisor stole the smallest share of the CPUs' time.
func leastStolen(ws []measured, k int) []float64 {
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].steal < ws[j].steal })
	var out []float64
	for _, w := range ws[:min(k, len(ws))] {
		out = append(out, w.lat...)
	}
	return out
}

// completedRate is the rate at which a window's requests were answered:
// its answered count over the time from its first intended send to its
// last reply.
func completedRate(ss []sample) float64 {
	var n int
	var last time.Time
	for _, s := range ss {
		if s.ok {
			n++
		}
		if s.end.After(last) {
			last = s.end
		}
	}
	return float64(n) / last.Sub(ss[0].due).Seconds()
}

func fmtFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'f', 2, 64)
	}
	return strings.Join(s, " ")
}
