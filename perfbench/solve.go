package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"floorplan"
)

// paperCase is one calibrated case of the paper's tables (EXPERIMENTS.md):
// a floorplan, its module library, the selection policy, and the stored
// implementation peak M and optimal area the run must reproduce exactly.
type paperCase struct {
	name   string
	fp     string
	seed   int64
	aspect float64
	sel    floorplan.Selection
	m      int64
	area   int64
}

var paperCases = []paperCase{
	{"t1c1_exact", "FP1", 1, 6, floorplan.Selection{}, 14305, 305112525},
	{"t1c1_k20", "FP1", 1, 6, floorplan.Selection{K1: 20}, 6284, 306704880},
	{"t3c2_k40", "FP3", 2, 9, floorplan.Selection{K1: 40}, 61315, 1617742448},
	{"t4c1_k40_k1500", "FP4", 1, 6, floorplan.Selection{K1: 40, K2: 1500, Theta: 0.5, S: 500}, 108154, 3844059216},
}

// solveMemoryLimit is the calibrated stored-implementation cap that makes
// the paper's out-of-memory crossovers land on its cases.
const solveMemoryLimit = 300000

type solveInput struct {
	pc   paperCase
	tree *floorplan.Tree
	lib  floorplan.Library
}

func buildSolveInputs() ([]solveInput, error) {
	out := make([]solveInput, len(paperCases))
	for i, pc := range paperCases {
		tree, err := floorplan.PaperFloorplan(pc.fp)
		if err != nil {
			return nil, err
		}
		lib, err := floorplan.GenerateModules(tree, floorplan.ModuleGen{
			N: 20, Seed: pc.seed, Aspect: pc.aspect, MinArea: 2000000, MaxArea: 20000000,
		})
		if err != nil {
			return nil, err
		}
		out[i] = solveInput{pc, tree, lib}
	}
	return out, nil
}

// solveOnce runs one case, checks it against the paper values and returns
// its time and stored-implementation peak M.
func solveOnce(in solveInput, tel *floorplan.Collector) (time.Duration, int64, error) {
	t0 := time.Now()
	res, err := floorplan.Optimize(in.tree, in.lib, floorplan.Options{
		Selection:   in.pc.sel,
		MemoryLimit: solveMemoryLimit,
		Telemetry:   tel,
	})
	d := time.Since(t0)
	if err != nil {
		return d, 0, fmt.Errorf("%s: %w", in.pc.name, err)
	}
	m := res.Stats.PeakStored
	if m != in.pc.m || res.Best.Area() != in.pc.area {
		return d, m, fmt.Errorf("%s: M=%d area=%d, want M=%d area=%d",
			in.pc.name, m, res.Best.Area(), in.pc.m, in.pc.area)
	}
	return d, m, nil
}

// batchResult is one pass over every paper case.
type batchResult struct {
	wall  time.Duration
	cases []time.Duration
	m     []int64
	err   error
	// steal is the share of the CPUs' time the hypervisor took during
	// the batch.
	steal float64
}

func (r *runner) solveBatch(ins []solveInput, tels []*floorplan.Collector) batchResult {
	b := batchResult{cases: make([]time.Duration, len(ins)), m: make([]int64, len(ins))}
	w := startWindow()
	for i, in := range ins {
		var tel *floorplan.Collector
		if tels != nil {
			tel = tels[i]
		}
		d, m, err := solveOnce(in, tel)
		b.cases[i], b.m[i] = d, m
		if err != nil && b.err == nil {
			b.err = err
		}
		if r.inject > 0 {
			time.Sleep(time.Duration(r.inject * float64(d)))
		}
	}
	b.wall = time.Since(w.t0)
	b.steal = w.stealShare()
	return b
}

// closedLoop runs batches from `callers` goroutines for about d, each
// starting its next batch only after its previous one completed, and only
// while at least half a batch's time remains, so that windows end near d.
func (r *runner) closedLoop(ins []solveInput, callers int, d time.Duration) []batchResult {
	var (
		mu  sync.Mutex
		out []batchResult
		wg  sync.WaitGroup
	)
	deadline := time.Now().Add(d)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last time.Duration
			for time.Now().Add(last / 2).Before(deadline) {
				b := r.solveBatch(ins, nil)
				last = b.wall
				mu.Lock()
				out = append(out, b)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// runSolve is the library user's workload: the paper's experiment as a
// closed loop of batch solves, one caller (low) then one per CPU (high).
func runSolve(r *runner) error {
	var ins []solveInput
	var setups []float64
	for i := 0; i < setUps; i++ {
		t0 := time.Now()
		var err error
		if ins, err = buildSolveInputs(); err != nil {
			return err
		}
		// The first batch fills lazily built pools and proves the inputs
		// reproduce the paper before anything is timed.
		if b := r.solveBatch(ins, nil); b.err != nil {
			return fmt.Errorf("set-up batch: %w", b.err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))
	// The seed has no input to vary here: the paper cases are fixed. It
	// only rotates which case a batch starts with.
	rot := rand.New(rand.NewSource(r.seed)).Intn(len(ins))
	ins = append(ins[rot:], ins[:rot]...)
	if r.trace {
		return r.traceSolve(ins)
	}

	// Three rounds of one caller (low) then one caller per CPU (high). Each
	// latency is the median over the two thirds of the phase's batches
	// during which the hypervisor stole least: batches are chosen by steal,
	// never by their latency, so a change that slows them shows in
	// whichever are kept. Peak memory is read before the first window with
	// several callers, because how their batches overlap, and so the peak,
	// differs from run to run.
	const rounds = 3
	win := r.seconds / (2 * rounds)
	var phases [2][]measured // one caller, one caller per CPU
	var cpu time.Duration
	var mem float64
	batches := 0
	for k := 0; k < rounds; k++ {
		for hi, callers := range []int{1, runtime.NumCPU()} {
			c0 := selfCPU()
			bs := r.closedLoop(ins, callers, win)
			cpu += selfCPU() - c0
			batches += len(bs)
			for _, b := range bs {
				r.attempted++
				if b.err != nil {
					r.fail("%v", b.err)
				}
				phases[hi] = append(phases[hi], measured{b.steal, []float64{ms(b.wall)}})
			}
			if k == 0 && hi == 0 {
				var err error
				if mem, err = peakRSSMiB(0); err != nil {
					return err
				}
			}
		}
	}
	low := leastStolen(phases[0], (2*len(phases[0])+2)/3)
	high := leastStolen(phases[1], (2*len(phases[1])+2)/3)
	var sum float64
	for _, l := range low {
		sum += l
	}
	r.set("solves_per_s", 1000*float64(len(low))/sum)
	r.set("p50_ms.low", median(low))
	r.set("p50_ms.high", median(high))
	r.set("cpu_ms_per_op", ms(cpu)/float64(batches))
	r.set("mem_peak_mb", mem)
	return nil
}

func batchMs(bs []batchResult) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		out[i] = ms(b.wall)
	}
	return out
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
