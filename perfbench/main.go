// Command perfbench is the repository's benchmark. It runs one named
// workload against the program built from the surrounding tree, checks
// every output, and prints its metrics as one JSON object on the last line
// of standard output. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload solve --seed 1 --seconds 22 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one named input set and traffic pattern.
type workload struct {
	name string
	run  func(r *runner) error
}

var workloads = []workload{
	{"solve", runSolve},
	{"serve-edit", runServeEdit},
	{"ring-hit", runRingHit},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Outcome is the last line of output: the field order is the contract.
type Outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// runner carries one invocation's settings and accumulates its outcome.
type runner struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	bin      string // directory holding the fpserve binary
	work     string // scratch directory for run files
	// inject, when positive, delays every solve of the solve workload by
	// that share of its own duration: TestNegativeControl sets it.
	inject float64

	attempted, failed int64
	failNotes         int
	values            map[string]float64
	tracer            *tracer

	// redoLeft is how much more wall time the run may spend repeating
	// windows the hypervisor disturbed; redone counts the repeats.
	redoLeft time.Duration
	redone   int
}

// setUps is how many times a run sets its workload up; setup_s is the
// median.
const setUps = 5

// maxSteal is the share of the CPUs' time the hypervisor may take during a
// measured window before the window is repeated.
const maxSteal = 0.05

// window marks the start of one measured window.
type window struct {
	t0    time.Time
	steal time.Duration
}

func startWindow() window { return window{time.Now(), stealTime()} }

// stealShare is the share of the CPUs' time the hypervisor took since w
// started.
func (w window) stealShare() float64 {
	return float64(stealTime()-w.steal) / (float64(time.Since(w.t0)) * float64(runtime.NumCPU()))
}

// disturbed reports whether the hypervisor stole more than maxSteal of the
// CPUs' time during w, and so the caller should repeat the window. It
// answers false once the run's allowance for repeats is spent: then the
// window is kept as measured. Operations in a repeated window still count
// as attempted, and any failure among them as failed.
func (r *runner) disturbed(w window) bool {
	d := time.Since(w.t0)
	if w.stealShare() <= maxSteal || d > r.redoLeft {
		return false
	}
	r.redoLeft -= d
	r.redone++
	return true
}

func (r *runner) set(name string, v float64) { r.values[name] = v }

// fail records one failed operation, logging the first few reasons.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	if r.failNotes < 10 {
		r.failNotes++
		fmt.Fprintf(os.Stderr, "perfbench: failed: "+format+"\n", args...)
	}
}

// outcome builds the result line: the end-to-end metrics for a timed run,
// the per-layer ones for a traced run. A per-layer metric that does not
// apply to the workload reads 0 (that layer does no work there); a missing
// metric that applies is a bug in the benchmark.
func (r *runner) outcome() (Outcome, error) {
	out := Outcome{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]Metric{}}
	for _, m := range catalogue() {
		if m.EndToEnd == r.trace {
			continue
		}
		var v float64
		if m.appliesTo(r.workload) {
			var ok bool
			if v, ok = r.values[m.Name]; !ok {
				return out, fmt.Errorf("workload %s did not report %s", r.workload, m.Name)
			}
		}
		out.Metrics[m.Name] = Metric{Value: v, Unit: m.Unit}
	}
	out.Correct = r.failed == 0 && r.attempted > 0
	return out, nil
}

// record is what -out writes: the outcome plus where and on what it was
// measured, so that results from different hosts are never compared.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  int     `json:"seconds"`
	Trace    bool    `json:"trace"`
	Host     Host    `json:"host"`
	Build    Build   `json:"build"`
	Outcome  Outcome `json:"outcome"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: solve, serve-edit or ring-hit")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the fpserve binary")
		work    = flag.String("work", ".bench_build", "directory for run files and traces")
		outPath = flag.String("out", "", "also write the result with its host fingerprint to this file")
		compare = flag.Bool("compare", false, "compare two -out files (base, then change) against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	r := &runner{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		bin:      *bin,
		work:     *work,
		values:   map[string]float64{},
		redoLeft: time.Duration(*seconds) * time.Second * 2 / 10,
	}
	if r.trace {
		r.tracer = &tracer{}
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 {
		fatal(errors.New("-seconds must be at least 1"))
	}
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		fatal(err)
	}
	whole := startWindow()
	if err := wl.run(r); err != nil {
		fatal(fmt.Errorf("%s: %w", *name, err))
	}
	fmt.Fprintf(os.Stderr, "perfbench: the hypervisor stole %.1f%% of the CPUs' time during the run\n", 100*whole.stealShare())
	out, err := r.outcome()
	if err != nil {
		fatal(err)
	}
	rec := record{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: r.trace,
		Host:    hostFingerprint(),
		Build:   buildIdentity(".", "perfbench", r.work),
		Outcome: out,
	}
	if r.trace {
		path := filepath.Join(r.work, fmt.Sprintf("trace-%s-%d.json", *name, *seed))
		if err := writeChromeFile(path, r.tracer.spans); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(r.tracer.spans), path)
	}
	if r.redone > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: repeated %d windows the hypervisor disturbed\n", r.redone)
	}
	if *outPath != "" {
		raw, _ := json.MarshalIndent(rec, "", "  ")
		if err := os.WriteFile(*outPath, raw, 0o644); err != nil {
			fatal(err)
		}
	}
	host, _ := json.Marshal(struct {
		Host  Host  `json:"host"`
		Build Build `json:"build"`
	}{rec.Host, rec.Build})
	fmt.Printf("# %s\n", host)
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// runCompare checks a change's result against its parent's with the bounds
// in BENCHMARK.json. It refuses (exit 2) when the two were measured on
// different hosts, and exits 1 when any end-to-end metric worsened by more
// than its bound.
func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "perfbench: -compare BASE.json CHANGE.json")
		return 2
	}
	var recs [2]record
	for i, p := range args {
		raw, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(raw, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p, err)
			return 2
		}
	}
	if recs[0].Host != recs[1].Host {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare results from different hosts:\n  %+v\n  %+v\n", recs[0].Host, recs[1].Host)
		return 2
	}
	if recs[0].Workload != recs[1].Workload || recs[0].Trace != recs[1].Trace || recs[0].Seconds != recs[1].Seconds {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to compare different workloads, run lengths or modes")
		return 2
	}
	bad := regressions(recs[0].Outcome.Metrics, recs[1].Outcome.Metrics, catalogue())
	names := make([]string, 0, len(recs[1].Outcome.Metrics))
	for n := range recs[1].Outcome.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.4f %14.4f %s\n", n, recs[0].Outcome.Metrics[n].Value, recs[1].Outcome.Metrics[n].Value, bad[n])
	}
	if len(bad) > 0 || recs[1].Outcome.Failed > recs[0].Outcome.Failed {
		return 1
	}
	return 0
}

// regressions returns, for each end-to-end metric of change that is worse
// than base by more than its bound, a note saying by how much.
func regressions(base, change map[string]Metric, defs []metricDef) map[string]string {
	out := map[string]string{}
	for _, d := range defs {
		if !d.EndToEnd {
			continue
		}
		b, okb := base[d.Name]
		c, okc := change[d.Name]
		if !okb || !okc || b.Value == 0 {
			continue
		}
		worse := (c.Value - b.Value) / b.Value
		if d.Better == "higher" {
			worse = -worse
		}
		if worse > d.Bound {
			out[d.Name] = fmt.Sprintf("REGRESSED %+.1f%% (bound %.0f%%)", 100*worse, 100*d.Bound)
		}
	}
	return out
}
