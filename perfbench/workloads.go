package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"

	"floorplan"
	"floorplan/internal/cache"
	"floorplan/internal/cluster"
	"floorplan/internal/loadgen"
	"floorplan/internal/optimizer"
	"floorplan/internal/plan"
	"floorplan/internal/selection"
	"floorplan/internal/server"
	"floorplan/internal/substore"
)

// Fixed rates and latency limits, chosen once on a 2-CPU host (README.md).
// The host's capacity, the rate at which p99 turns steeply upward, swings
// two- to threefold with contention from other virtual machines: about
// 1300 and 175 req/s quiet for ring-hit and serve-edit, and as low as 450
// and 70 when the host is busy. The fixed rates are
// about 20% (low) and 60% (high) of the busy capacity, so a busy host does
// not push them past capacity. The ladders climb geometrically, by about a
// third per step, from below the busy capacity to past the quiet one. Each
// limit sits on the steep part of its latency curve, so the ladder's
// crossing point tracks capacity rather than tail noise.
const (
	ringLow, ringHigh = 200.0, 300.0
	ringLimitMs       = 20.0

	editLow, editHigh = 15.0, 45.0
	editLimitMs       = 100.0
)

var (
	ringLadder = []float64{350, 460, 610, 800, 1050, 1400, 1850}
	editLadder = []float64{50, 65, 85, 110, 145, 190, 250}
)

// hitCorpus is the ring-hit input: a zipf-popular loadgen corpus whose
// every key is cached after warm-up.
type hitCorpus struct {
	seed   int64
	corpus []loadgen.Workload
	keys   []int // zipf-drawn key of request i
	opts   floorplan.ServeOptions
	ref    []*floorplan.Result
	mu     sync.Mutex
	seen   [][]byte // verified payload bytes per key
}

// hitKeys keys with a mild zipf skew (s=1.1, v=10): traffic spreads over
// enough keys that the run's mean request size barely depends on which
// keys the seed made popular.
const hitKeys = 128

func (h *hitCorpus) setup(requests int) error {
	var err error
	h.corpus, err = loadgen.BuildCorpus(loadgen.CorpusSpec{Keys: hitKeys, MinModules: 6, MaxModules: 16, Impls: 6}, h.seed)
	if err != nil {
		return err
	}
	h.opts = floorplan.ServeOptions{K1: 12}
	rng := rand.New(rand.NewSource(h.seed + 1))
	zipf := rand.NewZipf(rng, 1.1, 10, hitKeys-1)
	h.keys = make([]int, requests)
	for i := range h.keys {
		h.keys[i] = int(zipf.Uint64())
	}
	h.ref = make([]*floorplan.Result, len(h.corpus))
	for k, w := range h.corpus {
		h.ref[k], err = floorplan.Optimize(w.Tree, floorplan.Library(w.Library), floorplan.Options{Selection: floorplan.Selection{K1: h.opts.K1}})
		if err != nil {
			return fmt.Errorf("reference for key %d: %w", k, err)
		}
	}
	h.seen = make([][]byte, len(h.corpus))
	return nil
}

// key maps a global request index to a corpus key; indices past the
// precomputed stream wrap around it.
func (h *hitCorpus) key(i int) int { return h.keys[i%len(h.keys)] }

func (h *hitCorpus) send(ctx context.Context, i int, c *floorplan.Client) (*floorplan.ServeResponse, error) {
	w := h.corpus[h.key(i)]
	return c.Optimize(ctx, w.Tree, floorplan.Library(w.Library), h.opts)
}

// check compares a reply with the reference; a payload byte-identical to
// one already verified for its key is verified.
func (h *hitCorpus) check(i int, resp *floorplan.ServeResponse) error {
	k := h.key(i)
	h.mu.Lock()
	seen := h.seen[k]
	h.mu.Unlock()
	if seen != nil && bytes.Equal(seen, resp.Result) {
		return nil
	}
	if err := compareResult(resp, h.ref[k]); err != nil {
		return fmt.Errorf("key %d: %w", k, err)
	}
	h.mu.Lock()
	h.seen[k] = append([]byte(nil), resp.Result...)
	h.mu.Unlock()
	return nil
}

// warm sends every key once, then a burst of the zipf stream, all to the
// node that owns each key. Owners replicate a key only when they answer a
// forward, so this warms every cache and every owner's hot-key scores
// without replicating anything: the timed phases start from the steady
// state in which only the popular keys get peer-filled.
func (h *hitCorpus) warm(ctx context.Context, clients []*floorplan.Client) error {
	owner, err := owners(clients)
	if err != nil {
		return err
	}
	for k, w := range h.corpus {
		c, err := owner(w, h.opts)
		if err != nil {
			return err
		}
		resp, err := c.Optimize(ctx, w.Tree, floorplan.Library(w.Library), h.opts)
		if err != nil {
			return err
		}
		if err := compareResult(resp, h.ref[k]); err != nil {
			return fmt.Errorf("warm key %d: %w", k, err)
		}
		h.seen[k] = append([]byte(nil), resp.Result...)
	}
	if len(clients) == 1 {
		return nil
	}
	// The burst draws from the far end of the request stream, which the
	// timed phases never reach.
	for i := 0; i < 800; i++ {
		j := len(h.keys) - 1 - i
		c, err := owner(h.corpus[h.key(j)], h.opts)
		if err != nil {
			return err
		}
		resp, err := h.send(ctx, j, c)
		if err != nil {
			return err
		}
		if err := h.check(j, resp); err != nil {
			return err
		}
	}
	return nil
}

func (h *hitCorpus) bodies(n int) ([]replayInput, error) {
	out := make([]replayInput, 0, n)
	for i := 0; i < n; i++ {
		k := h.key(i)
		w := h.corpus[k]
		in, err := newReplayInput(w.Tree, floorplan.Library(w.Library), h.opts, h.seen[k])
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// owners returns a function mapping a request to the client of the node
// that owns its key, using the same ring the nodes build from -peers.
func owners(clients []*floorplan.Client) (func(loadgen.Workload, floorplan.ServeOptions) (*floorplan.Client, error), error) {
	urls := make([]string, len(clients))
	byURL := map[string]*floorplan.Client{}
	for i, c := range clients {
		urls[i] = c.BaseURL
		byURL[c.BaseURL] = c
	}
	ring, err := cluster.NewRing(urls, 0)
	if err != nil {
		return nil, err
	}
	return func(w loadgen.Workload, o floorplan.ServeOptions) (*floorplan.Client, error) {
		if len(clients) == 1 {
			return clients[0], nil
		}
		canon, err := plan.CanonicalLibrary(w.Library)
		if err != nil {
			return nil, err
		}
		k, err := cache.KeySpec{Tree: w.Tree, Lib: canon, K1: o.K1, K2: o.K2, Theta: o.Theta, S: o.S}.Key()
		if err != nil {
			return nil, err
		}
		return byURL[ring.Owner(k)], nil
	}, nil
}

// compareResult decodes a served payload and checks Best, Area, Stats and
// NodeStats against an in-process reference.
func compareResult(resp *floorplan.ServeResponse, ref *floorplan.Result) error {
	got, err := resp.DecodeResult()
	if err != nil {
		return err
	}
	want := server.ResultStats{
		PeakStored: ref.Stats.PeakStored, FinalStored: ref.Stats.FinalStored,
		Generated: ref.Stats.Generated, Nodes: ref.Stats.Nodes, LNodes: ref.Stats.LNodes,
		RSelections: ref.Stats.RSelections, LSelections: ref.Stats.LSelections,
		MaxRList: ref.Stats.MaxRList, MaxLSet: ref.Stats.MaxLSet,
	}
	switch {
	case got.Best != ref.Best:
		return fmt.Errorf("best %v, want %v", got.Best, ref.Best)
	case got.Area != ref.Best.Area():
		return fmt.Errorf("area %d, want %d", got.Area, ref.Best.Area())
	case got.Stats != want:
		return fmt.Errorf("stats %+v, want %+v", got.Stats, want)
	case !reflect.DeepEqual(got.NodeStats, ref.NodeStats):
		return fmt.Errorf("node stats differ from the reference")
	}
	return nil
}

// runRingHit: three fpserve nodes on a static ring, every key cached, with
// arrivals spread round-robin, so most land on a node that does not own
// the key. Each owner tracks about a third of the 128 keys; replicating
// its top 4 (-hot-keys 4) peer-fills the popular keys and leaves the rest
// to the forward hop, where the default top 32 would replicate nearly all.
func runRingHit(r *runner) error {
	h := &hitCorpus{seed: r.seed}
	return r.runServed(&servedSpec{
		nodes: 3, args: []string{"-hot-keys", "4"},
		low: ringLow, high: ringHigh, ladder: ringLadder, limitMs: ringLimitMs,
		setup:  func() error { return h.setup(1 << 17) },
		warm:   h.warm,
		send:   h.send,
		check:  h.check,
		finish: func(*runner) error { return nil },
		bodies: h.bodies,
	})
}

// editStream is the serve-edit input: one-module edits of FP2 and FP3,
// each request a key never seen before.
type editStream struct {
	seed  int64
	sel   floorplan.Selection
	opts  floorplan.ServeOptions
	trees [2]*floorplan.Tree
	bases [2]floorplan.Library
	// mods lists each floorplan's modules in the seed's order; edits
	// cycle through it.
	mods [2][]string
	mu   sync.Mutex
	got  map[int][]byte // payload of request i, checked after the run
}

var editParams = floorplan.ModuleGen{N: 12, Aspect: 5, MinArea: 2000000, MaxArea: 20000000}

func (e *editStream) setup() error {
	e.sel = floorplan.Selection{K1: 20, K2: 800, Theta: 0.5, S: 500}
	e.opts = floorplan.ServeOptions{K1: 20, K2: 800, Theta: 0.5, S: 500}
	for f, name := range []string{"FP2", "FP3"} {
		tree, err := floorplan.PaperFloorplan(name)
		if err != nil {
			return err
		}
		// The unedited libraries are fixed, like the solve cases; the seed
		// draws the edits. Edits cycle through every module in an order the
		// seed shuffles, so two seeds differ in the order of the edits and
		// in the new implementations, not in which spines get recomputed
		// how often.
		g := editParams
		g.Seed = int64(f) + 1
		lib, err := floorplan.GenerateModules(tree, g)
		if err != nil {
			return err
		}
		mods := tree.Modules()
		rand.New(rand.NewSource(e.seed*2+int64(f))).Shuffle(len(mods), func(i, j int) { mods[i], mods[j] = mods[j], mods[i] })
		e.trees[f], e.bases[f], e.mods[f] = tree, lib, mods
	}
	e.got = map[int][]byte{}
	return nil
}

// request returns edit i: floorplan i%2 with its next module in the
// cycle given a new implementation list, drawn from a seed derived from i.
func (e *editStream) request(i int) (int, floorplan.Library, error) {
	f := i % 2
	mod := e.mods[f][(i/2)%len(e.mods[f])]
	g := editParams
	g.Seed = rand.New(rand.NewSource(e.seed*1_000_003 + int64(i))).Int63()
	one, err := floorplan.GenerateModules(floorplan.Leaf(mod), g)
	if err != nil {
		return 0, nil, err
	}
	lib := make(floorplan.Library, len(e.bases[f]))
	for k, v := range e.bases[f] {
		lib[k] = v
	}
	lib[mod] = one[mod]
	return f, lib, nil
}

func (e *editStream) send(ctx context.Context, i int, c *floorplan.Client) (*floorplan.ServeResponse, error) {
	f, lib, err := e.request(i)
	if err != nil {
		return nil, err
	}
	return c.Optimize(ctx, e.trees[f], lib, e.opts)
}

// check keeps the payload; the comparison with the reference runs after
// the servers stop, so it does not compete with them for CPU.
func (e *editStream) check(i int, resp *floorplan.ServeResponse) error {
	if resp.Runtime.Cache != "miss" {
		return fmt.Errorf("edit %d answered %q, want a fresh computation", i, resp.Runtime.Cache)
	}
	e.mu.Lock()
	e.got[i] = resp.Result
	e.mu.Unlock()
	return nil
}

// warm primes the server's subtree store with both unedited floorplans.
func (e *editStream) warm(ctx context.Context, clients []*floorplan.Client) error {
	for f := range e.trees {
		if _, err := clients[0].Optimize(ctx, e.trees[f], e.bases[f], e.opts); err != nil {
			return err
		}
	}
	return nil
}

// finish recomputes every answered edit in process and compares. The
// reference keeps its own subtree store so that it costs what the server
// paid, not a full solve; the optimizer's results are bit-identical with
// and without the store.
func (e *editStream) finish(r *runner) error {
	store, err := substore.New(substore.Config{MaxBytes: 256 << 20})
	if err != nil {
		return err
	}
	opts := optimizer.Options{
		Policy:        selection.Policy{K1: e.sel.K1, K2: e.sel.K2, Theta: e.sel.Theta, S: e.sel.S},
		SkipPlacement: true,
		Workers:       1,
		Substore:      store,
	}
	idx := make([]int, 0, len(e.got))
	for i := range e.got {
		idx = append(idx, i)
	}
	jobs := make(chan int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var bad []string
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				err := e.verify(i, opts)
				if err != nil {
					mu.Lock()
					bad = append(bad, fmt.Sprintf("edit %d: %v", i, err))
					mu.Unlock()
				}
			}
		}()
	}
	for _, i := range idx {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, b := range bad {
		r.fail("%s", b)
	}
	return nil
}

func (e *editStream) verify(i int, opts optimizer.Options) error {
	f, lib, err := e.request(i)
	if err != nil {
		return err
	}
	olib := make(optimizer.Library, len(lib))
	for k, v := range lib {
		olib[k] = v
	}
	o, err := optimizer.New(olib, opts)
	if err != nil {
		return err
	}
	res, err := o.Run(e.trees[f])
	if err != nil {
		return err
	}
	ref := &floorplan.Result{Best: res.Best, Stats: res.Stats, NodeStats: res.NodeStats}
	return compareResult(&floorplan.ServeResponse{Result: json.RawMessage(e.got[i])}, ref)
}

func (e *editStream) bodies(n int) ([]replayInput, error) {
	out := make([]replayInput, 0, n)
	for i := 0; i < n; i++ {
		f, lib, err := e.request(i)
		if err != nil {
			return nil, err
		}
		in, err := newReplayInput(e.trees[f], lib, e.opts, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// runServeEdit: one fpserve with the subtree store on and a 1 MiB result
// cache, far below the working set, under a stream of one-module edits.
func runServeEdit(r *runner) error {
	e := &editStream{seed: r.seed}
	return r.runServed(&servedSpec{
		nodes: 1, args: []string{"-cache-mb", "1"},
		low: editLow, high: editHigh, ladder: editLadder, limitMs: editLimitMs,
		setup:  e.setup,
		warm:   e.warm,
		send:   e.send,
		check:  e.check,
		finish: e.finish,
		bodies: e.bodies,
	})
}
