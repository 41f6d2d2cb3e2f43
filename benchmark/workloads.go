package main

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/netrun"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/topk"
)

// engineKind names the execution engine a workload drives.
type engineKind uint8

const (
	engSeq  engineKind = iota // sequential engine, synchronous calls
	engPipe                   // networked engine over topk.Loopback
	engTCP                    // networked engine over real loopback TCP
	engTree                   // Config.Tree
)

// inputKind names the internal/stream generator behind a workload.
type inputKind uint8

const (
	inRandomWalk inputKind = iota // dense: every node moves every step
	inBursty                      // dense: rare large jumps
	inSparseWalk                  // delta: Changed nodes move per step
)

// spec is one named workload. The names, shapes and step counts are the
// contract later issues refer to; BENCHMARK.json lists the same names.
type spec struct {
	Name string
	Why  string // one line, mirrored into BENCHMARK.json

	Engine engineKind
	N, K   int
	Peers  int // networked engines: links at the coordinator
	Branch int // tree
	Depth  int // tree

	Input     inputKind
	Lo, Hi    int64
	MaxStep   int64
	Changed   int     // inSparseWalk
	BurstProb float64 // inBursty
	BurstMax  int64   // inBursty
	// Window pre-generates the sparse walk into a bounded window that
	// is replayed ping-pong, for sources too slow to run inline.
	Window bool

	Async      bool // Ingest{QueueDepth: asyncDepth, Overflow: OverflowBlock}
	DrainEvery int  // async: Drain after this many calls
	CkptEvery  int  // > 0: Checkpoint{Store: MemCheckpoints(), Every: CkptEvery}

	// Steps is the timed call count of a run of sizedSeconds; --seconds
	// scales it. CheckEvery is the oracle check cadence in calls (the last
	// call is always checked).
	Steps      int
	CheckEvery int

	// Dominant is the step class the budget table must explain; with
	// BudgetMean it explains the mean call instead, where the cost is
	// spread unevenly over calls of one class (a checkpoint every 16th).
	Dominant   class
	BudgetMean bool
}

const (
	asyncDepth  = 16
	warmupSteps = 50
	// windowBytes and windowSteps bound the pre-generated input window of
	// a Window workload (ids, old and new values at 8 bytes each).
	windowBytes = 64 << 20
	windowSteps = 1024
)

// workloads is the fixed table. Order is the run order of a full run.
var workloads = []spec{
	{
		Name:   "seq-sparse-quiet",
		Why:    "10^6-node bank on the sparse delta path with no violations: validation, core delta path and node-bank filter checks; protocol idle",
		Engine: engSeq, N: 1 << 20, K: 16,
		Input: inSparseWalk, Lo: 0, Hi: 1 << 40, MaxStep: 64, Changed: 4096, Window: true,
		Steps: 100000, CheckEvery: 16384, Dominant: classQuiet,
	},
	{
		Name:   "seq-dense-mixed",
		Why:    "similar-inputs regime at n=4096 where protocol executions, the coordinator machine and filter resets dominate; single-threaded baseline for the tree",
		Engine: engSeq, N: 4096, K: 16,
		Input: inRandomWalk, Lo: 0, Hi: 1 << 20, MaxStep: 64,
		Steps: 8000, CheckEvery: 1, Dominant: classReset,
	},
	{
		Name:   "pipe-dense-quiet",
		Why:    "bulk bytes over in-process pipes: dense Observe encode, pipe hand-off, host decode and node bank; protocol and small frames idle",
		Engine: engPipe, N: 1 << 16, K: 16, Peers: 2,
		Input: inRandomWalk, Lo: 0, Hi: 1 << 40, MaxStep: 64,
		Steps: 7000, CheckEvery: 64, Dominant: classQuiet,
	},
	{
		Name:   "tcp-dense-churn",
		Why:    "tiny frames and round trips over real loopback TCP under constant resets: per-frame codec, flush and syscall cost, the opposite use of wire/transport to the pipe workload",
		Engine: engTCP, N: 1024, K: 8, Peers: 2,
		Input: inBursty, Lo: 0, Hi: 1 << 20, BurstProb: 0.35, BurstMax: 1 << 18,
		Steps: 2500, CheckEvery: 1, Dominant: classReset,
	},
	{
		Name:   "tree-dense-mixed",
		Why:    "the seq-dense-mixed trace through a 2x2 coordinator tree: delegated executions, digest merges and batches; prices the hierarchy on identical decisions",
		Engine: engTree, N: 4096, K: 16, Branch: 2, Depth: 2,
		Input: inRandomWalk, Lo: 0, Hi: 1 << 20, MaxStep: 64,
		Steps: 8000, CheckEvery: 1, Dominant: classReset,
	},
	{
		Name:   "async-seq-shallow",
		Why:    "depth-16 ingest queue in front of the sequential engine: driver hand-off and pending-buffer cost per call, the layer every synchronous workload bypasses",
		Engine: engSeq, N: 4096, K: 8,
		Input: inSparseWalk, Lo: 0, Hi: 1 << 40, MaxStep: 64, Changed: 8,
		Async: true, DrainEvery: 4096,
		Steps: 12000000, CheckEvery: 4096, Dominant: classQuiet, BudgetMean: true,
	},
	{
		Name:   "ckpt-seq-sparse",
		Why:    "a checkpoint every 16 sparse steps at n=16384: snapshot, frame encode and CRC dominate; the workload delta checkpoints must move, with seq-sparse-quiet as its bypass",
		Engine: engSeq, N: 1 << 14, K: 16,
		Input: inSparseWalk, Lo: 0, Hi: 1 << 20, MaxStep: 4, Changed: 64,
		CkptEvery: 16,
		Steps:     44000, CheckEvery: 64, Dominant: classQuiet, BudgetMean: true,
	},
}

// findWorkload returns the spec in ws with the given name.
func findWorkload(ws []spec, name string) (spec, bool) {
	for _, w := range ws {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}

// feeder produces one call's input at a time and tracks the value vector
// the monitor should now hold, for the oracle checks. Generation happens
// outside every timed span.
type feeder interface {
	// next advances one step. Dense feeders return ids == nil and the full
	// vector; delta feeders return the changed ids (ascending) and values.
	// The slices are valid until the following next.
	next() (ids []int, vals []int64)
	// cur is the full current value vector.
	cur() []int64
}

type denseFeeder struct {
	src  stream.Source
	vals []int64
}

func (f *denseFeeder) next() ([]int, []int64) { f.src.Step(f.vals); return nil, f.vals }
func (f *denseFeeder) cur() []int64           { return f.vals }

// deltaFeeder runs a sparse source inline.
type deltaFeeder struct {
	src  stream.DeltaSource
	ids  []int
	vals []int64
	full []int64
}

func (f *deltaFeeder) next() ([]int, []int64) {
	c := f.src.StepDelta(f.ids, f.vals)
	for j, id := range f.ids[:c] {
		f.full[id] = f.vals[j]
	}
	return f.ids[:c], f.vals[:c]
}
func (f *deltaFeeder) cur() []int64 { return f.full }

// windowFeeder replays a pre-generated window of sparse steps ping-pong:
// forward applies each delta's new values, backward re-applies its old
// values in reverse step order. The replay is endless, bounded in memory
// and O(changed) per step, and every node stays inside the envelope it
// walked during the window, so replay adds no drift-induced violations.
type windowFeeder struct {
	full []int64
	// first is the initial dense step as a delta (every node).
	first    []int
	firstOut bool
	// Flat per-step deltas; step s covers [off[s], off[s+1]).
	ids      []int
	old, new []int64
	off      []int
	pos      int  // next step to play forward, or one past the next to undo
	back     bool // replaying backward
}

func newWindowFeeder(src stream.DeltaSource, changed int) *windowFeeder {
	n := src.N()
	f := &windowFeeder{full: make([]int64, n), first: make([]int, n)}
	ids := make([]int, n)
	vals := make([]int64, n)
	c := src.StepDelta(ids, vals) // the first step reports every node
	for j, id := range ids[:c] {
		f.full[id] = vals[j]
	}
	for i := range f.first {
		f.first[i] = i
	}
	steps := min(windowBytes/(24*changed), windowSteps)
	f.ids = make([]int, 0, steps*changed)
	f.old = make([]int64, 0, steps*changed)
	f.new = make([]int64, 0, steps*changed)
	f.off = append(make([]int, 0, steps+1), 0)
	walk := append([]int64(nil), f.full...)
	for s := 0; s < steps; s++ {
		c := src.StepDelta(ids, vals)
		for j, id := range ids[:c] {
			f.ids = append(f.ids, id)
			f.old = append(f.old, walk[id])
			f.new = append(f.new, vals[j])
			walk[id] = vals[j]
		}
		f.off = append(f.off, len(f.ids))
	}
	return f
}

func (f *windowFeeder) next() ([]int, []int64) {
	if !f.firstOut {
		f.firstOut = true
		return f.first, f.full
	}
	steps := len(f.off) - 1
	if !f.back && f.pos == steps {
		f.back = true
	} else if f.back && f.pos == 0 {
		f.back = false
	}
	var lo, hi int
	var vals []int64
	if f.back {
		f.pos--
		lo, hi = f.off[f.pos], f.off[f.pos+1]
		vals = f.old[lo:hi]
	} else {
		lo, hi = f.off[f.pos], f.off[f.pos+1]
		vals = f.new[lo:hi]
		f.pos++
	}
	ids := f.ids[lo:hi]
	for j, id := range ids {
		f.full[id] = vals[j]
	}
	return ids, vals
}
func (f *windowFeeder) cur() []int64 { return f.full }

// newFeeder builds the workload's input generator from the seed.
func (w spec) newFeeder(seed uint64) feeder {
	switch w.Input {
	case inRandomWalk:
		src := stream.NewRandomWalk(stream.WalkConfig{N: w.N, Lo: w.Lo, Hi: w.Hi, MaxStep: w.MaxStep, Seed: seed})
		return &denseFeeder{src: src, vals: make([]int64, w.N)}
	case inBursty:
		src := stream.NewBursty(stream.BurstyConfig{N: w.N, Seed: seed, Lo: w.Lo, Hi: w.Hi, BurstProb: w.BurstProb, BurstMax: w.BurstMax})
		return &denseFeeder{src: src, vals: make([]int64, w.N)}
	default:
		src := stream.NewSparseWalk(stream.SparseWalkConfig{N: w.N, Lo: w.Lo, Hi: w.Hi, MaxStep: w.MaxStep, Changed: w.Changed, Seed: seed})
		if w.Window {
			return newWindowFeeder(src, w.Changed)
		}
		return &deltaFeeder{src: src, ids: make([]int, w.N), vals: make([]int64, w.N), full: make([]int64, w.N)}
	}
}

// config is the topk.Config of the workload minus its transport.
func (w spec) config(seed uint64) topk.Config {
	cfg := topk.Config{Nodes: w.N, K: w.K, Seed: seed}
	if w.Engine == engTree {
		cfg.Tree = topk.Tree{Branch: w.Branch, Depth: w.Depth}
	}
	if w.Async {
		cfg.Ingest = topk.Ingest{QueueDepth: asyncDepth, Overflow: topk.OverflowBlock}
	}
	return cfg
}

// linkTransport is a topk.Transport over links the harness built itself
// (real TCP, or pipes with interposed wrappers). Close releases the
// listener and waits for every serve goroutine, so nothing outlives the
// workload.
type linkTransport struct {
	links []topk.Link
	stop  func()
	wg    *sync.WaitGroup
}

func (t *linkTransport) Links() []topk.Link { return t.links }

func (t *linkTransport) Close() error {
	for _, l := range t.links {
		l.Close()
	}
	if t.stop != nil {
		t.stop()
	}
	t.wg.Wait()
	return nil
}

// serve runs a host's serve loop on its own goroutine under wg and closes
// the link when the loop ends.
func serve(wg *sync.WaitGroup, link transport.Link, fn func(transport.Link) error) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer link.Close()
		_ = fn(link) // the coordinator reports a failed host as a dead peer
	}()
}

// wrapFn optionally interposes on a link end; level and index name it.
// A nil wrapFn leaves links bare.
type wrapFn func(l transport.Link, role string, index int) transport.Link

func (fn wrapFn) apply(l transport.Link, role string, index int) transport.Link {
	if fn == nil {
		return l
	}
	return fn(l, role, index)
}

// tcpTransport listens on loopback, dials peers connections whose far
// ends run netrun.Serve, and returns the accepted coordinator links.
func tcpTransport(peers int, wrap wrapFn) (*linkTransport, error) {
	return tcpLinks(peers, wrap, netrun.Serve)
}

// tcpLinks is tcpTransport with the far ends running host.
func tcpLinks(peers int, wrap wrapFn, host func(transport.Link) error) (*linkTransport, error) {
	ctx, cancel := context.WithCancel(context.Background())
	ln, err := transport.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	t := &linkTransport{wg: &sync.WaitGroup{}}
	t.stop = func() { ln.Close(); cancel() }
	// Dialing one at a time makes the accept order the dial order, so
	// host i and coordinator link i are the two ends of one connection.
	for i := 0; i < peers; i++ {
		link, err := transport.Dial(ctx, ln.Addr())
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("dial loopback: %w", err)
		}
		serve(t.wg, wrap.apply(link, roleHost, i), host)
	}
	links, err := ln.AcceptN(peers)
	if err != nil {
		t.Close()
		return nil, fmt.Errorf("accept: %w", err)
	}
	for i, l := range links {
		t.links = append(t.links, wrap.apply(l, roleCoord, i))
	}
	return t, nil
}

// pipeTransport builds peers in-process hosts behind transport.Pipe
// pairs with both ends interposed: what topk.Loopback builds, but with
// the link ends visible to the harness.
func pipeTransport(peers int, wrap wrapFn) *linkTransport {
	t := &linkTransport{wg: &sync.WaitGroup{}}
	for i := 0; i < peers; i++ {
		coordEnd, hostEnd := transport.Pipe()
		serve(t.wg, wrap.apply(hostEnd, roleHost, i), netrun.Serve)
		t.links = append(t.links, wrap.apply(coordEnd, roleCoord, i))
	}
	return t
}
