// Command topkmon runs the top-k-position monitor over a synthetic
// workload or a recorded trace and prints message and byte statistics,
// optionally with the competitive ratio against the offline OPT.
//
// It is a client of the public package: the flags become one topk.Config,
// topk.New (NewOrdered with -ordered, Restore after a crash) builds the
// monitor, and internal/sim grades its report at every step. Five monitor
// shapes are available: the sequential reference (-engine seq), the same
// monitor with its sweeps on a goroutine pool (-engine conc), the networked
// monitor (-engine net) driving the wire protocol over in-process loopback
// links or — in the -serve / -join modes — over TCP between real processes,
// a star of sub-coordinators under a root merge layer (-shards), and a
// tree of them (-tree).
//
// Examples:
//
//	topkmon -n 32 -k 3 -steps 2000 -workload walk
//	topkmon -n 64 -k 5 -workload converging -opt
//	topkmon -trace trace.csv -k 2 -engine conc
//	topkmon -n 16 -k 2 -compare
//	topkmon -n 64 -k 4 -engine net -peers 4
//	topkmon -n 256 -k 8 -shards 4
//	topkmon -n 256 -k 8 -tree 2^3
//	topkmon -n 64 -k 8 -epsilon 0.05
//	topkmon -n 256 -k 8 -async -queue 128 -engine net
//
// Two-process demo (run the joins in separate terminals or machines; the
// coordinator waits for all peers before streaming the workload):
//
//	topkmon -serve 127.0.0.1:7070 -peers 2 -n 64 -k 4 -steps 2000
//	topkmon -join 127.0.0.1:7070
//	topkmon -join 127.0.0.1:7070
//
// Kill-and-restart demo: add -checkpoint to the coordinator and it
// persists CRC-sealed frames while serving. Ctrl-C it mid-run, rerun
// the same command (and fresh joins), and it restores from the newest
// valid frame and streams only the remaining steps:
//
//	topkmon -serve 127.0.0.1:7070 -peers 2 -steps 2000 -checkpoint /tmp/ckpt
//	^C                                      (coordinator dies at step ~1200)
//	topkmon -serve 127.0.0.1:7070 -peers 2 -steps 2000 -checkpoint /tmp/ckpt
//	restored from checkpoint generation 48 (step 1200); ...
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/comm"
	"repro/internal/order"
	"repro/internal/peerlinks"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/topk"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, prints its report to stdout and
// returns the exit code — 0, or 1 with one "topkmon: …" line on stderr
// (2 for a command line the flag package refuses).
func run(args []string, stdout, stderr io.Writer) int {
	return runContext(context.Background(), args, stdout, stderr)
}

// options holds the flags; out is where the report goes.
type options struct {
	n, k, steps       int
	seed              uint64
	workload, traceIn string
	engine            string
	peers, shards     int
	tree              string
	serve, join       string
	opt, compare      bool
	ordered           bool
	epsilon           float64
	async             bool
	queue             int
	ckptDir           string
	ckptEvery         int

	out io.Writer
}

// runContext is run under a context whose end takes a -serve coordinator's
// listener and links, or a -join host's dial, down with it.
func runContext(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o := options{out: stdout}
	fs := flag.NewFlagSet("topkmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&o.n, "n", 32, "number of nodes (ignored with -trace)")
	fs.IntVar(&o.k, "k", 3, "top set size")
	fs.IntVar(&o.steps, "steps", 2000, "time steps to simulate (capped by trace length)")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed for workload and protocols")
	fs.StringVar(&o.workload, "workload", "walk", "one of: "+strings.Join(stream.Names(), " | "))
	fs.StringVar(&o.traceIn, "trace", "", "CSV trace file to replay instead of a synthetic workload")
	fs.StringVar(&o.engine, "engine", "seq", "seq (sequential) | conc (the same monitor, sweeps on a goroutine pool) | net (wire protocol over loopback links; over TCP with -serve)")
	fs.IntVar(&o.peers, "peers", 4, "peer count: node hosts for -engine net, expected -join connections for -serve")
	fs.IntVar(&o.shards, "shards", 0, "split the coordinator into this many sub-coordinators with a root merge layer (0 = single coordinator)")
	fs.StringVar(&o.tree, "tree", "", "coordinator tree shape branch^depth (e.g. 2^3): interior coordinators merge digests so the root serves branch^depth leaf shards through branch links; prints the per-level traffic table")
	fs.StringVar(&o.serve, "serve", "", "run as TCP coordinator on this address and wait for -peers joins")
	fs.StringVar(&o.join, "join", "", "run as TCP node host: dial this coordinator address and serve until shutdown")
	fs.BoolVar(&o.opt, "opt", false, "compute offline OPT segments and the competitive ratio")
	fs.BoolVar(&o.compare, "compare", false, "also run all baseline algorithms on the same workload")
	fs.BoolVar(&o.ordered, "ordered", false, "monitor the exact ranking of the top-k (§5 extension)")
	fs.Float64Var(&o.epsilon, "epsilon", 0, "tolerance of ε-approximate monitoring in [0, 1): filters widen to (1±ε) bands and reports are ε-approximate instead of exact (arXiv:1601.04448)")
	fs.BoolVar(&o.async, "async", false, "decouple ingestion from protocol execution: stage observations in a bounded coalescing queue, Drain once at the end, and verify the final report against the oracle")
	fs.IntVar(&o.queue, "queue", 64, "per-node ingest queue depth for -async (capped at n)")
	fs.StringVar(&o.ckptDir, "checkpoint", "", "with -serve: durable checkpoint directory; the coordinator persists CRC-sealed frames while serving and restores from the newest valid one on startup (kill-and-restart survives)")
	fs.IntVar(&o.ckptEvery, "ckpt-every", 25, "with -serve -checkpoint: auto-checkpoint every this many steps")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := o.main(ctx); err != nil {
		fmt.Fprintf(stderr, "topkmon: %v\n", err)
		return 1
	}
	return 0
}

// main refuses what only the command can know is wrong — flags that ask
// for nothing, or for a grade the chosen mode does not give; everything a
// topk.Config can say is left for topk to refuse — and runs the mode.
func (o *options) main(ctx context.Context) error {
	switch {
	case (o.opt || o.compare) && (o.async || o.serve != ""):
		return errors.New("-opt and -compare grade every step of a whole run: -async skips the per-step reports, -serve streams what a restore left of the trace")
	case o.async && (o.serve != "" || o.join != ""):
		return errors.New("-async is not wired into the -serve/-join demo; use -engine net for async over loopback links")
	case o.async && o.queue < 1:
		return fmt.Errorf("-queue must be >= 1, got %d", o.queue)
	case o.ckptDir != "" && o.serve == "":
		return errors.New("-checkpoint requires -serve (the coordinator process is what gets checkpointed)")
	case o.ckptDir != "" && o.ckptEvery < 1:
		return fmt.Errorf("-ckpt-every must be >= 1, got %d", o.ckptEvery)
	}
	if o.join != "" {
		return o.runJoin(ctx)
	}
	matrix, err := loadMatrix(o.traceIn, o.workload, o.n, o.steps, o.seed)
	if err != nil {
		return err
	}
	cfg, err := o.config(len(matrix[0]))
	if err != nil {
		return err
	}
	if o.serve != "" {
		return o.runServe(ctx, cfg, matrix)
	}
	g, err := o.build(cfg, false)
	if err != nil {
		return err
	}
	defer g.Close()
	if o.async {
		return o.runAsync(ctx, g.mon, cfg, matrix)
	}
	return o.runSync(g, cfg, matrix)
}

// config maps the flags to the monitor's configuration, n being the
// workload's width. -serve adds its transport, failover hooks and
// checkpoint store to it.
func (o *options) config(n int) (topk.Config, error) {
	cfg := topk.Config{Nodes: n, K: o.k, Seed: o.seed + 1, Epsilon: o.epsilon, Shards: o.shards}
	if t := &cfg.Tree; o.tree != "" {
		// The shape is "branch^depth"; 0^0 is topk's "no tree", not one to ask for.
		if _, err := fmt.Sscanf(o.tree, "%d^%d", &t.Branch, &t.Depth); err != nil || fmt.Sprintf("%d^%d", t.Branch, t.Depth) != o.tree || *t == (topk.Tree{}) {
			return cfg, fmt.Errorf("-tree: want branch^depth (e.g. 2^3), got %q", o.tree)
		}
	}
	if o.async {
		cfg.Ingest = topk.Ingest{QueueDepth: min(o.queue, n)}
	}
	switch o.engine {
	case "seq":
	case "conc":
		cfg.Concurrent = true
	case "net":
		if o.serve == "" {
			// Last, so that nothing here fails with hosts already spawned.
			cfg.Transport = topk.Loopback(o.peers)
		}
	default:
		return cfg, fmt.Errorf("unknown engine %q", o.engine)
	}
	return cfg, nil
}

// name labels the run in its summary line.
func (o *options) name(cfg topk.Config) string {
	shape := o.engine
	switch {
	case o.ordered: // on seq and conc alone, and without ε
		return "ordered(" + shape + ")"
	case o.serve != "":
		shape = "tcp"
	case cfg.Tree != topk.Tree{}:
		shape = fmt.Sprintf("tree %d^%d", cfg.Tree.Branch, cfg.Tree.Depth)
	case cfg.Shards > 0:
		shape = fmt.Sprintf("shard×%d", cfg.Shards)
	}
	if o.epsilon != 0 {
		shape += fmt.Sprintf(",ε=%g", o.epsilon)
	}
	return "algorithm1(" + shape + ")"
}

// ledgers is what the report reads off either public monitor.
type ledgers interface {
	Counts() topk.Counts
	Bytes() topk.Bytes
	Phases() topk.PhaseCounts
	BytesByPhase() topk.PhaseBytes
	Stats() topk.Stats
	Close()
}

// graded is the monitor under test as sim.Run drives it: a sim.Algorithm
// whose Observe is the public monitor's. With -ordered the public report
// is the ranking; graded holds it to sim.RankOracle itself and hands
// sim.Run the ascending set.
type graded struct {
	ledgers
	mon *topk.Monitor        // nil with -ordered
	ord *topk.OrderedMonitor // nil without
	k   int

	// prev, when non-nil, is the row fed last: the next one is fed as the
	// nodes that differ from it (the TCP coordinator's way, so that what
	// crosses its links and what its checkpoints carry is what changed).
	prev  []int64
	ids   []int // the call's buffers, reused
	moved []int64

	err        error // the first error a step returned
	rankErrors int   // steps whose ranking was not the oracle's
}

// build constructs the monitor cfg describes: the ordered one with -ordered,
// one restored from the newest frame in cfg's checkpoint store when restore
// is set, a fresh one otherwise.
func (o *options) build(cfg topk.Config, restore bool) (*graded, error) {
	g := &graded{k: cfg.K}
	var err error
	switch {
	case o.ordered:
		g.ord, err = topk.NewOrdered(cfg)
		g.ledgers = g.ord
	case restore:
		g.mon, err = topk.Restore(cfg.Checkpoint.Store, cfg)
		g.ledgers = g.mon
	default:
		g.mon, err = topk.New(cfg)
		g.ledgers = g.mon
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

// Observe implements sim.Algorithm.
func (g *graded) Observe(vals []int64) []int {
	var top []int
	var err error
	if g.ord != nil {
		if top, err = g.ord.Observe(vals); err == nil {
			if !slices.Equal(top, sim.RankOracle(vals, g.k)) {
				g.rankErrors++
			}
			slices.Sort(top) // the ranking is a fresh slice every step
		}
	} else if g.prev != nil {
		g.ids, g.moved = g.ids[:0], g.moved[:0]
		for id, v := range vals {
			if v != g.prev[id] {
				g.ids, g.moved = append(g.ids, id), append(g.moved, v)
			}
		}
		copy(g.prev, vals)
		top, err = g.mon.ObserveDelta(g.ids, g.moved)
	} else {
		top, err = g.mon.Observe(vals)
	}
	if err != nil && g.err == nil {
		g.err = err
	}
	return top
}

// Counts implements sim.Algorithm.
func (g *graded) Counts() comm.Counts {
	c := g.ledgers.Counts()
	return comm.Counts{Up: c.Up, Down: c.Down, Bcast: c.Broadcast}
}

// Bytes implements sim.ByteCounter.
func (g *graded) Bytes() comm.Bytes {
	b := g.ledgers.Bytes()
	return comm.Bytes{Up: b.Up, Down: b.Down, Bcast: b.Broadcast}
}

// runSync drives the monitor over matrix step by step, every report graded
// against the oracle, and prints the run's summary, ledgers and — for the
// shapes that have them — link statistics.
func (o *options) runSync(g *graded, cfg topk.Config, matrix [][]int64) error {
	simCfg := sim.Config{Steps: len(matrix), K: o.k, CheckEvery: 1, ComputeOpt: o.opt, Epsilon: o.epsilon}
	rep := sim.Run(g, stream.NewTraceSource(matrix), simCfg)
	rep.Errors += g.rankErrors
	fmt.Fprintln(o.out, sim.Describe(o.name(cfg), rep))
	if g.err != nil {
		// A link-backed monitor went terminal on a dead peer mid-run; the
		// ledgers and reports above are not a completed run.
		return fmt.Errorf("monitor failed mid-run: %w", g.err)
	}
	if rep.Errors > 0 {
		return fmt.Errorf("oracle mismatches: %d (this is a bug)", rep.Errors)
	}
	if g.ord != nil {
		fmt.Fprintf(o.out, "final ranking (largest first): %v\n", g.ord.Top())
	}
	if o.opt {
		fmt.Fprintf(o.out, "workload ∆ (max k/k+1 key gap): %d\n", sim.MeasureDelta(matrix, o.k))
	}
	st := g.Stats()
	fmt.Fprintf(o.out, "stats: violations=%d handlers=%d resets=%d top-changes=%d\n",
		st.ViolationSteps, st.HandlerCalls, st.Resets, st.TopChanges)
	o.printLedger(g.ledgers)
	if g.mon != nil {
		o.printLinks(g.mon, cfg)
	}
	if o.compare {
		fmt.Fprintln(o.out)
		n := cfg.Nodes
		for _, b := range []struct {
			name string
			alg  sim.Algorithm
		}{
			{"per-round", baseline.NewPerRound(n, o.k, o.seed+2)},
			{"naive", baseline.NewNaive(n, o.k, false)},
			{"naive-change", baseline.NewNaive(n, o.k, true)},
			{"point-filter", baseline.NewPointFilter(n, o.k)},
			{"lam-midpoint", baseline.NewLamMidpoint(n, o.k)},
		} {
			r := sim.Run(b.alg, stream.NewTraceSource(matrix), simCfg)
			fmt.Fprintln(o.out, sim.Describe(b.name, r))
		}
	}
	return nil
}

// runAsync drives the -async mode: each step's changed values are staged
// on the monitor's bounded last-write-wins ingest queue (the Block overflow
// policy, so a slow protocol round applies backpressure instead of dropping
// data), a single Drain barrier flushes the tail, and the final report is
// verified against the offline oracle. Because queued updates of the
// same node coalesce, the worker usually executes far fewer protocol
// steps than the producer enqueued calls — the printed coalesce ratio is
// the whole point of the mode.
func (o *options) runAsync(ctx context.Context, mon *topk.Monitor, cfg topk.Config, matrix [][]int64) error {
	n := cfg.Nodes
	ids := make([]int, n)
	vals := make([]int64, n)
	prev := make([]int64, n)
	start := time.Now()
	for s, row := range matrix {
		c := 0
		for i, v := range row {
			if s == 0 || v != prev[i] {
				ids[c], vals[c] = i, v
				c++
			}
		}
		copy(prev, row)
		if _, err := mon.ObserveDelta(ids[:c], vals[:c]); err != nil {
			return fmt.Errorf("step %d: enqueue: %w", s, err)
		}
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	err := mon.Drain(ctx)
	cancel()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	elapsed := time.Since(start)

	final := matrix[len(matrix)-1]
	got := mon.AppendTop(nil)
	if !sim.EpsValid(final, got, o.k, o.epsilon) { // at ε = 0: got is the oracle's set
		return fmt.Errorf("final report %v, oracle %v, ε=%g (this is a bug)", got, sim.Oracle(final, o.k), o.epsilon)
	}

	st := mon.IngestStats()
	fmt.Fprintf(o.out, "%s async: %d calls -> %d protocol steps in %s (queue %d, policy block)\n",
		o.name(cfg), len(matrix), st.Batches, elapsed.Round(time.Microsecond), cfg.Ingest.QueueDepth)
	// The first step alone enqueues n updates, so the ratio has a denominator.
	fmt.Fprintf(o.out, "ingest: enqueued=%d coalesced=%d (ratio %.3f) dropped=%d max-queue=%d\n",
		st.Enqueued, st.Coalesced, float64(st.Coalesced)/float64(st.Enqueued), st.Dropped, st.MaxQueue)
	fmt.Fprintf(o.out, "final top-%d %v verified against the oracle\n", o.k, got)
	o.printLedger(mon)
	return nil
}

// printLedger renders the per-phase message and byte breakdown.
func (o *options) printLedger(m ledgers) {
	fmt.Fprintln(o.out, "phase ledger:        msgs        up      down     bcast     bytes")
	row := func(name string, c topk.Counts, b topk.Bytes) {
		fmt.Fprintf(o.out, "  %-12s %9d %9d %9d %9d %9d\n", name, c.Total(), c.Up, c.Down, c.Broadcast, b.Total())
	}
	pc, pb := m.Phases(), m.BytesByPhase()
	row("violation", pc.Violation, pb.Violation)
	row("handler", pc.Handler, pb.Handler)
	row("reset", pc.Reset, pb.Reset)
	row("total", m.Counts(), m.Bytes())
}

// printLinks renders what the link-backed shapes add to the report: the
// root↔shard coordination overhead of a star or a tree, a tree's per-level
// traffic, and what actually crossed the links. The in-process monitors
// have no peers and print nothing.
func (o *options) printLinks(mon *topk.Monitor, cfg topk.Config) {
	links := len(mon.Health().Peers)
	if links == 0 {
		return
	}
	oc, ob := mon.Overhead()
	if t := cfg.Tree; t != (topk.Tree{}) {
		leaves := 1
		for range t.Depth {
			leaves *= t.Branch
		}
		fmt.Fprintf(o.out, "tree %d^%d: %d leaf shards through %d root links; root overhead: %d frames (%d down / %d up), %d bytes\n",
			t.Branch, t.Depth, leaves, links, oc.Total(), oc.Down, oc.Up, ob.Total())
		// Who carried the frames at each level, leaf-most level first, the
		// root's own overhead ledger last. The poll is charged to no ledger
		// and shows in the transport line below.
		ts, err := mon.TreeStats()
		if err != nil {
			fmt.Fprintf(o.out, "tree stats unavailable: %v\n", err)
		} else {
			fmt.Fprintln(o.out, "per-level traffic:     down-frames  up-frames  down-bytes  up-bytes")
		}
		for i, lv := range ts.Levels { // none after an error
			label := fmt.Sprintf("level %d", i)
			switch {
			case i == len(ts.Levels)-1:
				label += " (root)"
			case i == 0:
				label += " (leaf-most)"
			}
			fmt.Fprintf(o.out, "  %-20s %11d %10d %11d %9d\n", label, lv.Down, lv.Up, lv.DownBytes, lv.UpBytes)
		}
	} else if cfg.Shards > 0 {
		fmt.Fprintf(o.out, "shard coordination overhead (%d shards): %d frames (%d down / %d up), %d bytes\n",
			links, oc.Total(), oc.Down, oc.Up, ob.Total())
	}
	ts := mon.TransportStats()
	fmt.Fprintf(o.out, "transport (%d peers): sent %d frames / %d bytes, received %d frames / %d bytes\n",
		links, ts.SentFrames, ts.SentBytes, ts.RecvFrames, ts.RecvBytes)
}

// runServe is the TCP coordinator: the networked monitor over the links of
// the first -peers processes to join, restored from the checkpoint
// directory when one is configured and holds a valid frame. It streams what
// is left of the workload, the monitor checkpointing itself as it goes, and
// reports. The monitor asks for its links once topk has accepted everything
// else about cfg, so a refused command line never tells anyone to join.
func (o *options) runServe(ctx context.Context, cfg topk.Config, matrix [][]int64) error {
	if o.peers < 1 || o.peers > cfg.Nodes {
		return fmt.Errorf("-peers must be in [1, n], got %d for n=%d", o.peers, cfg.Nodes)
	}
	restore := false
	if o.ckptDir != "" {
		store, err := topk.FileCheckpoints(o.ckptDir)
		if err != nil {
			return fmt.Errorf("checkpoint dir: %w", err)
		}
		cfg.Checkpoint = topk.Checkpoint{Store: store, Every: o.ckptEvery}
		// Restore closes the links it is given on every error, "nothing saved
		// yet" included, so the store is asked here, before anyone has joined.
		if _, _, err := store.Load(); err == nil {
			restore = true
		} else if !errors.Is(err, topk.ErrNoCheckpoint) {
			return fmt.Errorf("checkpoint load: %w", err)
		}
	}
	ln, err := transport.Listen(ctx, o.serve)
	if err != nil {
		return err
	}
	tr := peerlinks.New(func() ([]transport.Link, error) {
		fmt.Fprintf(o.out, "coordinator on %s: waiting for %d peers (topkmon -join %s)...\n", ln.Addr(), o.peers, ln.Addr())
		return ln.AcceptN(o.peers)
	}, ln.Close)
	cfg.Transport = tr
	// A dead peer is replaced by the next process that runs `topkmon -join`;
	// the coordinator blocks mid-recovery until one arrives (Ctrl-C the
	// coordinator to give up instead).
	cfg.Redial = func() (topk.Link, error) {
		fmt.Fprintf(o.out, "peer lost; waiting for a replacement (topkmon -join %s)...\n", ln.Addr())
		return ln.Accept()
	}
	cfg.OnEvent = func(ev topk.Event) {
		if ev.Err != nil {
			fmt.Fprintf(o.out, "failover: %s [%d, %d): %v\n", ev.Kind, ev.Lo, ev.Hi, ev.Err)
		} else {
			fmt.Fprintf(o.out, "failover: %s [%d, %d)\n", ev.Kind, ev.Lo, ev.Hi)
		}
	}
	g, err := o.build(cfg, restore)
	if tr.Err() != nil {
		return fmt.Errorf("accepting peers: %w", tr.Err()) // why topk was handed no links
	}
	if err != nil {
		return err
	}
	defer g.Close()

	// Resume the trace where the checkpoint left off: the restored steps
	// were already streamed by the previous incarnation. (NewOrdered takes
	// no Transport, so the monitor built here is never the ordered one.)
	done := g.Stats().Steps
	if gen := g.mon.CheckpointStats().LastGen; gen > 0 {
		fmt.Fprintf(o.out, "restored from checkpoint generation %d (step %d); checkpointing to %s every %d steps\n",
			gen, done, o.ckptDir, o.ckptEvery)
	} else if o.ckptDir != "" {
		fmt.Fprintf(o.out, "checkpointing to %s every %d steps (no frame yet: fresh start)\n", o.ckptDir, o.ckptEvery)
	}
	// Rows go out as what changed since the row before; a fresh start holds
	// every node at 0, a restored one at the last row its checkpoint covers.
	g.prev = make([]int64, cfg.Nodes)
	if done > 0 && int(done) <= len(matrix) {
		copy(g.prev, matrix[done-1])
	}
	matrix = matrix[min(int(done), len(matrix)):]
	fmt.Fprintf(o.out, "all %d peers joined; streaming %d steps of n=%d k=%d\n", o.peers, len(matrix), cfg.Nodes, o.k)
	if len(matrix) == 0 {
		fmt.Fprintln(o.out, "checkpoint is at the end of the workload; nothing left to stream")
		o.printLedger(g.ledgers)
		return nil
	}
	if err := o.runSync(g, cfg, matrix); err != nil {
		return err
	}
	if cs := g.mon.CheckpointStats(); o.ckptDir != "" {
		// An attempt fails while peer recovery is pending; the monitor retries
		// at the next boundary and the earlier generations stay restorable.
		fmt.Fprintf(o.out, "checkpoints: %d written — %d bases, %d deltas, %d bytes — (%d attempts failed and were retried), newest generation %d in %s\n",
			cs.Saves, cs.Bases, cs.Deltas, cs.Bytes, cs.Failures, cs.LastGen, o.ckptDir)
	}
	return nil
}

// runJoin is the TCP node host: dial the coordinator and serve its node
// range until shutdown. DialRetry tolerates a coordinator that is not
// listening yet (or is between runs), so the two sides can start in
// either order.
func (o *options) runJoin(ctx context.Context) error {
	link, err := transport.DialRetry(ctx, o.join, 20, 250*time.Millisecond)
	if err != nil {
		return fmt.Errorf("dial %s: %w", o.join, err)
	}
	fmt.Fprintf(o.out, "joined coordinator at %s; serving...\n", o.join)
	if err := topk.ServeNodes(link); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	ts := transport.StatsOf(link)
	fmt.Fprintf(o.out, "shutdown: sent %d frames / %d bytes, received %d frames / %d bytes\n",
		ts.SentFrames, ts.SentBytes, ts.RecvFrames, ts.RecvBytes)
	return nil
}

// loadMatrix materializes the workload: either a CSV trace or a synthetic
// generator collected for the requested horizon.
func loadMatrix(tracePath, workload string, n, steps int, seed uint64) ([][]int64, error) {
	if steps < 1 {
		return nil, fmt.Errorf("-steps must be >= 1, got %d", steps)
	}
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		rows, err := stream.ReadCSV(f)
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			return nil, fmt.Errorf("%s: no rows", tracePath)
		}
		if steps < len(rows) {
			rows = rows[:steps]
		}
		if err := checkDomain(rows); err != nil {
			return nil, fmt.Errorf("%s: %w", tracePath, err)
		}
		return rows, nil
	}
	src, err := stream.FromSpec(stream.Spec{Name: workload, N: n, Steps: steps, Seed: seed})
	if err != nil {
		return nil, err
	}
	if c, ok := src.(*stream.Converging); ok {
		steps = c.CycleLen() // one full cycle is the natural horizon
	}
	return stream.Collect(src, steps), nil
}

// checkDomain rejects a trace holding a value no monitor can take, naming
// the row it stands in: left to topk.Monitor the same value would surface
// as an error from Observe in the middle of the run.
func checkDomain(matrix [][]int64) error {
	n := len(matrix[0])
	limit := order.MaxValueFor(n, false)
	for row, vals := range matrix {
		for node, v := range vals {
			if v > limit || v < -limit {
				return fmt.Errorf("row %d, node %d: value %d outside the value domain [-%d, %d] for %d nodes", row, node, v, limit, limit, n)
			}
		}
	}
	return nil
}
