// Command topkmon runs the top-k-position monitor over a synthetic
// workload or a recorded trace and prints message and byte statistics,
// optionally with the competitive ratio against the offline OPT.
//
// Three engines are available: the sequential reference (seq), the
// sharded goroutine engine (conc), and the networked engine (net), which
// drives the wire protocol either over in-process loopback links or — in
// the -serve / -join modes — over TCP between real processes.
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
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/netrun"
	"repro/internal/order"
	"repro/internal/runtime"
	"repro/internal/shardrun"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topkmon: ")

	var (
		n        = flag.Int("n", 32, "number of nodes (ignored with -trace)")
		k        = flag.Int("k", 3, "top set size")
		steps    = flag.Int("steps", 2000, "time steps to simulate (capped by trace length)")
		seed     = flag.Uint64("seed", 1, "random seed for workload and protocols")
		workload = flag.String("workload", "walk", "one of: "+strings.Join(stream.Names(), " | "))
		traceIn  = flag.String("trace", "", "CSV trace file to replay instead of a synthetic workload")
		engine   = flag.String("engine", "seq", "seq (sequential) | conc (sharded concurrent) | net (wire protocol over loopback links)")
		peers    = flag.Int("peers", 4, "peer count: node hosts for -engine net, expected -join connections for -serve")
		shards   = flag.Int("shards", 0, "split the coordinator into this many sub-coordinators with a root merge layer (0 = single coordinator)")
		tree     = flag.String("tree", "", "coordinator tree shape branch^depth (e.g. 2^3): interior coordinators merge digests so the root serves branch^depth leaf shards through branch links; prints the per-level traffic table")
		serve    = flag.String("serve", "", "run as TCP coordinator on this address and wait for -peers joins")
		join     = flag.String("join", "", "run as TCP node host: dial this coordinator address and serve until shutdown")
		opt      = flag.Bool("opt", false, "compute offline OPT segments and the competitive ratio")
		compare  = flag.Bool("compare", false, "also run all baseline algorithms on the same workload")
		ordered  = flag.Bool("ordered", false, "monitor the exact ranking of the top-k (§5 extension)")
		epsilon  = flag.Float64("epsilon", 0, "tolerance of ε-approximate monitoring in [0, 1): filters widen to (1±ε) bands and reports are ε-approximate instead of exact (arXiv:1601.04448)")
		async    = flag.Bool("async", false, "decouple ingestion from protocol execution: stage observations in a bounded coalescing queue, Drain once at the end, and verify the final report against the oracle")
		queue    = flag.Int("queue", 64, "per-node ingest queue depth for -async (capped at n)")
		ckptDir  = flag.String("checkpoint", "", "with -serve: durable checkpoint directory; the coordinator persists CRC-sealed frames while serving and restores from the newest valid one on startup (kill-and-restart survives)")
		ckptN    = flag.Int("ckpt-every", 25, "with -serve -checkpoint: auto-checkpoint every this many steps")
	)
	flag.Parse()

	if !(*epsilon >= 0) || *epsilon >= 1 { // NaN-proof form, as in topk.New
		log.Fatalf("-epsilon must be in [0, 1), got %v", *epsilon)
	}
	if *epsilon != 0 && *ordered {
		log.Fatal("-epsilon is not supported with -ordered")
	}
	if *async {
		switch {
		case *ordered:
			log.Fatal("-async is not supported with -ordered (the ordered monitor is strictly lockstep)")
		case *opt || *compare:
			log.Fatal("-async skips per-step reports, so -opt and -compare have nothing to grade")
		case *serve != "" || *join != "":
			log.Fatal("-async is not wired into the -serve/-join demo; use -engine net for async over loopback links")
		case *queue < 1:
			log.Fatalf("-queue must be >= 1, got %d", *queue)
		}
	}

	if *ckptDir != "" {
		if *serve == "" {
			log.Fatal("-checkpoint requires -serve (the coordinator process is what gets checkpointed)")
		}
		if *ckptN < 1 {
			log.Fatalf("-ckpt-every must be >= 1, got %d", *ckptN)
		}
	}

	if *join != "" {
		runJoin(*join)
		return
	}

	matrix, err := loadMatrix(*traceIn, *workload, *n, *steps, *seed)
	if err != nil {
		log.Fatal(err)
	}
	nn, ss := len(matrix[0]), len(matrix)
	if *k < 1 || *k > nn {
		log.Fatalf("k=%d out of range for n=%d", *k, nn)
	}

	if *serve != "" {
		if *ordered {
			log.Fatal("-ordered is not supported by the networked engine yet")
		}
		runServe(*serve, *peers, nn, *k, *seed, *epsilon, matrix, *ckptDir, *ckptN)
		return
	}

	var alg sim.Algorithm
	name := "algorithm1(" + *engine + ")"
	if *epsilon != 0 {
		name = fmt.Sprintf("algorithm1(%s,ε=%g)", *engine, *epsilon)
	}
	switch {
	case *tree != "":
		shape, err := parseTree(*tree)
		if err != nil {
			log.Fatalf("-tree: %v", err)
		}
		if *ordered {
			log.Fatal("-ordered is not supported by the tree engine yet")
		}
		if *shards > 0 {
			log.Fatalf("-tree implies the shard split; drop -shards %d", *shards)
		}
		if *engine != "seq" {
			log.Fatalf("-tree runs its own engine; drop -engine %s", *engine)
		}
		te, err := shardrun.NewLoopbackTree(shardrun.Config{N: nn, K: *k, Seed: *seed + 1, Epsilon: *epsilon}, shape.Branch, shape.Depth)
		if err != nil {
			log.Fatalf("tree engine: %v", err)
		}
		defer te.Close()
		alg = te
		name = fmt.Sprintf("algorithm1(tree %d^%d)", shape.Branch, shape.Depth)
		if *epsilon != 0 {
			name = fmt.Sprintf("algorithm1(tree %d^%d,ε=%g)", shape.Branch, shape.Depth, *epsilon)
		}
	case *shards > 0:
		if *ordered {
			log.Fatal("-ordered is not supported by the sharded engine yet")
		}
		if *engine != "seq" {
			log.Fatalf("-shards runs its own engine; drop -engine %s", *engine)
		}
		if *shards > nn {
			log.Fatalf("-shards must be in [1, n], got %d for n=%d", *shards, nn)
		}
		se, err := shardrun.NewLoopback(shardrun.Config{N: nn, K: *k, Seed: *seed + 1, Epsilon: *epsilon}, *shards)
		if err != nil {
			log.Fatalf("sharded engine: %v", err)
		}
		defer se.Close()
		alg = se
		name = fmt.Sprintf("algorithm1(shard×%d)", *shards)
		if *epsilon != 0 {
			name = fmt.Sprintf("algorithm1(shard×%d,ε=%g)", *shards, *epsilon)
		}
	case *ordered && *engine == "net":
		log.Fatal("-ordered is not supported by the networked engine yet")
	case *engine == "seq":
		alg = core.New(core.Config{N: nn, K: *k, Seed: *seed + 1, Epsilon: *epsilon, Ordered: *ordered})
	case *engine == "conc":
		rt := runtime.New(runtime.Config{N: nn, K: *k, Seed: *seed + 1, Epsilon: *epsilon, Ordered: *ordered})
		defer rt.Close()
		alg = rt
	case *engine == "net":
		if *peers < 1 || *peers > nn {
			log.Fatalf("-peers must be in [1, n], got %d for n=%d", *peers, nn)
		}
		ne, err := netrun.NewLoopback(netrun.Config{N: nn, K: *k, Seed: *seed + 1, Epsilon: *epsilon}, *peers)
		if err != nil {
			log.Fatalf("networked engine: %v", err)
		}
		defer ne.Close()
		alg = ne
	default:
		log.Fatalf("unknown engine %q", *engine)
	}

	if *ordered {
		name = "ordered(" + *engine + ")"
	}

	if *async {
		runAsync(alg, matrix, *k, *queue, *epsilon, name)
		return
	}

	cfg := sim.Config{Steps: ss, K: *k, CheckEvery: 1, ComputeOpt: *opt, Epsilon: *epsilon}
	rep := sim.Run(alg, stream.NewTraceSource(matrix), cfg)
	fmt.Println(sim.Describe(name, rep))
	checkEngineErr(alg)
	if rep.Errors > 0 {
		if *epsilon != 0 {
			log.Fatalf("ε-oracle violations: %d (this is a bug)", rep.Errors)
		}
		log.Fatalf("oracle mismatches: %d (this is a bug)", rep.Errors)
	}
	if *ordered {
		// The set oracle graded every step's membership; the ranking is
		// graded where it stands at the end of the run.
		got := alg.(interface{ AppendRanking([]int) []int }).AppendRanking(nil)
		if want := sim.RankOracle(matrix[ss-1], *k); !slices.Equal(got, want) {
			log.Fatalf("final ranking %v, oracle %v (this is a bug)", got, want)
		}
		fmt.Printf("final ranking (largest first): %v\n", got)
	}
	if *opt {
		delta := sim.MeasureDelta(matrix, *k)
		fmt.Printf("workload ∆ (max k/k+1 key gap): %d\n", delta)
	}
	if mon, ok := alg.(*core.Monitor); ok {
		st := mon.Stats()
		fmt.Printf("stats: violations=%d handlers=%d resets=%d top-changes=%d\n",
			st.ViolationSteps, st.HandlerCalls, st.Resets, st.TopChanges)
	}
	if led, ok := alg.(interface{ Ledger() *comm.Ledger }); ok {
		printLedger(led.Ledger())
	}
	if ne, ok := alg.(*netrun.Engine); ok {
		printTransport(ne.TransportStats(), ne.Peers())
	}
	if se, ok := alg.(*shardrun.Engine); ok {
		oc, ob := se.Overhead(), se.OverheadBytes()
		if tr := se.Tree(); tr.Depth >= 1 {
			fmt.Printf("tree %d^%d: %d leaf shards through %d root links; root overhead: %d frames (%d down / %d up), %d bytes\n",
				tr.Branch, tr.Depth, se.Leaves(), se.Shards(), oc.Total(), oc.Down, oc.Up, ob.Total())
			printTreeStats(se)
		} else {
			fmt.Printf("shard coordination overhead (%d shards): %d frames (%d down / %d up), %d bytes\n",
				se.Shards(), oc.Total(), oc.Down, oc.Up, ob.Total())
		}
		printTransport(se.TransportStats(), se.Shards())
	}

	if *compare {
		fmt.Println()
		baselines := []struct {
			name string
			alg  sim.Algorithm
		}{
			{"per-round", baseline.NewPerRound(nn, *k, *seed+2)},
			{"naive", baseline.NewNaive(nn, *k, false)},
			{"naive-change", baseline.NewNaive(nn, *k, true)},
			{"point-filter", baseline.NewPointFilter(nn, *k)},
			{"lam-midpoint", baseline.NewLamMidpoint(nn, *k)},
		}
		for _, b := range baselines {
			r := sim.Run(b.alg, stream.NewTraceSource(matrix), cfg)
			fmt.Println(sim.Describe(b.name, r))
		}
	}
}

// runAsync drives the -async mode: each step's changed values are staged
// into a bounded last-write-wins ingest queue (Block overflow policy, so
// a slow protocol round applies backpressure instead of dropping data),
// a single Drain barrier flushes the tail, and the final report is
// verified against the offline oracle. Because queued updates of the
// same node coalesce, the worker usually executes far fewer protocol
// steps than the producer enqueued calls — the printed coalesce ratio is
// the whole point of the mode.
func runAsync(alg sim.Algorithm, matrix [][]int64, k, queue int, epsilon float64, name string) {
	type deltaEngine interface {
		ObserveDelta(ids []int, vals []int64) []int
		AppendTop(dst []int) []int
	}
	de, ok := alg.(deltaEngine)
	if !ok {
		log.Fatalf("engine %s does not support async ingestion", name)
	}
	n := len(matrix[0])
	if queue > n {
		queue = n
	}
	drv, err := ingest.New(ingest.Config{
		N: n, Depth: queue, Policy: ingest.Block,
		Apply: func(ids []int, vals []int64) error {
			de.ObserveDelta(ids, vals)
			if fe, ok := alg.(interface{ Err() error }); ok {
				return fe.Err()
			}
			return nil
		},
	})
	if err != nil {
		log.Fatalf("ingest driver: %v", err)
	}
	defer drv.Close()

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
		if err := drv.Enqueue(ids[:c], vals[:c]); err != nil {
			log.Fatalf("step %d: enqueue: %v", s, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = drv.Drain(ctx)
	cancel()
	if err != nil {
		log.Fatalf("drain: %v", err)
	}
	elapsed := time.Since(start)
	checkEngineErr(alg)

	final := matrix[len(matrix)-1]
	got := de.AppendTop(nil)
	if epsilon == 0 {
		want := sim.Oracle(final, k)
		if len(got) != len(want) {
			log.Fatalf("final report %v != oracle %v (this is a bug)", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				log.Fatalf("final report %v != oracle %v (this is a bug)", got, want)
			}
		}
	} else if !sim.EpsValid(final, got, k, epsilon) {
		log.Fatalf("final report %v is not ε-valid for ε=%g (this is a bug)", got, epsilon)
	}

	st := drv.Stats()
	fmt.Printf("%s async: %d calls -> %d protocol steps in %s (queue %d, policy block)\n",
		name, len(matrix), st.Steps, elapsed.Round(time.Microsecond), queue)
	ratio := 0.0
	if st.Enqueued > 0 {
		ratio = float64(st.Coalesced) / float64(st.Enqueued)
	}
	fmt.Printf("ingest: enqueued=%d coalesced=%d (ratio %.3f) dropped=%d max-queue=%d\n",
		st.Enqueued, st.Coalesced, ratio, st.Dropped, st.MaxQueue)
	fmt.Printf("final top-%d %v verified against the oracle\n", k, got)
	if led, ok := alg.(interface{ Ledger() *comm.Ledger }); ok {
		printLedger(led.Ledger())
	}
}

// parseTree decodes the -tree shape "branch^depth".
func parseTree(s string) (shardrun.Tree, error) {
	bs, ds, ok := strings.Cut(s, "^")
	if !ok {
		return shardrun.Tree{}, fmt.Errorf("want branch^depth (e.g. 2^3), got %q", s)
	}
	branch, err := strconv.Atoi(bs)
	if err != nil {
		return shardrun.Tree{}, fmt.Errorf("branch %q: %v", bs, err)
	}
	depth, err := strconv.Atoi(ds)
	if err != nil {
		return shardrun.Tree{}, fmt.Errorf("depth %q: %v", ds, err)
	}
	return shardrun.Tree{Branch: branch, Depth: depth}, nil
}

// printTreeStats renders the per-level traffic of a coordinator tree —
// who carried the frames at each level, leaf-most level first, with the
// root's own overhead ledger as the last row.
func printTreeStats(se *shardrun.Engine) {
	ts, err := se.TreeStats()
	if err != nil {
		fmt.Printf("tree stats unavailable: %v\n", err)
		return
	}
	fmt.Println("per-level traffic:     down-frames  up-frames  down-bytes  up-bytes")
	for i, lv := range ts.Levels {
		label := fmt.Sprintf("level %d", i)
		switch {
		case i == len(ts.Levels)-1:
			label += " (root)"
		case i == 0:
			label += " (leaf-most)"
		}
		fmt.Printf("  %-20s %11d %10d %11d %9d\n", label, lv.Down, lv.Up, lv.DownBytes, lv.UpBytes)
	}
}

// checkEngineErr aborts when a link-backed engine wedged on a dead peer
// mid-run: its remaining reports were the frozen last-good set, so the
// ledgers and reports above it are not a completed run.
func checkEngineErr(alg sim.Algorithm) {
	if fe, ok := alg.(interface{ Err() error }); ok && fe.Err() != nil {
		log.Fatalf("engine failed mid-run (reports froze at the last good step): %v", fe.Err())
	}
}

// printLedger renders the per-phase message and byte breakdown.
func printLedger(led *comm.Ledger) {
	fmt.Println("phase ledger:        msgs        up      down     bcast     bytes")
	for _, p := range comm.Phases() {
		c := led.PhaseCounts(p)
		b := led.PhaseBytes(p)
		fmt.Printf("  %-12s %9d %9d %9d %9d %9d\n", p, c.Total(), c.Up, c.Down, c.Bcast, b.Total())
	}
	c, b := led.Total(), led.TotalBytes()
	fmt.Printf("  %-12s %9d %9d %9d %9d %9d\n", "total", c.Total(), c.Up, c.Down, c.Bcast, b.Total())
}

// printTransport renders what actually crossed the links.
func printTransport(ts transport.LinkStats, peers int) {
	fmt.Printf("transport (%d peers): sent %d frames / %d bytes, received %d frames / %d bytes\n",
		peers, ts.SentFrames, ts.SentBytes, ts.RecvFrames, ts.RecvBytes)
}

// runServe is the TCP coordinator: accept the peers, restore from the
// checkpoint directory when one is configured and holds a valid frame,
// drive the (remaining) workload while auto-checkpointing, report, shut
// down.
func runServe(addr string, peers, n, k int, seed uint64, epsilon float64, matrix [][]int64, ckptDir string, ckptEvery int) {
	if peers < 1 || peers > n {
		log.Fatalf("-peers must be in [1, n], got %d for n=%d", peers, n)
	}
	var store *ckpt.File
	if ckptDir != "" {
		var err error
		if store, err = ckpt.NewFile(ckptDir); err != nil {
			log.Fatalf("checkpoint dir: %v", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln, err := transport.Listen(ctx, addr)
	if err != nil {
		log.Fatalf("listen %s: %v", addr, err)
	}
	defer ln.Close()
	fmt.Printf("coordinator on %s: waiting for %d peers (topkmon -join %s)...\n", ln.Addr(), peers, ln.Addr())
	links, err := ln.AcceptN(peers)
	if err != nil {
		log.Fatalf("accepting peers: %v", err)
	}
	necfg := netrun.Config{
		N: n, K: k, Seed: seed + 1, Epsilon: epsilon,
		// A dead peer is replaced by the next process that runs
		// `topkmon -join`; the coordinator blocks mid-recovery until one
		// arrives (Ctrl-C the coordinator to give up instead).
		Redial: func() (transport.Link, error) {
			fmt.Printf("peer lost; waiting for a replacement (topkmon -join %s)...\n", ln.Addr())
			return ln.Accept()
		},
		OnEvent: func(ev coord.Event) {
			if ev.Err != nil {
				fmt.Printf("failover: %s [%d, %d): %v\n", ev.Kind, ev.Lo, ev.Hi, ev.Err)
			} else {
				fmt.Printf("failover: %s [%d, %d)\n", ev.Kind, ev.Lo, ev.Hi)
			}
		},
	}
	var eng *netrun.Engine
	var lastGen uint64
	if store != nil {
		gen, frame, lerr := store.Load()
		switch {
		case errors.Is(lerr, ckpt.ErrNoCheckpoint):
			fmt.Printf("checkpointing to %s every %d steps (no frame yet: fresh start)\n", ckptDir, ckptEvery)
		case lerr != nil:
			log.Fatalf("checkpoint load: %v", lerr)
		default:
			var c wire.Checkpoint
			if err := c.Decode(frame); err != nil {
				log.Fatalf("checkpoint generation %d: %v", gen, err)
			}
			if c.Engine != wire.EngineNet || c.Seed != seed+1 || c.Distinct {
				log.Fatalf("checkpoint generation %d was not taken by this configuration (engine %d, seed %d)", gen, c.Engine, c.Seed)
			}
			eng, err = netrun.Restore(necfg, links, c.Machine, c.Last)
			if err != nil {
				log.Fatalf("restore: %v", err)
			}
			lastGen = gen
			fmt.Printf("restored from checkpoint generation %d (step %d); checkpointing to %s every %d steps\n",
				gen, eng.Stats().Steps, ckptDir, ckptEvery)
		}
	}
	if eng == nil {
		if eng, err = netrun.New(necfg, links); err != nil {
			log.Fatalf("handshake: %v", err)
		}
	}
	defer eng.Close()

	// Resume the trace where the checkpoint left off: the restored steps
	// were already streamed by the previous incarnation.
	src := stream.NewTraceSource(matrix)
	skip := int(eng.Stats().Steps)
	if skip > len(matrix) {
		skip = len(matrix)
	}
	discard := make([]int64, n)
	for i := 0; i < skip; i++ {
		src.Step(discard)
	}
	remaining := len(matrix) - skip
	fmt.Printf("all %d peers joined; streaming %d steps of n=%d k=%d\n", peers, remaining, n, k)
	if remaining == 0 {
		fmt.Println("checkpoint is at the end of the workload; nothing left to stream")
		printLedger(eng.Ledger())
		return
	}

	alg := &ckptAlg{Engine: eng, store: store, every: ckptEvery, gen: lastGen}
	rep := sim.Run(alg, src, sim.Config{Steps: remaining, K: k, CheckEvery: 1, Epsilon: epsilon})
	fmt.Println(sim.Describe("algorithm1(tcp)", rep))
	checkEngineErr(eng)
	if rep.Errors > 0 {
		log.Fatalf("oracle mismatches: %d (this is a bug)", rep.Errors)
	}
	if store != nil {
		fmt.Printf("checkpoints: %d written, newest generation %d in %s\n", alg.saves, alg.gen, ckptDir)
	}
	printLedger(eng.Ledger())
	printTransport(eng.TransportStats(), eng.Peers())
}

// ckptAlg wraps the networked engine for sim.Run, persisting a sealed
// checkpoint frame every `every` observed steps (no-op without a store).
// A failed attempt — e.g. a snapshot refused while peer recovery is
// pending — is reported and retried at the next boundary, never fatal:
// the previous generations stay restorable.
type ckptAlg struct {
	*netrun.Engine
	store *ckpt.File
	every int
	gen   uint64
	since int
	saves int
	buf   []byte // every frame is encoded here; the store writes it out
}

func (a *ckptAlg) Observe(vals []int64) []int {
	top := a.Engine.Observe(vals)
	if a.store == nil {
		return top
	}
	a.since++
	if a.since >= a.every {
		a.since = 0
		if err := a.checkpoint(); err != nil {
			fmt.Printf("checkpoint failed (will retry): %v\n", err)
		}
	}
	return top
}

func (a *ckptAlg) checkpoint() error {
	gen := a.gen + 1
	frame, err := a.Engine.AppendCheckpoint(a.buf[:0], gen)
	if err != nil {
		return err
	}
	a.buf = frame
	if err := a.store.Save(gen, frame); err != nil {
		return err
	}
	a.gen = gen
	a.saves++
	return nil
}

// runJoin is the TCP node host: dial the coordinator and serve its node
// range until shutdown. DialRetry tolerates a coordinator that is not
// listening yet (or is between runs), so the two sides can start in
// either order.
func runJoin(addr string) {
	ctx := context.Background()
	link, err := transport.DialRetry(ctx, addr, 20, 250*time.Millisecond)
	if err != nil {
		log.Fatalf("dial %s: %v", addr, err)
	}
	fmt.Printf("joined coordinator at %s; serving...\n", addr)
	if err := netrun.Serve(link); err != nil {
		log.Fatalf("serve: %v", err)
	}
	ts := transport.StatsOf(link)
	fmt.Printf("shutdown: sent %d frames / %d bytes, received %d frames / %d bytes\n",
		ts.SentFrames, ts.SentBytes, ts.RecvFrames, ts.RecvBytes)
}

// loadMatrix materializes the workload: either a CSV trace or a synthetic
// generator collected for the requested horizon.
func loadMatrix(tracePath, workload string, n, steps int, seed uint64) ([][]int64, error) {
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

// checkDomain rejects a matrix holding a value no engine can take: the
// engines leave the value domain to their boundary — this command — and
// answer a violation with a panic.
func checkDomain(matrix [][]int64) error {
	if len(matrix) == 0 {
		return nil
	}
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
