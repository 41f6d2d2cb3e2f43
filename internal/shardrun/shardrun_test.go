package shardrun

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/transport"
)

// mustLoopback builds a flat engine over loopback shard links, with no
// Redial unless cfg brings one, failing the test on constructor errors
// (impossible for the valid configs used here).
func mustLoopback(tb testing.TB, cfg Config, shards int) *Engine {
	tb.Helper()
	e, err := New(cfg, LoopbackLinks(shards))
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	return e
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// gathers lists the two ways the root collects a round's answers, as the
// GOMAXPROCS setting that selects each; every equivalence, chaos and
// failover case runs under both on every host. "pipelined" is the reader
// gather and "lockstep" the direct drain: the labels are pinned by the test
// floor, not by what they run — see the table of the same name in
// internal/netrun's tests.
var gathers = []struct {
	name  string
	procs int
}{
	{"pipelined", 2}, // the reader gather
	{"lockstep", 1},  // the direct drain
}

// setGather pins GOMAXPROCS for the rest of the (sub)test, and with it the
// gather of every engine built from here on, and logs which one that is.
// None of these tests is parallel.
func setGather(t *testing.T, procs int) {
	gather := "reader goroutines"
	if procs == 1 {
		gather = "direct drain"
	}
	t.Logf("gather: %s (GOMAXPROCS=%d); the subtest label is historical, see gathers", gather, procs)
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestSingleShardBitIdentical is the anchor of the sharded engine: with
// S=1 the delegation layer must be completely transparent — reports,
// message counts, charged bytes and the per-phase ledgers all equal the
// sequential engine's bit for bit, at every step, under both gathers.
func TestSingleShardBitIdentical(t *testing.T) {
	for _, g := range gathers {
		t.Run(g.name, func(t *testing.T) {
			setGather(t, g.procs)
			testSingleShardBitIdentical(t)
		})
	}
}

func testSingleShardBitIdentical(t *testing.T) {
	const n, k, seed, steps = 13, 4, 41, 250
	seq := core.New(core.Config{N: n, K: k, Seed: seed})
	sh := mustLoopback(t, Config{N: n, K: k, Seed: seed}, 1)
	defer sh.Close()

	srcA := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 400, Seed: 2})
	srcB := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 400, Seed: 2})
	va, vb := make([]int64, n), make([]int64, n)
	for s := 0; s < steps; s++ {
		srcA.Step(va)
		srcB.Step(vb)
		topSeq := seq.Observe(va)
		topSh := sh.Observe(vb)
		if !equal(topSeq, topSh) {
			t.Fatalf("step %d: reports differ: seq=%v shard=%v", s, topSeq, topSh)
		}
		if cs, cn := seq.Counts(), sh.Counts(); cs != cn {
			t.Fatalf("step %d: counts differ: seq=%v shard=%v", s, cs, cn)
		}
		if bs, bn := seq.Ledger().TotalBytes(), sh.Bytes(); bs != bn {
			t.Fatalf("step %d: bytes differ: seq=%v shard=%v", s, bs, bn)
		}
	}
	for _, ph := range comm.Phases() {
		if cs, cn := seq.Ledger().PhaseCounts(ph), sh.Ledger().PhaseCounts(ph); cs != cn {
			t.Fatalf("phase %v counts differ: seq=%v shard=%v", ph, cs, cn)
		}
		if bs, bn := seq.Ledger().PhaseBytes(ph), sh.Ledger().PhaseBytes(ph); bs != bn {
			t.Fatalf("phase %v bytes differ: seq=%v shard=%v", ph, bs, bn)
		}
	}
	if seq.Stats() != sh.Stats() {
		t.Fatalf("stats differ: seq=%+v shard=%+v", seq.Stats(), sh.Stats())
	}
	if sh.Overhead().Total() == 0 || sh.OverheadBytes().Total() == 0 {
		t.Fatal("coordination overhead ledger stayed empty")
	}
}

// TestMultiShardReportEquivalence runs the matrix S ∈ {1, 2, 4} over
// loopback pipes: reports must equal the sequential engine's at every
// step for every shard count (message counts legitimately differ for
// S > 1 — each shard pays its own protocol rounds).
func TestMultiShardReportEquivalence(t *testing.T) {
	cases := []struct {
		name string
		n, k int
		src  func(n int) stream.Source
	}{
		{"walk", 12, 3, func(n int) stream.Source {
			return stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 400, Seed: 2})
		}},
		{"iid", 9, 2, func(n int) stream.Source {
			return stream.NewIID(stream.IIDConfig{N: n, Seed: 3, Dist: stream.Uniform, Lo: 0, Hi: 1 << 20})
		}},
		{"rotation", 7, 1, func(n int) stream.Source {
			return stream.NewRotation(stream.RotationConfig{N: n, Period: 4, Base: 10, Peak: 1000})
		}},
		{"twoband", 14, 4, func(n int) stream.Source {
			return stream.NewTwoBand(stream.TwoBandConfig{N: n, K: 4, Seed: 5, Gap: 1 << 16, BandWidth: 1 << 8, MaxStep: 40, SwapEvery: 30})
		}},
		{"k-equals-n", 6, 6, func(n int) stream.Source {
			return stream.NewIID(stream.IIDConfig{N: n, Seed: 6, Dist: stream.Uniform, Lo: 0, Hi: 1000})
		}},
	}
	for _, g := range gathers {
		for _, tc := range cases {
			for _, shards := range []int{1, 2, 4} {
				if shards > tc.n {
					continue
				}
				t.Run(g.name+"/"+tc.name, func(t *testing.T) {
					setGather(t, g.procs)
					const seed, steps = 41, 200
					seq := core.New(core.Config{N: tc.n, K: tc.k, Seed: seed})
					sh := mustLoopback(t, Config{N: tc.n, K: tc.k, Seed: seed}, shards)
					defer sh.Close()

					srcA, srcB := tc.src(tc.n), tc.src(tc.n)
					va, vb := make([]int64, tc.n), make([]int64, tc.n)
					for s := 0; s < steps; s++ {
						srcA.Step(va)
						srcB.Step(vb)
						topSeq := seq.Observe(va)
						topSh := sh.Observe(vb)
						if !equal(topSeq, topSh) {
							t.Fatalf("S=%d step %d: reports differ: seq=%v shard=%v", shards, s, topSeq, topSh)
						}
					}
					if sh.Err() != nil {
						t.Fatalf("S=%d: engine error: %v", shards, sh.Err())
					}
				})
			}
		}
	}
}

// TestOverheadModeIndependent pins the sub-frame charging rule: batching
// coalesces transport frames, never coordination messages. The root↔shard
// overhead ledger counts every command and reply on its own, so it reads
// what a strict one-command-one-round-trip cycle would move, while the
// transport, which carries the batch envelopes, must show strictly fewer
// frames; both are pinned as goldens and neither depends on the gather. They
// were re-priced when a FILTERRESET became one execution to every shard
// where it was a k-merge of k+1 (PR 24: 3174/1980 → 2179/1184 at S = 1,
// 4557/3164 → 3562/2368 at S = 2, 7323/5532 → 6328/4736 at S = 4: per reset
// k fewer Round commands and one Winner less, k fewer frames).
func TestOverheadModeIndependent(t *testing.T) {
	const n, k, seed, steps = 16, 4, 3, 200
	for _, tc := range []struct {
		shards       int
		ledger, sent int64
	}{{1, 2179, 1184}, {2, 3562, 2368}, {4, 6328, 4736}} {
		for _, g := range gathers {
			t.Run(fmt.Sprintf("%s/S=%d", g.name, tc.shards), func(t *testing.T) {
				setGather(t, g.procs)
				sh := mustLoopback(t, Config{N: n, K: k, Seed: seed}, tc.shards)
				defer sh.Close()
				src := stream.NewIID(stream.IIDConfig{N: n, Seed: 8, Dist: stream.Uniform, Lo: 0, Hi: 1 << 20})
				vals := make([]int64, n)
				for s := 0; s < steps; s++ {
					src.Step(vals)
					sh.Observe(vals)
				}
				led, ts := sh.Overhead(), sh.TransportStats()
				if ts.SentFrames >= led.Down || ts.RecvFrames >= led.Up {
					t.Fatalf("root did not coalesce frames: sent %d for %d commands, received %d for %d replies",
						ts.SentFrames, led.Down, ts.RecvFrames, led.Up)
				}
				if led.Down != tc.ledger || ts.SentFrames != tc.sent {
					t.Fatalf("ledger commands / sent frames = %d / %d, want %d / %d", led.Down, ts.SentFrames, tc.ledger, tc.sent)
				}
			})
		}
	}
}

// TestDeltaEquivalence drives the sparse ingestion path with S=2 against
// the sequential engine, interleaving sparse and dense steps.
func TestDeltaEquivalence(t *testing.T) {
	const n, k, seed, steps = 16, 4, 9, 300
	seq := core.New(core.Config{N: n, K: k, Seed: seed})
	sh := mustLoopback(t, Config{N: n, K: k, Seed: seed}, 2)
	defer sh.Close()

	srcA := stream.NewSparseWalk(stream.SparseWalkConfig{N: n, Changed: 3, MaxStep: 500, Lo: 0, Hi: 1 << 20, Seed: 11})
	srcB := stream.NewSparseWalk(stream.SparseWalkConfig{N: n, Changed: 3, MaxStep: 500, Lo: 0, Hi: 1 << 20, Seed: 11})
	ids, vals := make([]int, n), make([]int64, n)
	ids2, vals2 := make([]int, n), make([]int64, n)
	dense := make([]int64, n)
	for s := 0; s < steps; s++ {
		c := srcA.StepDelta(ids, vals)
		c2 := srcB.StepDelta(ids2, vals2)
		if c != c2 {
			t.Fatalf("step %d: generator divergence", s)
		}
		for j := 0; j < c; j++ {
			dense[ids[j]] = vals[j]
		}
		var topSeq, topSh []int
		if s%7 == 3 { // interleave a dense step now and then
			topSeq = seq.Observe(dense)
			topSh = sh.Observe(dense)
		} else {
			topSeq = seq.ObserveDelta(ids[:c], vals[:c])
			topSh = sh.ObserveDelta(ids2[:c2], vals2[:c2])
		}
		if !equal(topSeq, topSh) {
			t.Fatalf("step %d: reports differ: seq=%v shard=%v", s, topSeq, topSh)
		}
	}
}

// TestDistinctValuesEquivalence exercises the shard agents' raw-key mode
// at S=3 against the sequential engine.
func TestDistinctValuesEquivalence(t *testing.T) {
	const n, k, seed, steps = 11, 3, 29, 250
	seq := core.New(core.Config{N: n, K: k, Seed: seed, DistinctValues: true})
	sh := mustLoopback(t, Config{N: n, K: k, Seed: seed, DistinctValues: true}, 3)
	defer sh.Close()

	vals := make([]int64, n)
	for s := 0; s < steps; s++ {
		for i := range vals {
			vals[i] = int64(i) + 1000*int64((s*(i+3)+7*i)%60)
		}
		a, b := seq.Observe(vals), sh.Observe(vals)
		if !equal(a, b) {
			t.Fatalf("step %d: reports differ: seq=%v shard=%v", s, a, b)
		}
	}
}

// TestTCPShards runs the full matrix S ∈ {1, 2, 4} over real localhost
// TCP links with ServeShard loops on the dialing side — the distributed
// deployment topology, collapsed into one test binary — under both
// gathers. At S=1 the ledger equality extends over TCP.
func TestTCPShards(t *testing.T) {
	for _, g := range gathers {
		t.Run(g.name, func(t *testing.T) {
			setGather(t, g.procs)
			testTCPShards(t)
		})
	}
}

func testTCPShards(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		const n, k, seed, steps = 10, 3, 17, 120
		ctx, cancel := context.WithCancel(context.Background())
		ln, err := transport.Listen(ctx, "127.0.0.1:0")
		if err != nil {
			cancel()
			t.Skipf("cannot listen on loopback: %v", err)
		}

		serveErr := make(chan error, shards)
		for i := 0; i < shards; i++ {
			go func() {
				link, err := transport.Dial(ctx, ln.Addr())
				if err != nil {
					serveErr <- err
					return
				}
				serveErr <- ServeShard(link)
			}()
		}
		links, err := ln.AcceptN(shards)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := New(Config{N: n, K: k, Seed: seed}, links)
		if err != nil {
			t.Fatal(err)
		}

		seq := core.New(core.Config{N: n, K: k, Seed: seed})
		srcA := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 300, Seed: 23})
		srcB := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 300, Seed: 23})
		va, vb := make([]int64, n), make([]int64, n)
		for s := 0; s < steps; s++ {
			srcA.Step(va)
			srcB.Step(vb)
			if !equal(seq.Observe(va), sh.Observe(vb)) {
				t.Fatalf("S=%d step %d: reports differ over TCP", shards, s)
			}
		}
		if shards == 1 {
			if cs, cn := seq.Counts(), sh.Counts(); cs != cn {
				t.Fatalf("S=1 counts differ over TCP: seq=%v shard=%v", cs, cn)
			}
			if bs, bn := seq.Ledger().TotalBytes(), sh.Bytes(); bs != bn {
				t.Fatalf("S=1 bytes differ over TCP: seq=%v shard=%v", bs, bn)
			}
		}
		if ts := sh.TransportStats(); ts.SentBytes == 0 || ts.RecvBytes == 0 {
			t.Fatalf("S=%d: no TCP traffic recorded: %+v", shards, ts)
		}
		sh.Close()
		for i := 0; i < shards; i++ {
			if err := <-serveErr; err != nil {
				t.Fatalf("S=%d shard serve loop: %v", shards, err)
			}
		}
		ln.Close()
		cancel()
	}
}

// TestOverheadGrowsWithShards pins the direction of the coordination
// cost: more shards means more root↔shard frames for the same workload.
func TestOverheadGrowsWithShards(t *testing.T) {
	const n, k, seed, steps = 16, 4, 3, 150
	frames := make([]int64, 0, 3)
	for _, shards := range []int{1, 2, 4} {
		sh := mustLoopback(t, Config{N: n, K: k, Seed: seed}, shards)
		src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 500, Seed: 8})
		vals := make([]int64, n)
		for s := 0; s < steps; s++ {
			src.Step(vals)
			sh.Observe(vals)
		}
		frames = append(frames, sh.Overhead().Total())
		sh.Close()
	}
	if !(frames[0] < frames[1] && frames[1] < frames[2]) {
		t.Fatalf("overhead not increasing with S: %v", frames)
	}
}

// TestDeadShardRecovers mirrors the netrun recovery contract for the
// sharded engine: a dead shard link degrades health for one observation
// call, then the next call merges its range into a survivor and reports
// track the oracle again. Losing the only shard with no Redial goes
// terminal instead.
func TestDeadShardRecovers(t *testing.T) {
	const n, k = 12, 3
	links := LoopbackLinks(3)
	sh, err := New(Config{N: n, K: k, Seed: 7, RetryBackoff: time.Millisecond}, links)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 400, Seed: 9})
	vals := make([]int64, n)
	var lastGood []int
	for s := 0; s < 10; s++ {
		src.Step(vals)
		lastGood = append(lastGood[:0], sh.Observe(vals)...)
	}
	links[2].Close()
	drive := func(s int) {
		for i := range vals {
			vals[i] = int64((s*13+i*7)%100) * 500
		}
	}
	detected := false
	for s := 0; s < 5 && !detected; s++ {
		drive(s)
		got := sh.Observe(vals)
		if sh.Health().Degraded {
			if !equal(got, lastGood) {
				t.Fatalf("detecting step returned %v, want last-good %v", got, lastGood)
			}
			detected = true
		} else {
			lastGood = append(lastGood[:0], got...)
		}
	}
	if !detected {
		t.Fatal("dead shard never surfaced as Degraded health")
	}
	for s := 5; s < 25; s++ {
		drive(s)
		got := sh.Observe(vals)
		if sh.Err() != nil {
			t.Fatalf("step %d: recovery went terminal: %v", s, sh.Err())
		}
		if want := sim.Oracle(vals, k); !equal(got, want) {
			t.Fatalf("step %d after recovery: got %v, want oracle %v", s, got, want)
		}
	}
	h := sh.Health()
	if h.Recoveries != 1 || len(h.Peers) != 2 {
		t.Fatalf("recovery health off: %+v", h)
	}
	// Recovery coordination is charged to the overhead ledger, never the
	// model ledger: overall counts must still satisfy the model's shape.
	if sh.Overhead().Total() == 0 {
		t.Fatal("recovery charged nothing to the overhead ledger")
	}
}

// TestLoopbackStarRedials pins the failover default the star shares with
// every loopback tree: where a star over bare links merges a dead shard's
// range into a survivor (TestDeadShardRecovers), NewLoopbackTree's star
// redials a fresh loopback leaf that adopts the exact range, and reports
// track the oracle throughout.
func TestLoopbackStarRedials(t *testing.T) {
	const n, k = 12, 3
	cfg := Config{N: n, K: k, Seed: 7, RetryBackoff: time.Millisecond}
	links, err := loopbackTree(&cfg, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := New(cfg, links)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 400, Seed: 9})
	vals := make([]int64, n)
	var ranges [][2]int
	for s := 0; s < 30; s++ {
		if s == 10 {
			for _, p := range sh.Health().Peers {
				ranges = append(ranges, [2]int{p.Lo, p.Hi})
			}
			links[1].Close()
		}
		src.Step(vals)
		got := sh.Observe(vals)
		if h := sh.Health(); !h.Degraded && !equal(got, sim.Oracle(vals, k)) {
			t.Fatalf("step %d: got %v, want oracle %v", s, got, sim.Oracle(vals, k))
		}
	}
	h := sh.Health()
	if h.Terminal != nil || h.Failures != 1 || h.Recoveries != 1 || len(h.Peers) != len(ranges) {
		t.Fatalf("health after one dead shard: %+v", h)
	}
	for i, p := range h.Peers {
		if [2]int{p.Lo, p.Hi} != ranges[i] {
			t.Fatalf("peer %d owns [%d, %d) after the redial, want %v", i, p.Lo, p.Hi, ranges[i])
		}
	}
}

// TestRedialedShardFlipsItsPredecessorsCoins is internal/netrun's
// TestRedialedHostFlipsItsPredecessorsCoins over shard sub-coordinators,
// whose executions are the shards' own: the twin property a stateless coin
// buys a failover. A shard is killed before a step in which
// the monitor would reset anyway, and redialed: the recovery pass rebuilds
// every bank from nothing but the assignment and replays the values, and
// its forced reset leaves the machine where the never-failed twin's own
// reset of that step leaves it. From there on the two agree — every
// report, every statistic's increment, and the ledger of every step by
// phase in messages and bytes: a rebuilt host flips, for its nodes, exactly
// the coins the dead one would have, where a host that carried generators
// restarted their streams. What the failover costs is the recovery pass's
// own charges, the aborted step's and the forced reset's.
func TestRedialedShardFlipsItsPredecessorsCoins(t *testing.T) {
	const n, k, seed, steps, kill = 24, 4, 11, 60, 20
	build := func(links []transport.Link) *Engine {
		e, err := New(Config{
			N: n, K: k, Seed: seed, RetryBackoff: time.Millisecond,
			Redial: func() (transport.Link, error) { return LoopbackLink(), nil },
		}, links)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e
	}
	links := LoopbackLinks(3)
	failed, twin := build(links), build(LoopbackLinks(3))
	type charges struct {
		counts [3]comm.Counts
		bytes  [3]comm.Bytes
	}
	ledger := func(e *Engine) (c charges) {
		for i, p := range comm.Phases() {
			c.counts[i], c.bytes[i] = e.Ledger().PhaseCounts(p), e.Ledger().PhaseBytes(p)
		}
		return c
	}
	sub := func(a, b charges) (d charges) {
		for i := range a.counts {
			d.counts[i] = comm.Counts{Up: a.counts[i].Up - b.counts[i].Up, Down: a.counts[i].Down - b.counts[i].Down, Bcast: a.counts[i].Bcast - b.counts[i].Bcast}
			d.bytes[i] = comm.Bytes{Up: a.bytes[i].Up - b.bytes[i].Up, Down: a.bytes[i].Down - b.bytes[i].Down, Bcast: a.bytes[i].Bcast - b.bytes[i].Bcast}
		}
		return d
	}
	vals := make([]int64, n)
	compared := 0
	for s := 0; s < steps; s++ {
		for i := range vals {
			vals[i] = int64((s*31+i*17)%1000) * 50
		}
		if s == kill {
			links[1].Close()
		}
		fl, tl, fs, ts := ledger(failed), ledger(twin), failed.Stats(), twin.Stats()
		got, want := failed.Observe(vals), twin.Observe(vals)
		switch {
		case s < kill:
			continue
		case s == kill:
			if !failed.Health().Degraded || twin.Stats().Resets != ts.Resets+1 {
				t.Fatalf("step %d: the kill went unnoticed (%+v) or the twin did not reset (%+v); the case tests nothing", s, failed.Health(), twin.Stats())
			}
			continue
		case s == kill+1:
			if h := failed.Health(); h.Degraded || h.Recoveries != 1 || len(h.Peers) != 3 {
				t.Fatalf("step %d: recovery left %+v", s, h)
			}
			// This call ran the recovery pass, then the step: the step's
			// share is what is left once the forced reset's is set aside,
			// and the report below says the step itself went as the twin's.
		default:
			if d, w := sub(ledger(failed), fl), sub(ledger(twin), tl); d != w {
				t.Fatalf("step %d: the failed-over engine charged %+v, its twin %+v", s, d, w)
			}
			fd, td := failed.Stats(), twin.Stats()
			if fd.Resets-fs.Resets != td.Resets-ts.Resets || fd.HandlerCalls-fs.HandlerCalls != td.HandlerCalls-ts.HandlerCalls || fd.ViolationSteps-fs.ViolationSteps != td.ViolationSteps-ts.ViolationSteps {
				t.Fatalf("step %d: statistics moved from %+v to %+v, the twin's from %+v to %+v", s, fs, fd, ts, td)
			}
			compared++
		}
		if !equal(got, want) {
			t.Fatalf("step %d: report %v, twin %v", s, got, want)
		}
	}
	if twin.Stats().Resets < 10 || twin.Counts().Up == 0 || compared < steps-kill-2 {
		t.Fatalf("workload too calm to compare anything: %+v over %d compared steps", twin.Stats(), compared)
	}
}

// TestLastShardLostIsTerminal: no survivors and no Redial wedges the
// sharded engine cleanly.
func TestLastShardLostIsTerminal(t *testing.T) {
	const n, k = 8, 2
	links := LoopbackLinks(1)
	sh, err := New(Config{N: n, K: k, Seed: 3, RetryBackoff: time.Millisecond}, links)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	vals := make([]int64, n)
	var lastGood []int
	for s := 0; s < 8; s++ {
		for i := range vals {
			vals[i] = int64((s*13+i*7)%100) * 500
		}
		lastGood = append(lastGood[:0], sh.Observe(vals)...)
	}
	links[0].Close()
	for s := 8; s < 14; s++ {
		for i := range vals {
			vals[i] = int64((s*13+i*7)%100) * 500
		}
		if got := sh.Observe(vals); !equal(got, lastGood) {
			t.Fatalf("wedged engine changed its report: %v vs %v", got, lastGood)
		}
	}
	if sh.Err() == nil {
		t.Fatal("losing the only shard did not go terminal")
	}
	if sh.Health().Terminal == nil {
		t.Fatal("terminal engine reports healthy")
	}
}

// TestCloseIdempotent double-closes and verifies post-close observes
// panic.
func TestCloseIdempotent(t *testing.T) {
	sh := mustLoopback(t, Config{N: 4, K: 1, Seed: 3}, 2)
	sh.Observe([]int64{4, 3, 2, 1})
	sh.Close()
	sh.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Observe after Close did not panic")
		}
	}()
	sh.Observe([]int64{4, 3, 2, 1})
}
