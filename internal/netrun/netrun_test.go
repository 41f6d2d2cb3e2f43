package netrun

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// mustLoopback builds a loopback engine, failing the test on
// constructor errors (impossible for the valid configs used here).
func mustLoopback(tb testing.TB, cfg Config, peers int) *Engine {
	tb.Helper()
	e, err := NewLoopback(cfg, peers)
	if err != nil {
		tb.Fatalf("NewLoopback: %v", err)
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

// gathers lists the two ways the engine collects a round's answers —
// reader goroutines above one processor, a direct in-order drain on one —
// as the GOMAXPROCS setting that selects each, which is all the engine
// looks at. Every equivalence, chaos, failover and 0-allocs case runs
// under both on every host; they must be indistinguishable in everything
// but wall clock.
//
// The labels are not the gathers' names. "pipelined" is the reader gather
// and "lockstep" the direct drain — the lockstep mode those subtests once
// selected was deleted in PR 19, and both rows run the one pipelined engine
// — but 126 of the test ids the PR driver holds this repository to (a PR
// may rename only a few) are "…/pipelined/…" and "…/lockstep/…" subtests,
// so the labels stay and setGather says in the log of every failing subtest
// which gather it ran; the rename to readers/direct waits for a change that
// is allowed to move that many ids.
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

// TestEquivalenceWithSequentialEngine is the acceptance check of the
// networked engine: over loopback links it must produce identical top-k
// reports, identical message counts AND identical charged bytes as the
// sequential engine at every step, for the same seed — per phase, not
// just in total — under both gathers.
func TestEquivalenceWithSequentialEngine(t *testing.T) {
	cases := []struct {
		name  string
		n, k  int
		peers int
		src   func(n int) stream.Source
	}{
		{"walk-3peers", 12, 3, 3, func(n int) stream.Source {
			return stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 400, Seed: 2})
		}},
		{"walk-1peer", 12, 3, 1, func(n int) stream.Source {
			return stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 400, Seed: 2})
		}},
		{"walk-npeers", 12, 3, 12, func(n int) stream.Source {
			return stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 400, Seed: 2})
		}},
		{"iid-uneven", 9, 2, 4, func(n int) stream.Source {
			return stream.NewIID(stream.IIDConfig{N: n, Seed: 3, Dist: stream.Uniform, Lo: 0, Hi: 1 << 20})
		}},
		{"rotation", 7, 1, 2, func(n int) stream.Source {
			return stream.NewRotation(stream.RotationConfig{N: n, Period: 4, Base: 10, Peak: 1000})
		}},
		{"twoband", 14, 4, 5, func(n int) stream.Source {
			return stream.NewTwoBand(stream.TwoBandConfig{N: n, K: 4, Seed: 5, Gap: 1 << 16, BandWidth: 1 << 8, MaxStep: 40, SwapEvery: 30})
		}},
		{"k-equals-n", 6, 6, 3, func(n int) stream.Source {
			return stream.NewIID(stream.IIDConfig{N: n, Seed: 6, Dist: stream.Uniform, Lo: 0, Hi: 1000})
		}},
	}
	for _, g := range gathers {
		for _, tc := range cases {
			t.Run(g.name+"/"+tc.name, func(t *testing.T) {
				setGather(t, g.procs)
				const seed, steps = 41, 200
				seq := core.New(core.Config{N: tc.n, K: tc.k, Seed: seed})
				net := mustLoopback(t, Config{N: tc.n, K: tc.k, Seed: seed}, tc.peers)
				defer net.Close()

				srcA, srcB := tc.src(tc.n), tc.src(tc.n)
				va, vb := make([]int64, tc.n), make([]int64, tc.n)
				for s := 0; s < steps; s++ {
					srcA.Step(va)
					srcB.Step(vb)
					topSeq := seq.Observe(va)
					topNet := net.Observe(vb)
					if !equal(topSeq, topNet) {
						t.Fatalf("step %d: reports differ: seq=%v net=%v", s, topSeq, topNet)
					}
					if cs, cn := seq.Counts(), net.Counts(); cs != cn {
						t.Fatalf("step %d: counts differ: seq=%v net=%v", s, cs, cn)
					}
					if bs, bn := seq.Ledger().TotalBytes(), net.Bytes(); bs != bn {
						t.Fatalf("step %d: bytes differ: seq=%v net=%v", s, bs, bn)
					}
				}
				for _, ph := range comm.Phases() {
					if cs, cn := seq.Ledger().PhaseCounts(ph), net.Ledger().PhaseCounts(ph); cs != cn {
						t.Fatalf("phase %v counts differ: seq=%v net=%v", ph, cs, cn)
					}
					if bs, bn := seq.Ledger().PhaseBytes(ph), net.Ledger().PhaseBytes(ph); bs != bn {
						t.Fatalf("phase %v bytes differ: seq=%v net=%v", ph, bs, bn)
					}
				}
				if total := net.Bytes().Total(); total == 0 {
					t.Fatal("charged byte ledger stayed empty")
				}
				if ts := net.TransportStats(); ts.SentFrames == 0 || ts.RecvFrames == 0 || ts.SentBytes == 0 {
					t.Fatalf("transport stats empty: %+v", ts)
				}
			})
		}
	}
}

// TestPipelinedFramingCoalesces pins the transport-level effect of the
// batch envelope without a second engine mode to compare against. The link
// ledger charges coalesced commands sub-frame by sub-frame, so its Down/Up
// counts are the frames a strict one-command-one-round-trip cycle would
// move; on a violation-heavy workload the transport must move strictly
// fewer, because ResetBegin/Winner/Midpoint commands ride inside batched
// frames instead of paying one frame (and one ack frame) each. Both
// numbers are pinned as goldens, so the ledger and the coalescing cannot
// drift together (27646 / 26296 while a FILTERRESET was k+1 executions,
// the first also what the removed lockstep mode sent on this run).
func TestPipelinedFramingCoalesces(t *testing.T) {
	const n, k, seed, steps, peers = 24, 4, 19, 150, 4
	for _, g := range gathers {
		t.Run(g.name, func(t *testing.T) {
			setGather(t, g.procs)
			e := mustLoopback(t, Config{N: n, K: k, Seed: seed}, peers)
			defer e.Close()
			src := stream.NewIID(stream.IIDConfig{N: n, Seed: 5, Dist: stream.Uniform, Lo: 0, Hi: 1 << 20})
			vals := make([]int64, n)
			for s := 0; s < steps; s++ {
				src.Step(vals)
				e.Observe(vals)
			}
			// The networked engine hides the link ledger; the embedded core
			// keeps it.
			ts, led := e.TransportStats(), e.Engine.Overhead()
			if ts.SentFrames >= led.Down {
				t.Fatalf("commands did not coalesce: %d frames sent for %d ledger commands", ts.SentFrames, led.Down)
			}
			if ts.RecvFrames >= led.Up {
				t.Fatalf("replies did not coalesce: %d frames received for %d ledger replies", ts.RecvFrames, led.Up)
			}
			if led.Down != 13096 || ts.SentFrames != 11896 {
				t.Fatalf("ledger commands / sent frames = %d / %d, want 13096 / 11896", led.Down, ts.SentFrames)
			}
		})
	}
}

// TestDistinctValuesEquivalence exercises the host's DistinctValues
// branch (raw keys, no tie-break injection) against the sequential
// engine. Values are pairwise distinct by construction: i + 1000·aᵢ with
// residues i < n < 1000 all different.
func TestDistinctValuesEquivalence(t *testing.T) {
	const n, k, seed, steps = 11, 3, 29, 250
	seq := core.New(core.Config{N: n, K: k, Seed: seed, DistinctValues: true})
	net := mustLoopback(t, Config{N: n, K: k, Seed: seed, DistinctValues: true}, 3)
	defer net.Close()

	vals := make([]int64, n)
	for s := 0; s < steps; s++ {
		for i := range vals {
			vals[i] = int64(i) + 1000*int64((s*(i+3)+7*i)%60)
		}
		a, b := seq.Observe(vals), net.Observe(vals)
		if !equal(a, b) {
			t.Fatalf("step %d: reports differ: seq=%v net=%v", s, a, b)
		}
		if cs, cn := seq.Counts(), net.Counts(); cs != cn {
			t.Fatalf("step %d: counts differ: seq=%v net=%v", s, cs, cn)
		}
		if bs, bn := seq.Ledger().TotalBytes(), net.Bytes(); bs != bn {
			t.Fatalf("step %d: bytes differ: seq=%v net=%v", s, bs, bn)
		}
	}
}

// TestNewClosesLinksOnHandshakeFailure pins the no-leak contract: a
// failed handshake must close every link so serve loops terminate.
func TestNewClosesLinksOnHandshakeFailure(t *testing.T) {
	a, b := transport.Pipe()
	b.Close() // peer gone before the handshake
	if _, err := New(Config{N: 4, K: 2, Seed: 1}, []transport.Link{a}); err == nil {
		t.Fatal("New succeeded over a dead link")
	}
	if err := a.Send([]byte{0}); err == nil {
		t.Fatal("link still open after failed New")
	}
}

// TestDeltaEquivalence drives the sparse ingestion path against the
// sequential engine's, interleaving sparse and dense steps.
func TestDeltaEquivalence(t *testing.T) {
	const n, k, seed, steps = 16, 4, 9, 300
	seq := core.New(core.Config{N: n, K: k, Seed: seed})
	net := mustLoopback(t, Config{N: n, K: k, Seed: seed}, 3)
	defer net.Close()

	srcA := stream.NewSparseWalk(stream.SparseWalkConfig{N: n, Changed: 3, MaxStep: 500, Lo: 0, Hi: 1 << 20, Seed: 11})
	srcB := stream.NewSparseWalk(stream.SparseWalkConfig{N: n, Changed: 3, MaxStep: 500, Lo: 0, Hi: 1 << 20, Seed: 11})
	ids := make([]int, n)
	vals := make([]int64, n)
	ids2 := make([]int, n)
	vals2 := make([]int64, n)
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
		var topSeq, topNet []int
		if s%7 == 3 { // interleave a dense step now and then
			topSeq = seq.Observe(dense)
			topNet = net.Observe(dense)
		} else {
			topSeq = seq.ObserveDelta(ids[:c], vals[:c])
			topNet = net.ObserveDelta(ids2[:c2], vals2[:c2])
		}
		if !equal(topSeq, topNet) {
			t.Fatalf("step %d: reports differ: seq=%v net=%v", s, topSeq, topNet)
		}
		if cs, cn := seq.Counts(), net.Counts(); cs != cn {
			t.Fatalf("step %d: counts differ: seq=%v net=%v", s, cs, cn)
		}
		if bs, bn := seq.Ledger().TotalBytes(), net.Bytes(); bs != bn {
			t.Fatalf("step %d: bytes differ: seq=%v net=%v", s, bs, bn)
		}
	}
}

// TestEmptyDeltaStep: a step in which nothing changed still advances time
// and must not touch any link beyond the first initialization step.
func TestEmptyDeltaStep(t *testing.T) {
	net := mustLoopback(t, Config{N: 8, K: 2, Seed: 1}, 2)
	defer net.Close()
	net.Observe(make([]int64, 8)) // init reset
	before := net.TransportStats()
	top1 := append([]int(nil), net.ObserveDelta(nil, nil)...)
	top2 := net.ObserveDelta([]int{}, []int64{})
	if !equal(top1, top2) {
		t.Fatalf("empty steps changed the report: %v vs %v", top1, top2)
	}
	if after := net.TransportStats(); after != before {
		t.Fatalf("empty delta steps moved frames: %+v -> %+v", before, after)
	}
}

// TestTCPEngine runs the full engine over real localhost TCP links with
// in-process Serve loops on the dialing side — the two-process topology
// of `topkmon -serve` / `-join`, collapsed into one test binary — under
// both gathers.
func TestTCPEngine(t *testing.T) {
	for _, g := range gathers {
		t.Run(g.name, func(t *testing.T) {
			setGather(t, g.procs)
			testTCPEngine(t)
		})
	}
}

func testTCPEngine(t *testing.T) {
	const n, k, seed, steps, peers = 10, 3, 17, 120, 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln, err := transport.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer ln.Close()

	serveErr := make(chan error, peers)
	for i := 0; i < peers; i++ {
		go func() {
			link, err := transport.Dial(ctx, ln.Addr())
			if err != nil {
				serveErr <- err
				return
			}
			serveErr <- Serve(link)
		}()
	}
	links, err := ln.AcceptN(peers)
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(Config{N: n, K: k, Seed: seed}, links)
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
		if !equal(seq.Observe(va), net.Observe(vb)) {
			t.Fatalf("step %d: reports differ over TCP", s)
		}
	}
	if cs, cn := seq.Counts(), net.Counts(); cs != cn {
		t.Fatalf("counts differ over TCP: seq=%v net=%v", cs, cn)
	}
	if bs, bn := seq.Ledger().TotalBytes(), net.Bytes(); bs != bn {
		t.Fatalf("bytes differ over TCP: seq=%v net=%v", bs, bn)
	}
	ts := net.TransportStats()
	if ts.SentBytes == 0 || ts.RecvBytes == 0 {
		t.Fatalf("no TCP traffic recorded: %+v", ts)
	}
	net.Close()
	for i := 0; i < peers; i++ {
		if err := <-serveErr; err != nil {
			t.Fatalf("peer serve loop: %v", err)
		}
	}
}

// TestCloseIdempotent double-closes and verifies post-close observes
// panic.
func TestCloseIdempotent(t *testing.T) {
	net := mustLoopback(t, Config{N: 4, K: 1, Seed: 3}, 2)
	net.Observe([]int64{4, 3, 2, 1})
	net.Close()
	net.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Observe after Close did not panic")
		}
	}()
	net.Observe([]int64{4, 3, 2, 1})
}

// sweepTap counts, on one link, the Round(TagReset) commands the
// coordinator ships and the reply frames it gathers for them.
type sweepTap struct {
	transport.Link
	rounds, replies *atomic.Int64
	asked           bool // the frame just sent carried a reset's round
}

func (l *sweepTap) Send(p []byte) error {
	l.asked = false
	wiretest.Rounds(p, func(m wire.Round) {
		if m.Tag == coord.TagReset {
			l.rounds.Add(1)
			l.asked = true
		}
	})
	return l.Link.Send(p)
}

func (l *sweepTap) Recv() ([]byte, error) {
	frame, err := l.Link.Recv()
	if err == nil && l.asked {
		l.replies.Add(1)
	}
	return frame, err
}

func (l *sweepTap) Flush() error               { return transport.Flush(l.Link) }
func (l *sweepTap) Stats() transport.LinkStats { return transport.StatsOf(l.Link) }

// TestResetIsOneSweepOfRounds pins the work of a node-level FILTERRESET as
// an exact count, taken on the links: one execution for the k+1 largest
// keys is ceil(log2 N) + 1 broadcast rounds, each one Round frame to every
// peer and one reply gathered from each — (ceil(log2 N) + 1)·P of either
// per reset, whatever k is, where k+1 executions shipped k+1 times that.
// The time-0 reset, the resets violations drive and the forced reset of a
// recovery count alike, under both gathers.
func TestResetIsOneSweepOfRounds(t *testing.T) {
	const n, k, steps = 40, 6, 120
	perReset := int64(protocol.Rounds(n))
	for _, g := range gathers {
		for _, peers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/P=%d", g.name, peers), func(t *testing.T) {
				setGather(t, g.procs)
				var rounds, replies atomic.Int64
				tapped := func() transport.Link {
					return &sweepTap{Link: LoopbackLink(), rounds: &rounds, replies: &replies}
				}
				links := make([]transport.Link, peers)
				for i := range links {
					links[i] = tapped()
				}
				e, err := New(Config{N: n, K: k, Seed: 7, RetryBackoff: time.Millisecond,
					Redial: func() (transport.Link, error) { return tapped(), nil }}, links)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 2500, Seed: 3})
				vals := make([]int64, n)
				var resets, seenRounds, seenReplies int64
				for s := 0; s < steps; s++ {
					if s == steps/2 {
						links[0].Close() // found dead by this call, redialed and reset by the next
					}
					src.Step(vals)
					e.Observe(vals)
					dResets := e.Stats().Resets - resets
					resets += dResets
					if got, want := rounds.Load()-seenRounds, dResets*perReset*int64(peers); got != want {
						t.Fatalf("step %d: %d reset rounds shipped for %d resets, want %d", s, got, dResets, want)
					}
					if got, want := replies.Load()-seenReplies, dResets*perReset*int64(peers); got != want {
						t.Fatalf("step %d: %d replies gathered for %d resets, want %d", s, got, dResets, want)
					}
					seenRounds, seenReplies = rounds.Load(), replies.Load()
				}
				if h := e.Health(); h.Recoveries != 1 || h.Degraded {
					t.Fatalf("the cut link was not recovered exactly once: %+v", h)
				}
				if e.Stats().Resets < 5 {
					t.Fatalf("trace too quiet to count anything: %+v", e.Stats())
				}
			})
		}
	}
}
