// Package fanouttest holds the contracts both link-backed engines pin,
// written once. internal/netrun's node hosts and internal/shardrun's star of
// shards are one fanout.Engine over different leaves, so a test of either
// that the other shares is one call here with that package's Shape. Like
// internal/wire/wiretest, only tests import it.
package fanouttest

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/stream"
	"repro/internal/transport"
)

// Shape is one link-backed engine as the shared contracts build it. Its
// loopback links, redial links and TCP servers all run Serve. The schedule
// fields are the ones the engine's own suite ran before the suites were
// merged, so every fault point either suite exercised is still exercised.
type Shape struct {
	// Serve is the leaf server at the far end of every link.
	Serve func(transport.Link) error
	// New is the package's constructor, with the engine it returns
	// unwrapped.
	New func(cfg fanout.Config, links []transport.Link) (*fanout.Engine, error)
	// Delegated says every link runs whole protocol executions of its own,
	// so an engine charges what the sequential engine does over one link
	// only.
	Delegated bool

	KillSeed, DrainSeed    uint64 // the rng streams of ChaosKillAtRandomStep and ChaosKillDuringDrain
	KillTrials, KillSteps  int    // ChaosKillAtRandomStep's trials per subtest and steps per trial
	MergeVictim, MergeWarm int    // DeadLinkRecoversByMerge kills this link after this many steps
	TerminalWarm           int    // AllPeersLostIsTerminal's healthy steps before the only link dies
	DeltaLinks             int    // DeltaEquivalence's link count
	TCPLinks               []int  // TCP's link counts
}

// redial is a Config.Redial factory: a fresh loopback leaf.
func (sh Shape) redial() (transport.Link, error) { return fanout.Loopback(sh.Serve), nil }

// exact reports whether an engine over links charges the sequential
// engine's ledger.
func (sh Shape) exact(links int) bool { return !sh.Delegated || links == 1 }

// MustLoopback builds an engine over links loopback leaves, failing the
// test on constructor errors (impossible for the valid configs used here).
func (sh Shape) MustLoopback(tb testing.TB, cfg fanout.Config, links int) *fanout.Engine {
	tb.Helper()
	e, err := sh.New(cfg, fanout.Loopbacks(links, sh.Serve))
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	return e
}

// Gathers lists the two ways an engine collects a round's answers — reader
// goroutines above one processor, a direct in-order drain on one — as the
// GOMAXPROCS setting that selects each, which is all the engine looks at.
// Every equivalence, chaos, failover and 0-allocs case runs under both on
// every host; they must be indistinguishable in everything but wall clock.
//
// The labels are not the gathers' names. "pipelined" is the reader gather
// and "lockstep" the direct drain — the lockstep mode those subtests once
// selected is gone, and both rows run the one pipelined engine — but 234 of
// the repository's test ids (as `go test -v ./...` prints them) are
// "…/pipelined…" and "…/lockstep…" subtests, and a change may rename only a
// few, so the labels stay and SetGather says in the log of every failing
// subtest which gather it ran; the rename to readers/direct waits for a
// change that is allowed to move that many ids. Seeded schedules key on a
// gather's index in this table, never on its label.
var Gathers = []struct {
	Name  string
	Procs int
}{
	{"pipelined", 2}, // the reader gather
	{"lockstep", 1},  // the direct drain
}

// SetGather pins GOMAXPROCS for the rest of the (sub)test, and with it the
// gather of every engine built from here on, and logs which one that is.
// None of the tests that call it is parallel.
func SetGather(t *testing.T, procs int) {
	gather := "reader goroutines"
	if procs == 1 {
		gather = "direct drain"
	}
	t.Logf("gather: %s (GOMAXPROCS=%d); the subtest label is historical, see Gathers", gather, procs)
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// EachGather runs body as one subtest per gather, named as in Gathers.
func EachGather(t *testing.T, body func(t *testing.T)) {
	for _, g := range Gathers {
		t.Run(g.Name, func(t *testing.T) {
			SetGather(t, g.Procs)
			body(t)
		})
	}
}

// Driven fills vals with observations that force communication every step:
// large, fast-moving values guarantee filter violations, so every link
// carries traffic and a dead one is noticed promptly.
func Driven(s int, vals []int64) {
	for i := range vals {
		vals[i] = int64((s*31+i*17)%1000) * 50
	}
}

// TCPLinks listens on a localhost port, starts count servers that dial it
// and run serve, and returns the accepted ends, with a function that, called
// once the engine over them is closed, fails t unless every server ended
// cleanly. It skips t where the host cannot listen.
func TCPLinks(t *testing.T, count int, serve func(transport.Link) error) ([]transport.Link, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	ln, err := transport.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	served := make(chan error, count)
	for range count {
		go func() {
			link, err := transport.Dial(ctx, ln.Addr())
			if err != nil {
				served <- err
				return
			}
			served <- serve(link)
		}()
	}
	links, err := ln.AcceptN(count)
	if err != nil {
		t.Fatal(err)
	}
	return links, func() {
		for range count {
			if err := <-served; err != nil {
				t.Fatalf("serve loop: %v", err)
			}
		}
	}
}

// sameCharges fails t unless e charged what seq did, in messages and bytes;
// format and args say when.
func sameCharges(t *testing.T, seq *core.Monitor, e *fanout.Engine, format string, args ...any) {
	t.Helper()
	if cs, ce := seq.Counts(), e.Counts(); cs != ce {
		t.Fatalf(format+": counts differ: seq=%v engine=%v", append(args, cs, ce)...)
	}
	if bs, be := seq.Ledger().TotalBytes(), e.Bytes(); bs != be {
		t.Fatalf(format+": bytes differ: seq=%v engine=%v", append(args, bs, be)...)
	}
}

// tiles fails t unless the live links' ranges tile [0, n).
func tiles(t *testing.T, h coord.Health, n int, when string) {
	t.Helper()
	lo := 0
	for _, p := range h.Peers {
		if p.Lo != lo {
			t.Fatalf("ranges not contiguous %s: %+v", when, h.Peers)
		}
		lo = p.Hi
	}
	if lo != n {
		t.Fatalf("ranges do not cover [0, %d) %s: %+v", n, when, h.Peers)
	}
}

// DeltaEquivalence drives the sparse ingestion path against the sequential
// engine's, interleaving sparse and dense steps.
func DeltaEquivalence(t *testing.T, sh Shape) {
	const n, k, seed, steps = 16, 4, 9, 300
	seq := core.New(core.Config{N: n, K: k, Seed: seed})
	e := sh.MustLoopback(t, fanout.Config{N: n, K: k, Seed: seed}, sh.DeltaLinks)
	defer e.Close()

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
		var topSeq, top []int
		if s%7 == 3 { // interleave a dense step now and then
			topSeq, top = seq.Observe(dense), e.Observe(dense)
		} else {
			topSeq, top = seq.ObserveDelta(ids[:c], vals[:c]), e.ObserveDelta(ids2[:c2], vals2[:c2])
		}
		if !slices.Equal(topSeq, top) {
			t.Fatalf("step %d: reports differ: seq=%v engine=%v", s, topSeq, top)
		}
		if sh.exact(sh.DeltaLinks) {
			sameCharges(t, seq, e, "step %d", s)
		}
	}
}

// DistinctValuesEquivalence exercises the leaves' raw-key mode (no
// tie-break injection) against the sequential engine. Values are pairwise
// distinct by construction: i + 1000·aᵢ with residues i < n < 1000 all
// different.
func DistinctValuesEquivalence(t *testing.T, sh Shape) {
	const n, k, seed, steps, links = 11, 3, 29, 250, 3
	seq := core.New(core.Config{N: n, K: k, Seed: seed, DistinctValues: true})
	e := sh.MustLoopback(t, fanout.Config{N: n, K: k, Seed: seed, DistinctValues: true}, links)
	defer e.Close()

	vals := make([]int64, n)
	for s := 0; s < steps; s++ {
		for i := range vals {
			vals[i] = int64(i) + 1000*int64((s*(i+3)+7*i)%60)
		}
		a, b := seq.Observe(vals), e.Observe(vals)
		if !slices.Equal(a, b) {
			t.Fatalf("step %d: reports differ: seq=%v engine=%v", s, a, b)
		}
		if sh.exact(links) {
			sameCharges(t, seq, e, "step %d", s)
		}
	}
}

// CloseIdempotent double-closes and verifies post-close observes panic.
func CloseIdempotent(t *testing.T, sh Shape) {
	e := sh.MustLoopback(t, fanout.Config{N: 4, K: 1, Seed: 3}, 2)
	e.Observe([]int64{4, 3, 2, 1})
	e.Close()
	e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Observe after Close did not panic")
		}
	}()
	e.Observe([]int64{4, 3, 2, 1})
}

// TCP runs the engine over real localhost TCP links with the leaf servers
// on the dialing side — the distributed deployment topology (`topkmon
// -serve` / `-join`), collapsed into one test binary — for each of the
// shape's link counts, under both gathers. Reports equal the sequential
// engine's at every step, and so do the charges where the shape is exact.
func TCP(t *testing.T, sh Shape) {
	EachGather(t, func(t *testing.T) {
		for _, count := range sh.TCPLinks {
			const n, k, seed, steps = 10, 3, 17, 120
			links, served := TCPLinks(t, count, sh.Serve)
			e, err := sh.New(fanout.Config{N: n, K: k, Seed: seed}, links)
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
				if !slices.Equal(seq.Observe(va), e.Observe(vb)) {
					t.Fatalf("%d links, step %d: reports differ over TCP", count, s)
				}
			}
			if sh.exact(count) {
				sameCharges(t, seq, e, "%d links over TCP", count)
			}
			if ts := e.TransportStats(); ts.SentBytes == 0 || ts.RecvBytes == 0 {
				t.Fatalf("%d links: no TCP traffic recorded: %+v", count, ts)
			}
			e.Close()
			served()
		}
	})
}
