package netrun

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/transport"
)

// The chaos suite drives the engine over fault-injecting links and
// enforces the failure contract end to end: every observation call
// returns promptly (a Faulty turns every fault into a cut, so nothing
// can hang), reports are never silently stale, and the engine either
// re-converges to the oracle after recovery or wedges with a clean
// terminal error.

const (
	chaosN     = 16
	chaosK     = 4
	chaosPeers = 4
)

// chaosEngine builds a loopback engine whose victim link is wrapped in
// the given fault plan.
func chaosEngine(redial bool, victim int, plan transport.FaultPlan) (*Engine, error) {
	links := LoopbackLinks(chaosPeers)
	links[victim] = transport.NewFaulty(links[victim], plan)
	cfg := Config{N: chaosN, K: chaosK, Seed: 5, RetryBackoff: time.Millisecond}
	if redial {
		cfg.Redial = func() (transport.Link, error) { return LoopbackLink(), nil }
	}
	return New(cfg, links)
}

// runChaos drives e for steps observation calls under the chaos
// contract. Healthy steps must match the oracle, except for a bounded
// corruption window right around a fault: an injected duplicate can
// poison the step it lands in and the step that detects the cut, never
// more. Degraded steps must return the last-good report; terminal
// engines must stay wedged on it.
func runChaos(t *testing.T, e *Engine, steps int) {
	t.Helper()
	vals := make([]int64, chaosN)
	suspect := 0
	var last []int
	for s := 0; s < steps; s++ {
		driven(s, vals)
		got := e.Observe(vals)
		if e.Err() != nil {
			for s2 := 1; s2 <= 5; s2++ {
				driven(steps+s2, vals)
				if again := e.Observe(vals); !equal(again, got) {
					t.Fatalf("terminal engine moved its report: %v -> %v", got, again)
				}
			}
			return
		}
		switch {
		case e.Health().Degraded:
			if last != nil && !equal(got, last) {
				t.Fatalf("step %d: degraded step returned %v, want last-good %v", s, got, last)
			}
			suspect = 0
		case equal(got, sim.Oracle(vals, chaosK)):
			suspect = 0
			last = append(last[:0], got...)
		default:
			suspect++
			if suspect > 2 {
				t.Fatalf("step %d: report stale for %d healthy steps: got %v, want %v",
					s, suspect, got, sim.Oracle(vals, chaosK))
			}
			last = append(last[:0], got...)
		}
	}
	if e.Health().Degraded {
		t.Fatal("run ended degraded: recovery never completed")
	}
	for s := steps; s < steps+5; s++ {
		driven(s, vals)
		if got := e.Observe(vals); !equal(got, sim.Oracle(vals, chaosK)) {
			t.Fatalf("step %d: post-run report %v != oracle %v", s, got, sim.Oracle(vals, chaosK))
		}
	}
}

// TestChaosFaultMatrix runs every fault flavor — cut, silent frame loss,
// duplicated frame, pure latency, loss under latency — against both
// gathers. The op indices land mid-run, after the handshake's two
// operations. A delay-only plan injects no failure, so that run must
// stay fault-free and oracle-exact throughout.
func TestChaosFaultMatrix(t *testing.T) {
	plans := []struct {
		name  string
		plan  transport.FaultPlan
		steps int // delayed runs pay OS sleep granularity per op: keep them short
	}{
		{"kill", transport.FaultPlan{KillAt: 40}, 80},
		{"drop", transport.FaultPlan{DropAt: 41}, 80},
		{"dup", transport.FaultPlan{DupAt: 42}, 80},
		{"delay", transport.FaultPlan{Delay: 10 * time.Microsecond, Seed: 1}, 15},
		{"drop+delay", transport.FaultPlan{DropAt: 43, Delay: 10 * time.Microsecond, Seed: 2}, 30},
	}
	for _, g := range gathers {
		for _, tc := range plans {
			t.Run(g.name+"/"+tc.name, func(t *testing.T) {
				setGather(t, g.procs)
				e, err := chaosEngine(false, 2, tc.plan)
				if err != nil {
					t.Fatalf("fault fired during the handshake: %v", err)
				}
				defer e.Close()
				runChaos(t, e, tc.steps)
				h := e.Health()
				injects := tc.plan.KillAt != 0 || tc.plan.DropAt != 0 || tc.plan.DupAt != 0
				if injects && h.Failures == 0 {
					t.Fatalf("fault plan %+v never fired in 80 driven steps", tc.plan)
				}
				if !injects && (h.Failures != 0 || h.Recoveries != 0) {
					t.Fatalf("delay-only plan registered failures: %+v", h)
				}
			})
		}
	}
}

// TestChaosKillAtRandomStep kills one peer at a seeded random operation
// index, across gathers and merge-vs-redial recovery. A kill that lands
// inside the Assign handshake must surface as a clean constructor error.
func TestChaosKillAtRandomStep(t *testing.T) {
	for gi, g := range gathers {
		for ri, redial := range []bool{false, true} {
			name := g.name + "/merge"
			if redial {
				name = g.name + "/redial"
			}
			t.Run(name, func(t *testing.T) {
				setGather(t, g.procs)
				r := rng.New(0xc4a05, uint64(2*gi+ri)) // a schedule per (gather, recovery) pair
				for trial := 0; trial < 4; trial++ {
					killOp := int64(1 + r.Uint64n(200))
					e, err := chaosEngine(redial, int(r.Uint64n(chaosPeers)), transport.FaultPlan{KillAt: killOp})
					if err != nil {
						continue // killed mid-handshake: clean error is the contract
					}
					runChaos(t, e, 100)
					e.Close()
				}
			})
		}
	}
}

// TestChaosKillDuringDrain pins the asynchronous-ingestion × failover
// interaction: a peer dies while the ingest queue is non-empty and a
// protocol step is in flight (each dense call stages 16 nodes through a
// depth-4 Block buffer, so producers sit in mid-call waits whenever the
// worker stalls on a slow recovering step). The contract: no Drain may
// outlive its deadline — a kill during a drain must never hang the
// barrier — and after the driver is retired the engine must either
// re-converge to the oracle or stay wedged on a clean terminal error,
// which runChaos enforces.
func TestChaosKillDuringDrain(t *testing.T) {
	allIDs := make([]int, chaosN)
	for i := range allIDs {
		allIDs[i] = i
	}
	for gi, g := range gathers {
		for ri, redial := range []bool{false, true} {
			name := g.name + "/merge"
			if redial {
				name = g.name + "/redial"
			}
			t.Run(name, func(t *testing.T) {
				setGather(t, g.procs)
				r := rng.New(0xd6a1, uint64(2*gi+ri)) // a schedule per (gather, recovery) pair
				for trial := 0; trial < 3; trial++ {
					killOp := int64(1 + r.Uint64n(250))
					e, err := chaosEngine(redial, int(r.Uint64n(chaosPeers)), transport.FaultPlan{KillAt: killOp})
					if err != nil {
						continue // killed mid-handshake: clean error is the contract
					}
					drv, err := ingest.New(ingest.Config{
						N: chaosN, Depth: 4, Policy: ingest.Block,
						Apply: func(ids []int, vals []int64) error {
							e.ObserveDelta(ids, vals)
							return e.Err()
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					vals := make([]int64, chaosN)
					for s := 0; s < 60; s++ {
						driven(s, vals)
						if err := drv.Enqueue(allIDs, vals); err != nil {
							break // engine went terminal mid-burst; checked below
						}
						if s%13 == 5 {
							ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
							err := drv.Drain(ctx)
							cancel()
							if errors.Is(err, context.DeadlineExceeded) {
								t.Fatal("mid-run Drain hung with a killed peer")
							}
						}
					}
					ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
					err = drv.Drain(ctx)
					cancel()
					if errors.Is(err, context.DeadlineExceeded) {
						t.Fatal("final Drain hung: kill during drain wedged the worker")
					}
					if err != nil && e.Err() == nil {
						t.Fatalf("Drain failed without a terminal engine error: %v", err)
					}
					drv.Close()
					runChaos(t, e, 40)
					e.Close()
				}
			})
		}
	}
}

// TestChaosKillDuringHandshake pins the mid-Assign kill explicitly: the
// constructor must return an error (never hang or panic) whether the cut
// lands on the Assign send or on the Ready receive.
func TestChaosKillDuringHandshake(t *testing.T) {
	for _, killAt := range []int64{1, 2} {
		if _, err := chaosEngine(false, 0, transport.FaultPlan{KillAt: killAt}); err == nil {
			t.Fatalf("KillAt=%d during the handshake: New succeeded", killAt)
		}
	}
}

// TestChaosReadersExit pins that no reader goroutine outlives its engine.
// A reader's last send is the one unguarded channel send in the engine —
// safe because the one-outstanding-frame discipline leaves its result slot
// free — and failover replaces readers mid-run, so the check runs where
// that argument is under stress: seeded kills at random operations, both
// recoveries, a Join on every other trial, then Close. Every goroutine the
// trials started (readers, loopback hosts) must be gone soon after.
func TestChaosReadersExit(t *testing.T) {
	setGather(t, 2)
	before := runtime.NumGoroutine()
	r := rng.New(0x7ead, 0xe817)
	for trial := 0; trial < 20; trial++ {
		for _, redial := range []bool{false, true} {
			killOp := int64(1 + r.Uint64n(200))
			e, err := chaosEngine(redial, int(r.Uint64n(chaosPeers)), transport.FaultPlan{KillAt: killOp})
			if err != nil {
				continue // killed mid-handshake: New closed every link
			}
			runChaos(t, e, 30)
			if trial%2 == 1 {
				_ = e.Join(LoopbackLink()) // a terminal engine refuses and closes the link
			}
			runChaos(t, e, 30)
			e.Close()
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines before the trials, %d two seconds after the last Close:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJoinMidStream grows the cohort while the monitor runs: the widest
// range is split in half for the joiner, membership re-converges before
// the next report, and reports stay oracle-exact.
func TestJoinMidStream(t *testing.T) {
	for _, g := range gathers {
		t.Run(g.name, func(t *testing.T) {
			setGather(t, g.procs)
			const n, k = 12, 3
			e := mustLoopback(t, Config{N: n, K: k, Seed: 5, RetryBackoff: time.Millisecond}, 2)
			defer e.Close()
			vals := make([]int64, n)
			for s := 0; s < 15; s++ {
				driven(s, vals)
				e.Observe(vals)
			}
			if err := e.Join(LoopbackLink()); err != nil {
				t.Fatalf("Join: %v", err)
			}
			h := e.Health()
			if len(h.Peers) != 3 {
				t.Fatalf("join left %d peers, want 3: %+v", len(h.Peers), h.Peers)
			}
			lo := 0
			for _, p := range h.Peers {
				if p.Lo != lo {
					t.Fatalf("peer ranges not contiguous after join: %+v", h.Peers)
				}
				lo = p.Hi
			}
			if lo != n {
				t.Fatalf("peer ranges do not cover [0, %d) after join: %+v", n, h.Peers)
			}
			for s := 15; s < 40; s++ {
				driven(s, vals)
				if got := e.Observe(vals); !equal(got, sim.Oracle(vals, k)) {
					t.Fatalf("step %d after join: got %v, want oracle %v", s, got, sim.Oracle(vals, k))
				}
			}
		})
	}
}

// TestJoinDeadLinkRecovers: a joiner whose link dies inside the Join
// handshake must not wedge the engine — Join errors, the next
// observation call merges the stillborn peer away, and reports
// re-converge.
func TestJoinDeadLinkRecovers(t *testing.T) {
	const n, k = 12, 3
	e := mustLoopback(t, Config{N: n, K: k, Seed: 5, RetryBackoff: time.Millisecond}, 2)
	defer e.Close()
	vals := make([]int64, n)
	for s := 0; s < 10; s++ {
		driven(s, vals)
		e.Observe(vals)
	}
	a, b := transport.Pipe()
	b.Close()
	if err := e.Join(a); err == nil {
		t.Fatal("Join over a dead link succeeded")
	}
	for s := 10; s < 30; s++ {
		driven(s, vals)
		got := e.Observe(vals)
		if e.Err() != nil {
			t.Fatalf("step %d: failed join went terminal: %v", s, e.Err())
		}
		if !e.Health().Degraded {
			if want := sim.Oracle(vals, k); !equal(got, want) {
				t.Fatalf("step %d after failed join: got %v, want oracle %v", s, got, want)
			}
		}
	}
	h := e.Health()
	if h.Failures == 0 {
		t.Fatalf("failed join registered no failure: %+v", h)
	}
	lo := 0
	for _, p := range h.Peers {
		if p.Lo != lo {
			t.Fatalf("ranges not contiguous after failed join: %+v", h.Peers)
		}
		lo = p.Hi
	}
	if lo != n {
		t.Fatalf("ranges do not cover [0, %d) after failed join: %+v", n, h.Peers)
	}
}
