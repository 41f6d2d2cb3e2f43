package shardrun

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/ingest"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// The sharded engine's chaos suite mirrors netrun's: fault-injected
// links must never hang, panic, or leave reports silently stale — every
// run either re-converges to the oracle after recovery or wedges with a
// clean terminal error.

const (
	chaosN      = 16
	chaosK      = 4
	chaosShards = 4
)

// driven fills vals with large fast-moving values that force
// communication on every shard every step.
func driven(s int, vals []int64) {
	for i := range vals {
		vals[i] = int64((s*31+i*17)%1000) * 50
	}
}

// chaosEngine builds a loopback engine whose victim shard link is
// wrapped in the given fault plan.
func chaosEngine(redial bool, victim int, plan transport.FaultPlan) (*Engine, error) {
	links := LoopbackLinks(chaosShards)
	links[victim] = transport.NewFaulty(links[victim], plan)
	cfg := Config{N: chaosN, K: chaosK, Seed: 5, RetryBackoff: time.Millisecond}
	if redial {
		cfg.Redial = func() (transport.Link, error) { return LoopbackLink(), nil }
	}
	return New(cfg, links)
}

// runChaos drives e under the chaos contract (see netrun's runChaos):
// healthy steps track the oracle outside a two-step corruption window
// around a fault, degraded steps return last-good, terminal engines stay
// wedged.
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

// TestChaosFaultMatrix runs every fault flavor against both gathers of
// the sharded root.
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
					t.Fatalf("fault plan %+v never fired in %d driven steps", tc.plan, tc.steps)
				}
				if !injects && (h.Failures != 0 || h.Recoveries != 0) {
					t.Fatalf("delay-only plan registered failures: %+v", h)
				}
			})
		}
	}
}

// TestChaosKillAtRandomStep kills one shard at a seeded random operation
// index across gathers and merge-vs-redial recovery. A kill inside
// the Assign handshake must surface as a clean constructor error.
func TestChaosKillAtRandomStep(t *testing.T) {
	for gi, g := range gathers {
		for ri, redial := range []bool{false, true} {
			name := g.name + "/merge"
			if redial {
				name = g.name + "/redial"
			}
			t.Run(name, func(t *testing.T) {
				setGather(t, g.procs)
				r := rng.New(0xc4a06, uint64(2*gi+ri)) // a schedule per (gather, recovery) pair
				for trial := 0; trial < 3; trial++ {
					killOp := int64(1 + r.Uint64n(200))
					e, err := chaosEngine(redial, int(r.Uint64n(chaosShards)), transport.FaultPlan{KillAt: killOp})
					if err != nil {
						continue // killed mid-handshake: clean error is the contract
					}
					runChaos(t, e, 80)
					e.Close()
				}
			})
		}
	}
}

// TestChaosKillDuringDrain mirrors netrun's async × failover regression
// on the sharded root: a shard dies while the ingest queue is non-empty
// and a step is in flight, no Drain barrier may outlive its deadline,
// and the engine must end re-converged to the oracle or cleanly
// terminal (runChaos enforces both outcomes).
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
				r := rng.New(0xd6a2, uint64(2*gi+ri)) // a schedule per (gather, recovery) pair
				for trial := 0; trial < 3; trial++ {
					killOp := int64(1 + r.Uint64n(250))
					e, err := chaosEngine(redial, int(r.Uint64n(chaosShards)), transport.FaultPlan{KillAt: killOp})
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
								t.Fatal("mid-run Drain hung with a killed shard")
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

// TestChaosKillDuringHandshake pins the mid-Assign kill on the sharded
// constructor.
func TestChaosKillDuringHandshake(t *testing.T) {
	for _, killAt := range []int64{1, 2} {
		if _, err := chaosEngine(false, 0, transport.FaultPlan{KillAt: killAt}); err == nil {
			t.Fatalf("KillAt=%d during the handshake: New succeeded", killAt)
		}
	}
}

// TestJoinMidStream grows the shard cohort mid-run: the widest range is
// split for the joiner and reports stay oracle-exact afterwards.
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
				t.Fatalf("join left %d shards, want 3: %+v", len(h.Peers), h.Peers)
			}
			lo := 0
			for _, p := range h.Peers {
				if p.Lo != lo {
					t.Fatalf("shard ranges not contiguous after join: %+v", h.Peers)
				}
				lo = p.Hi
			}
			if lo != n {
				t.Fatalf("shard ranges do not cover [0, %d) after join: %+v", n, h.Peers)
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

// chaosTree builds a loopback depth-2 tree engine whose victim subtree
// link — the root↔interior hop — is wrapped in the given fault plan, so
// a fired fault takes out a whole interior coordinator and everything
// below it. Redial replaces the lost subtree with a fresh one of the
// same shape.
func chaosTree(redial bool, victim int, plan transport.FaultPlan) (*Engine, error) {
	const branch, depth = 2, 2
	links := make([]transport.Link, branch)
	for i := range links {
		links[i] = LoopbackSubtree(branch, depth)
	}
	links[victim] = transport.NewFaulty(links[victim], plan)
	cfg := Config{
		N: chaosN, K: chaosK, Seed: 5,
		RetryBackoff: time.Millisecond, Tree: Tree{Branch: branch, Depth: depth},
	}
	if !redial {
		// NewLoopbackTree would install the subtree factory; a merge-only
		// engine must explicitly decline redials.
		return New(cfg, links)
	}
	cfg.Redial = func() (transport.Link, error) { return LoopbackSubtree(branch, depth), nil }
	return New(cfg, links)
}

// TestChaosKillInteriorCoordinator kills an interior coordinator — not a
// leaf — mid-stream, across gathers and merge-vs-redial recovery:
// the root sees the whole subtree as one dead peer, and the run must
// either re-converge to the oracle (redial rebuilds the subtree, merge
// folds its range into the sibling subtree) or go cleanly terminal via
// Health — never hang and never serve stale reports past the suspect
// window (runChaos enforces all of it).
func TestChaosKillInteriorCoordinator(t *testing.T) {
	for gi, g := range gathers {
		for ri, redial := range []bool{false, true} {
			name := g.name + "/merge"
			if redial {
				name = g.name + "/redial"
			}
			t.Run(name, func(t *testing.T) {
				setGather(t, g.procs)
				r := rng.New(0x7ee5, uint64(2*gi+ri)) // a schedule per (gather, recovery) pair
				for trial := 0; trial < 3; trial++ {
					killOp := int64(1 + r.Uint64n(200))
					e, err := chaosTree(redial, int(r.Uint64n(2)), transport.FaultPlan{KillAt: killOp})
					if err != nil {
						continue // killed mid-handshake: clean error is the contract
					}
					runChaos(t, e, 80)
					h := e.Health()
					if h.Failures == 0 {
						t.Fatalf("KillAt=%d never fired in 80 driven steps", killOp)
					}
					e.Close()
				}
			})
		}
	}
}

// TestChaosInteriorFaultMatrix drives the remaining fault flavors
// through the root↔interior hop: drops and duplicated frames must be
// survived (or end terminal) exactly as on a flat shard link.
func TestChaosInteriorFaultMatrix(t *testing.T) {
	plans := []struct {
		name string
		plan transport.FaultPlan
	}{
		{"drop", transport.FaultPlan{DropAt: 41}},
		{"dup", transport.FaultPlan{DupAt: 42}},
	}
	for _, g := range gathers {
		for _, tc := range plans {
			t.Run(g.name+"/"+tc.name, func(t *testing.T) {
				setGather(t, g.procs)
				e, err := chaosTree(true, 1, tc.plan)
				if err != nil {
					t.Fatalf("fault fired during the handshake: %v", err)
				}
				defer e.Close()
				runChaos(t, e, 80)
				if h := e.Health(); h.Failures == 0 {
					t.Fatalf("fault plan %+v never fired in 80 driven steps", tc.plan)
				}
			})
		}
	}
}

// assassin cuts one link of a rig in the middle of a FILTERRESET's sweep.
// It watches the links of one tree level from their parent-side ends; on
// the one numbered victim a reset's execution is one round trip — the
// Round(TagReset) request down, behind the ResetBegin, and the child's
// winner list up — and, armed with a point j of it, the assassin cuts the
// link there: at j = 0 as the request goes out, so the child never sees
// it; at the last point after the answer reached the parent, so the dead
// child's winners are merged and its members' Winner frames and the install
// find the link dead; at any point between while the child sweeps, so it
// did the work and the parent's gather finds the link dead instead of the
// answer.
type assassin struct {
	level, victim int

	mu    sync.Mutex
	links int  // links watched so far (numbers them)
	armed bool // cut at point j
	j     int
	fired bool
}

// assassinLast is the point after the answer's delivery.
const assassinLast = chaosK - 1

func (a *assassin) arm(j int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.armed, a.j, a.fired = true, j, false
}

func (a *assassin) hit() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fired
}

// cutLink is the victim's parent-side end.
type cutLink struct {
	tap
	a     *assassin
	asked bool // a reset's request went down and its answer is not up yet
}

// due reports whether the link is to be cut now, at point j of a reset's
// round trip on it, and records the kill.
func (l *cutLink) due(j func(int) bool) bool {
	l.a.mu.Lock()
	defer l.a.mu.Unlock()
	if !l.a.armed || l.a.fired || !j(l.a.j) {
		return false
	}
	l.a.fired = true
	return true
}

func (l *cutLink) Send(p []byte) error {
	wiretest.Rounds(p, func(m wire.Round) { l.asked = l.asked || m.Tag == coord.TagReset })
	if l.asked && l.due(func(j int) bool { return j == 0 }) {
		l.Link.Close()
	}
	return l.Link.Send(p)
}

func (l *cutLink) Recv() ([]byte, error) {
	frame, err := l.Link.Recv()
	if err != nil || !l.asked {
		return frame, err
	}
	l.asked = false
	if l.due(func(j int) bool { return j > 0 && j < assassinLast }) {
		l.Link.Close()
		return nil, transport.ErrClosed
	}
	if l.due(func(j int) bool { return j == assassinLast }) {
		l.Link.Close()
	}
	return frame, nil
}

// watch is a rig's up hook.
func (a *assassin) watch(level int, l transport.Link) transport.Link {
	if level != a.level {
		return l
	}
	a.mu.Lock()
	me := a.links
	a.links++
	a.mu.Unlock()
	if me != a.victim {
		return l
	}
	return &cutLink{tap: tap{Link: l}, a: a}
}

// TestChaosKillBetweenExtractions kills a child in the middle of a
// FILTERRESET's sweep — as the request goes out, while the child sweeps,
// and after its winner list reached the parent, before the members are
// told (see assassin): a shard of a star, and in a 2² tree an interior and
// a leaf, under merge and redial recovery and both gathers. (The name is
// from when a reset was k+1 extractions and the kill landed between two;
// the ids stay, see gathers, j counting the sweep's ⌈log₂N⌉ = 4 round
// boundaries the leaf is at.) Whatever the reset had done with the dead
// child, the engine finds the link dead at the next frame it moves there,
// the recovery's forced reset sweeps everyone afresh, and from the first
// step after it reports equal the oracle and the hosted banks pass the
// restore checks.
func TestChaosKillBetweenExtractions(t *testing.T) {
	targets := []struct {
		name                 string
		branch, depth, level int
	}{
		{"star", chaosShards, 1, 1},
		{"tree-interior", 2, 2, 1},
		{"tree-leaf", 2, 2, 2},
	}
	for _, g := range gathers {
		for _, tg := range targets {
			for _, redial := range []bool{false, true} {
				for _, j := range []int{0, chaosK / 2, chaosK - 1} {
					mode := "merge"
					if redial {
						mode = "redial"
					}
					t.Run(fmt.Sprintf("%s/%s/%s/j=%d", g.name, tg.name, mode, j), func(t *testing.T) {
						setGather(t, g.procs)
						killer := &assassin{level: tg.level, victim: 1}
						spy := &bankSpy{}
						cfg := Config{
							N: chaosN, K: chaosK, Seed: 5, RetryBackoff: time.Millisecond,
							Tree: rigTree(tg.branch, tg.depth),
						}
						if redial {
							cfg.Redial = func() (transport.Link, error) {
								return rigSubtree(tg.branch, tg.depth, 1, killer.watch, spy.serve), nil
							}
						}
						e, err := New(cfg, rigLinks(tg.branch, tg.depth, killer.watch, spy.serve))
						if err != nil {
							t.Fatal(err)
						}
						defer e.Close()

						vals := make([]int64, chaosN)
						step := func(s int) []int {
							driven(s, vals)
							return e.Observe(vals)
						}
						s := 0
						for ; s < 5; s++ {
							if got := step(s); !equal(got, sim.Oracle(vals, chaosK)) {
								t.Fatalf("step %d before the kill: got %v, want oracle %v", s, got, sim.Oracle(vals, chaosK))
							}
						}
						before := spy.snapshot()
						killer.arm(j)
						for ; e.Health().Failures == 0; s++ {
							if s > 60 {
								t.Fatalf("no link failure in %d driven steps (kill fired: %v)", s, killer.hit())
							}
							if got := step(s); e.Health().Failures == 0 && !equal(got, sim.Oracle(vals, chaosK)) {
								t.Fatalf("step %d, kill armed: got %v, want oracle %v", s, got, sim.Oracle(vals, chaosK))
							}
						}
						if !killer.hit() {
							t.Fatal("a link failed that the test did not kill")
						}
						for end := s + 20; s < end; s++ {
							got := step(s)
							if e.Err() != nil {
								t.Fatalf("step %d: recovery went terminal: %v", s, e.Err())
							}
							if want := sim.Oracle(vals, chaosK); !equal(got, want) {
								t.Fatalf("step %d after the kill: got %v, want oracle %v", s, got, want)
							}
							validateBanks(t, spy.since(before), chaosN, got)
						}
						if h := e.Health(); h.Recoveries != 1 || h.Failures != 1 || h.Degraded {
							t.Fatalf("health after one kill: %+v", h)
						}
					})
				}
			}
		}
	}
}
