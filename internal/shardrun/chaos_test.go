package shardrun

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/coord"
	"repro/internal/fanout"
	"repro/internal/fanout/fanouttest"
	"repro/internal/order"
	"repro/internal/rng"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// The sharded engine's own chaos cases: faults at the hops only a tree has,
// under the contract of fanouttest.RunChaos. The cases it shares with netrun
// are in contracts_test.go.

// chaosTree builds a loopback depth-2 tree engine whose victim subtree
// link — the root↔interior hop — is wrapped in the given fault plan, so
// a fired fault takes out a whole interior coordinator and everything
// below it. Redial replaces the lost subtree with a fresh one of the
// same shape.
func chaosTree(redial bool, victim int, plan transport.FaultPlan) (*Engine, error) {
	const branch, depth = 2, 2
	links := make([]transport.Link, branch)
	for i := range links {
		links[i] = fanout.LoopbackSubtree(branch, depth)
	}
	links[victim] = transport.NewFaulty(links[victim], plan)
	cfg := Config{
		N: fanouttest.ChaosN, K: fanouttest.ChaosK, Seed: 5,
		Tree: Tree{Branch: branch, Depth: depth},
	}
	if redial { // not by default: NewLoopbackTree would install the subtree factory
		cfg.Redial = func() (transport.Link, error) { return fanout.LoopbackSubtree(branch, depth), nil }
	}
	return New(cfg, links)
}

// TestChaosKillInteriorCoordinator kills an interior coordinator — not a
// leaf — mid-stream, across gathers and merge-vs-redial recovery:
// the root sees the whole subtree as one dead peer, and the run must
// either re-converge to the oracle (redial rebuilds the subtree, merge
// folds its range into the sibling subtree) or go cleanly terminal via
// Health — never hang and never serve stale reports past the suspect
// window (fanouttest.RunChaos enforces all of it).
func TestChaosKillInteriorCoordinator(t *testing.T) {
	fanouttest.EachRecovery(t, 0x7ee5, func(t *testing.T, redial bool, r *rng.RNG) {
		for trial := 0; trial < 3; trial++ {
			killOp := int64(1 + r.Uint64n(200))
			e, err := chaosTree(redial, int(r.Uint64n(2)), transport.FaultPlan{KillAt: killOp})
			if err != nil {
				continue // killed mid-handshake: clean error is the contract
			}
			fanouttest.RunChaos(t, e, 80)
			if h := e.Health(); h.Failures == 0 {
				t.Fatalf("KillAt=%d never fired in 80 driven steps", killOp)
			}
			e.Close()
		}
	})
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
	for _, g := range fanouttest.Gathers {
		for _, tc := range plans {
			t.Run(g.Name+"/"+tc.name, func(t *testing.T) {
				fanouttest.SetGather(t, g.Procs)
				e, err := chaosTree(true, 1, tc.plan)
				if err != nil {
					t.Fatalf("fault fired during the handshake: %v", err)
				}
				defer e.Close()
				fanouttest.RunChaos(t, e, 80)
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
const assassinLast = fanouttest.ChaosK - 1

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
// the ids stay, j counting the sweep's ⌈log₂N⌉ = 4 round boundaries the
// leaf is at.) Whatever the reset had done with the dead
// child, the engine finds the link dead at the next frame it moves there,
// the recovery's forced reset sweeps everyone afresh, and from the first
// step after it reports equal the oracle and the hosted banks pass the
// restore checks.
func TestChaosKillBetweenExtractions(t *testing.T) {
	targets := []struct {
		name                 string
		branch, depth, level int
	}{
		{"star", fanouttest.ChaosLinks, 1, 1},
		{"tree-interior", 2, 2, 1},
		{"tree-leaf", 2, 2, 2},
	}
	for _, g := range fanouttest.Gathers {
		for _, tg := range targets {
			for _, redial := range []bool{false, true} {
				for _, j := range []int{0, fanouttest.ChaosK / 2, fanouttest.ChaosK - 1} {
					mode := "merge"
					if redial {
						mode = "redial"
					}
					t.Run(fmt.Sprintf("%s/%s/%s/j=%d", g.Name, tg.name, mode, j), func(t *testing.T) {
						fanouttest.SetGather(t, g.Procs)
						killer := &assassin{level: tg.level, victim: 1}
						spy := &bankSpy{}
						cfg := Config{
							N: fanouttest.ChaosN, K: fanouttest.ChaosK, Seed: 5,
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

						vals := make([]int64, fanouttest.ChaosN)
						step := func(s int) []int {
							fanouttest.Driven(s, vals)
							return e.Observe(vals)
						}
						s := 0
						for ; s < 5; s++ {
							if got := step(s); !slices.Equal(got, order.Oracle(vals, fanouttest.ChaosK)) {
								t.Fatalf("step %d before the kill: got %v, want oracle %v", s, got, order.Oracle(vals, fanouttest.ChaosK))
							}
						}
						before := spy.snapshot()
						killer.arm(j)
						for ; e.Health().Failures == 0; s++ {
							if s > 60 {
								t.Fatalf("no link failure in %d driven steps (kill fired: %v)", s, killer.hit())
							}
							if got := step(s); e.Health().Failures == 0 && !slices.Equal(got, order.Oracle(vals, fanouttest.ChaosK)) {
								t.Fatalf("step %d, kill armed: got %v, want oracle %v", s, got, order.Oracle(vals, fanouttest.ChaosK))
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
							if want := order.Oracle(vals, fanouttest.ChaosK); !slices.Equal(got, want) {
								t.Fatalf("step %d after the kill: got %v, want oracle %v", s, got, want)
							}
							validateBanks(t, spy.since(before), fanouttest.ChaosN, got)
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
