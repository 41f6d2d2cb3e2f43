package fanouttest

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/fanout"
	"repro/internal/ingest"
	"repro/internal/order"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/transport"
)

// The chaos contracts drive an engine over fault-injecting links and
// enforce the failure contract end to end: every observation call returns
// promptly (a Faulty turns every fault into a cut, so nothing can hang),
// reports are never silently stale, and the engine either re-converges to
// the oracle after recovery or wedges with a clean terminal error.

// The chaos engines' population, report size and link count.
const (
	ChaosN     = 16
	ChaosK     = 4
	ChaosLinks = 4
)

// chaosEngine builds a loopback engine whose victim link is wrapped in the
// given fault plan, redialing fresh leaves if redial is set.
func (sh Shape) chaosEngine(redial bool, victim int, plan transport.FaultPlan) (*fanout.Engine, error) {
	links := fanout.Loopbacks(ChaosLinks, sh.Serve)
	links[victim] = transport.NewFaulty(links[victim], plan)
	cfg := fanout.Config{N: ChaosN, K: ChaosK, Seed: 5}
	if redial {
		cfg.Redial = sh.redial
	}
	return sh.New(cfg, links)
}

// killedAtRandom is chaosEngine with a kill at a random operation in
// [1, ops] of a random link, both drawn from r.
func (sh Shape) killedAtRandom(redial bool, r *rng.RNG, ops uint64) (*fanout.Engine, error) {
	killOp := int64(1 + r.Uint64n(ops))
	return sh.chaosEngine(redial, int(r.Uint64n(ChaosLinks)), transport.FaultPlan{KillAt: killOp})
}

// RunChaos drives e for steps observation calls under the chaos contract.
// Healthy steps must match the oracle, except for a bounded corruption
// window right around a fault: an injected duplicate can poison the step it
// lands in and the step that detects the cut, never more. Degraded steps
// must return the last-good report; terminal engines must stay wedged on
// it.
func RunChaos(t *testing.T, e *fanout.Engine, steps int) {
	t.Helper()
	vals := make([]int64, ChaosN)
	suspect := 0
	var last []int
	for s := 0; s < steps; s++ {
		Driven(s, vals)
		got := e.Observe(vals)
		if e.Err() != nil {
			for s2 := 1; s2 <= 5; s2++ {
				Driven(steps+s2, vals)
				if again := e.Observe(vals); !slices.Equal(again, got) {
					t.Fatalf("terminal engine moved its report: %v -> %v", got, again)
				}
			}
			return
		}
		switch {
		case e.Health().Degraded:
			if last != nil && !slices.Equal(got, last) {
				t.Fatalf("step %d: degraded step returned %v, want last-good %v", s, got, last)
			}
			suspect = 0
		case slices.Equal(got, order.Oracle(vals, ChaosK)):
			suspect = 0
			last = append(last[:0], got...)
		default:
			suspect++
			if suspect > 2 {
				t.Fatalf("step %d: report stale for %d healthy steps: got %v, want %v",
					s, suspect, got, order.Oracle(vals, ChaosK))
			}
			last = append(last[:0], got...)
		}
	}
	if e.Health().Degraded {
		t.Fatal("run ended degraded: recovery never completed")
	}
	for s := steps; s < steps+5; s++ {
		Driven(s, vals)
		if got := e.Observe(vals); !slices.Equal(got, order.Oracle(vals, ChaosK)) {
			t.Fatalf("step %d: post-run report %v != oracle %v", s, got, order.Oracle(vals, ChaosK))
		}
	}
}

// EachRecovery runs body as one subtest per gather and recovery — merge
// into a survivor, or redial a fresh leaf — named gather/merge and
// gather/redial, handing it that pair's own rng stream of seed.
func EachRecovery(t *testing.T, seed uint64, body func(t *testing.T, redial bool, r *rng.RNG)) {
	for gi, g := range Gathers {
		for ri, mode := range []string{"merge", "redial"} {
			t.Run(g.Name+"/"+mode, func(t *testing.T) {
				SetGather(t, g.Procs)
				body(t, ri == 1, rng.New(seed, uint64(2*gi+ri)))
			})
		}
	}
}

// ChaosFaultMatrix runs every fault flavor — cut, silent frame loss,
// duplicated frame, pure latency, loss under latency — against both
// gathers. The op indices land mid-run, after the handshake's two
// operations. A delay-only plan injects no failure, so that run must stay
// fault-free and oracle-exact throughout.
func ChaosFaultMatrix(t *testing.T, sh Shape) {
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
	for _, g := range Gathers {
		for _, tc := range plans {
			t.Run(g.Name+"/"+tc.name, func(t *testing.T) {
				SetGather(t, g.Procs)
				e, err := sh.chaosEngine(false, 2, tc.plan)
				if err != nil {
					t.Fatalf("fault fired during the handshake: %v", err)
				}
				defer e.Close()
				RunChaos(t, e, tc.steps)
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

// ChaosKillAtRandomStep kills one link at a seeded random operation index,
// across gathers and merge-vs-redial recovery. A kill that lands inside the
// Assign handshake must surface as a clean constructor error.
func ChaosKillAtRandomStep(t *testing.T, sh Shape) {
	EachRecovery(t, sh.KillSeed, func(t *testing.T, redial bool, r *rng.RNG) {
		for trial := 0; trial < sh.KillTrials; trial++ {
			e, err := sh.killedAtRandom(redial, r, 200)
			if err != nil {
				continue // killed mid-handshake: clean error is the contract
			}
			RunChaos(t, e, sh.KillSteps)
			e.Close()
		}
	})
}

// ChaosKillDuringDrain pins the asynchronous-ingestion × failover
// interaction: a link dies while a protocol step is in flight and the
// producer waits on it (each call carries all 16 nodes, more than the
// depth-4 Block buffer holds, so the worker applies it whole as its own
// step and the producer sits in that hand-off whenever the worker stalls on
// a slow recovering step). The contract: no Drain may outlive its deadline
// — a kill during a drain must never hang the barrier — and after the
// driver is retired the engine must either re-converge to the oracle or
// stay wedged on a clean terminal error, which RunChaos enforces.
func ChaosKillDuringDrain(t *testing.T, sh Shape) {
	allIDs := make([]int, ChaosN)
	for i := range allIDs {
		allIDs[i] = i
	}
	drain := func(drv *ingest.Driver) error {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		return drv.Drain(ctx)
	}
	EachRecovery(t, sh.DrainSeed, func(t *testing.T, redial bool, r *rng.RNG) {
		for trial := 0; trial < 3; trial++ {
			e, err := sh.killedAtRandom(redial, r, 250)
			if err != nil {
				continue // killed mid-handshake: clean error is the contract
			}
			drv, err := ingest.New(ingest.Config{
				N: ChaosN, Depth: 4,
				Apply: func(ids []int, vals []int64) error {
					e.ObserveDelta(ids, vals)
					return e.Err()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			vals := make([]int64, ChaosN)
			for s := 0; s < 60; s++ {
				Driven(s, vals)
				if err := drv.Enqueue(allIDs, vals); err != nil {
					break // engine went terminal mid-burst; checked below
				}
				if s%13 == 5 && errors.Is(drain(drv), context.DeadlineExceeded) {
					t.Fatal("mid-run Drain hung with a killed link")
				}
			}
			err = drain(drv)
			if errors.Is(err, context.DeadlineExceeded) {
				t.Fatal("final Drain hung: kill during drain wedged the worker")
			}
			if err != nil && e.Err() == nil {
				t.Fatalf("Drain failed without a terminal engine error: %v", err)
			}
			drv.Close()
			RunChaos(t, e, 40)
			e.Close()
		}
	})
}

// ChaosKillDuringHandshake pins the mid-Assign kill explicitly: the
// constructor must return an error (never hang or panic) whether the cut
// lands on the Assign send or on the Ready receive.
func ChaosKillDuringHandshake(t *testing.T, sh Shape) {
	for _, killAt := range []int64{1, 2} {
		if _, err := sh.chaosEngine(false, 0, transport.FaultPlan{KillAt: killAt}); err == nil {
			t.Fatalf("KillAt=%d during the handshake: New succeeded", killAt)
		}
	}
}

// ChaosReadersExit pins that no reader goroutine outlives its engine. A
// reader's last send is the one unguarded channel send in the engine — safe
// because the one-outstanding-frame discipline leaves its result slot free
// — and failover replaces readers mid-run, so the check runs where that
// argument is under stress: seeded kills at random operations, both
// recoveries, a Join on every other trial, then Close. Every goroutine the
// trials started (readers, loopback leaves) must be gone soon after.
func ChaosReadersExit(t *testing.T, sh Shape) {
	SetGather(t, 2)
	before := runtime.NumGoroutine()
	r := rng.New(0x7ead, 0xe817)
	for trial := 0; trial < 20; trial++ {
		for _, redial := range []bool{false, true} {
			e, err := sh.killedAtRandom(redial, r, 200)
			if err != nil {
				continue // killed mid-handshake: New closed every link
			}
			RunChaos(t, e, 30)
			if trial%2 == 1 {
				_ = e.Join(fanout.Loopback(sh.Serve)) // a terminal engine refuses and closes the link
			}
			RunChaos(t, e, 30)
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

// JoinMidStream grows the cohort while the monitor runs: the widest range
// is split in half for the joiner, membership re-converges before the next
// report, and reports stay oracle-exact.
func JoinMidStream(t *testing.T, sh Shape) {
	EachGather(t, func(t *testing.T) {
		const n, k = 12, 3
		e := sh.MustLoopback(t, fanout.Config{N: n, K: k, Seed: 5}, 2)
		defer e.Close()
		vals := make([]int64, n)
		for s := 0; s < 15; s++ {
			Driven(s, vals)
			e.Observe(vals)
		}
		if err := e.Join(fanout.Loopback(sh.Serve)); err != nil {
			t.Fatalf("Join: %v", err)
		}
		h := e.Health()
		if len(h.Peers) != 3 {
			t.Fatalf("join left %d links, want 3: %+v", len(h.Peers), h.Peers)
		}
		tiles(t, h, n, "after join")
		for s := 15; s < 40; s++ {
			Driven(s, vals)
			if got := e.Observe(vals); !slices.Equal(got, order.Oracle(vals, k)) {
				t.Fatalf("step %d after join: got %v, want oracle %v", s, got, order.Oracle(vals, k))
			}
		}
	})
}

// JoinDeadLinkRecovers: a joiner whose link dies inside the Join handshake
// must not wedge the engine — Join errors, the next observation call merges
// the stillborn link away, and reports re-converge.
func JoinDeadLinkRecovers(t *testing.T, sh Shape) {
	const n, k = 12, 3
	e := sh.MustLoopback(t, fanout.Config{N: n, K: k, Seed: 5}, 2)
	defer e.Close()
	vals := make([]int64, n)
	for s := 0; s < 10; s++ {
		Driven(s, vals)
		e.Observe(vals)
	}
	a, b := transport.Pipe()
	b.Close()
	if err := e.Join(a); err == nil {
		t.Fatal("Join over a dead link succeeded")
	}
	for s := 10; s < 30; s++ {
		Driven(s, vals)
		got := e.Observe(vals)
		if e.Err() != nil {
			t.Fatalf("step %d: failed join went terminal: %v", s, e.Err())
		}
		if !e.Health().Degraded {
			if want := order.Oracle(vals, k); !slices.Equal(got, want) {
				t.Fatalf("step %d after failed join: got %v, want oracle %v", s, got, want)
			}
		}
	}
	h := e.Health()
	if h.Failures == 0 {
		t.Fatalf("failed join registered no failure: %+v", h)
	}
	tiles(t, h, n, "after failed join")
}

// DeadLinkRecoversByMerge pins the recovery contract without a Redial
// factory: a link that dies mid-run must not panic or wedge the engine. The
// detecting step returns the last-good report and flags Health().Degraded;
// the next observation call merges the dead range into a survivor, replays
// values, forces a reset, and from that step on reports track the oracle
// again. The recovery is charged to the link ledger, and the sparse path
// keeps working on the merged membership.
func DeadLinkRecoversByMerge(t *testing.T, sh Shape) {
	EachGather(t, func(t *testing.T) {
		const n, k, seed = 12, 3, 7
		var events []coord.Event
		links := fanout.Loopbacks(3, sh.Serve)
		e, err := sh.New(fanout.Config{
			N: n, K: k, Seed: seed,
			OnEvent: func(ev coord.Event) { events = append(events, ev) },
		}, links)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()

		src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 400, Seed: 9})
		vals := make([]int64, n)
		var lastGood []int
		for s := 0; s < sh.MergeWarm; s++ {
			src.Step(vals)
			lastGood = append(lastGood[:0], e.Observe(vals)...)
		}
		if e.Err() != nil {
			t.Fatalf("healthy run reported error: %v", e.Err())
		}

		// Kill one link underneath the engine, then force communication
		// until the failure is detected.
		links[sh.MergeVictim].Close()
		detected := false
		for s := 0; s < 5 && !detected; s++ {
			Driven(s, vals)
			got := e.Observe(vals)
			if h := e.Health(); h.Degraded {
				// The detecting step must hand back the last-good set,
				// never a half-updated one.
				if !slices.Equal(got, lastGood) {
					t.Fatalf("detecting step returned %v, want last-good %v", got, lastGood)
				}
				detected = true
			} else {
				lastGood = append(lastGood[:0], got...)
			}
		}
		if !detected {
			t.Fatal("dead link never surfaced as Degraded health")
		}

		// The next observation call recovers and processes its step:
		// reports must match the oracle from here on.
		for s := 5; s < 25; s++ {
			Driven(s, vals)
			got := e.Observe(vals)
			if e.Err() != nil {
				t.Fatalf("step %d: recovery went terminal: %v", s, e.Err())
			}
			if want := order.Oracle(vals, k); !slices.Equal(got, want) {
				t.Fatalf("step %d after recovery: got %v, want oracle %v", s, got, want)
			}
		}

		h := e.Health()
		if h.Terminal != nil || h.Degraded {
			t.Fatalf("recovered engine reports unhealthy: %+v", h)
		}
		if h.Failures == 0 || h.Recoveries != 1 || len(h.Peers) != 2 {
			t.Fatalf("health after one merge: %+v, want failures, one recovery, two links", h)
		}
		tiles(t, h, n, "after the merge")
		for _, kind := range []coord.EventKind{coord.EventPeerDown, coord.EventRangeMerged, coord.EventRecovered} {
			if !slices.ContainsFunc(events, func(ev coord.Event) bool { return ev.Kind == kind }) {
				t.Errorf("event %v never delivered (got %v)", kind, events)
			}
		}
		if e.Overhead().Total() == 0 {
			t.Fatal("recovery charged nothing to the link ledger")
		}

		vals[0] = 1 << 30 // vals mirrors the engine's last-value view
		if d := e.ObserveDelta([]int{0}, []int64{1 << 30}); !slices.Equal(d, order.Oracle(vals, k)) {
			t.Fatalf("delta after recovery: got %v, want oracle %v", d, order.Oracle(vals, k))
		}
	})
}

// RedialedHostFlipsItsPredecessorsCoins is the twin property a stateless
// coin buys a failover. A link is killed before a step in which the monitor
// would reset anyway, and redialed: the recovery pass rebuilds every bank
// from nothing but the assignment and replays the values, and its forced
// reset leaves the machine where the never-failed twin's own reset of that
// step leaves it. From there on the two agree — every report, every
// statistic's increment, and the ledger of every step by phase in messages
// and bytes: a rebuilt leaf flips, for its nodes, exactly the coins the
// dead one would have, where a leaf that carried generators restarted their
// streams. What the failover costs is the recovery pass's own charges, the
// aborted step's and the forced reset's.
func RedialedHostFlipsItsPredecessorsCoins(t *testing.T, sh Shape) {
	const n, k, seed, steps, kill = 24, 4, 11, 60, 20
	build := func(links []transport.Link) *fanout.Engine {
		e, err := sh.New(fanout.Config{N: n, K: k, Seed: seed, Redial: sh.redial}, links)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e
	}
	links := fanout.Loopbacks(3, sh.Serve)
	failed, twin := build(links), build(fanout.Loopbacks(3, sh.Serve))
	type charges struct {
		counts [3]comm.Counts
		bytes  [3]comm.Bytes
	}
	ledger := func(e *fanout.Engine) (c charges) {
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
		Driven(s, vals)
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
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: report %v, twin %v", s, got, want)
		}
	}
	if twin.Stats().Resets < 10 || twin.Counts().Up == 0 || compared < steps-kill-2 {
		t.Fatalf("workload too calm to compare anything: %+v over %d compared steps", twin.Stats(), compared)
	}
}

// AllPeersLostIsTerminal: with no survivors and no Redial there is nothing
// to recover onto. The engine wedges cleanly: sticky Err, an EventTerminal,
// the last-good report keeps being returned on either path, the ledger
// freezes, and Close stays safe.
func AllPeersLostIsTerminal(t *testing.T, sh Shape) {
	const n, k = 8, 2
	var events []coord.Event
	links := fanout.Loopbacks(1, sh.Serve)
	e, err := sh.New(fanout.Config{
		N: n, K: k, Seed: 3,
		OnEvent: func(ev coord.Event) { events = append(events, ev) },
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	vals := make([]int64, n)
	var lastGood []int
	for s := 0; s < sh.TerminalWarm; s++ {
		Driven(s, vals)
		lastGood = append(lastGood[:0], e.Observe(vals)...)
	}
	links[0].Close()
	for s := sh.TerminalWarm; s < sh.TerminalWarm+6; s++ {
		Driven(s, vals)
		if got := e.Observe(vals); !slices.Equal(got, lastGood) {
			t.Fatalf("step %d: wedged engine changed its report: %v vs %v", s, got, lastGood)
		}
	}
	if e.Err() == nil {
		t.Fatal("losing the only link did not go terminal")
	}
	if h := e.Health(); h.Terminal == nil {
		t.Fatalf("terminal engine reports healthy: %+v", h)
	}
	counts := e.Counts()
	if got := e.ObserveDelta([]int{0}, []int64{1 << 30}); !slices.Equal(got, lastGood) {
		t.Fatalf("delta on wedged engine: got %v, want last-good %v", got, lastGood)
	}
	if after := e.Counts(); after != counts {
		t.Fatalf("wedged engine kept charging: %v -> %v", counts, after)
	}
	if !slices.ContainsFunc(events, func(ev coord.Event) bool { return ev.Kind == coord.EventTerminal }) {
		t.Fatalf("no EventTerminal delivered: %v", events)
	}
	e.Close() // must not panic with the link already dead
}

// RetryBudgetExhaustion: a Redial factory that only produces dead links
// burns the whole retry budget — one redial per attempt, three attempts —
// and the engine then goes terminal with a descriptive error instead of
// retrying forever.
func RetryBudgetExhaustion(t *testing.T, sh Shape) {
	const n, k = 8, 2
	redials := 0
	links := fanout.Loopbacks(1, sh.Serve)
	e, err := sh.New(fanout.Config{
		N: n, K: k, Seed: 11,
		Redial: func() (transport.Link, error) {
			redials++
			a, b := transport.Pipe()
			b.Close() // born dead: the Assign handshake must fail
			return a, nil
		},
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	vals := make([]int64, n)
	for s := 0; s < 5; s++ {
		Driven(s, vals)
		e.Observe(vals)
	}
	links[0].Close()
	for s := 5; s < 10 && e.Err() == nil; s++ {
		Driven(s, vals)
		e.Observe(vals)
	}
	if e.Err() == nil {
		t.Fatal("exhausted budget did not go terminal")
	}
	if !strings.Contains(e.Err().Error(), "recovery abandoned") {
		t.Fatalf("terminal error %q does not name the abandoned recovery", e.Err())
	}
	if redials != 3 {
		t.Fatalf("a budget of 3 attempts made %d redials, want 3", redials)
	}
}
