package netrun

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wire"
)

// driven produces observation vectors that force communication every
// step: large, fast-moving values guarantee filter violations, so every
// peer's link carries traffic and a dead link is noticed promptly.
func driven(s int, vals []int64) {
	for i := range vals {
		vals[i] = int64((s*31+i*17)%1000) * 50
	}
}

// TestDeadLinkRecoversByMerge pins the recovery contract without a
// Redial factory: a link that dies mid-run must not panic or wedge the
// engine. The detecting step returns the last-good report and flags
// Health().Degraded; the next observation call merges the dead range
// into a survivor, replays values, forces a reset, and from that step
// on reports track the oracle again.
func TestDeadLinkRecoversByMerge(t *testing.T) {
	for _, g := range gathers {
		t.Run(g.name, func(t *testing.T) {
			setGather(t, g.procs)
			const n, k, seed = 12, 3, 7
			var events []coord.Event
			links := LoopbackLinks(3)
			e, err := New(Config{
				N: n, K: k, Seed: seed,
				RetryBackoff: time.Millisecond, // keep the backoff sleep out of the test budget
				OnEvent:      func(ev coord.Event) { events = append(events, ev) },
			}, links)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 400, Seed: 9})
			vals := make([]int64, n)
			var lastGood []int
			for s := 0; s < 20; s++ {
				src.Step(vals)
				lastGood = append(lastGood[:0], e.Observe(vals)...)
			}
			if e.Err() != nil {
				t.Fatalf("healthy run reported error: %v", e.Err())
			}

			// Kill one peer's link underneath the engine, then force
			// communication until the failure is detected.
			links[1].Close()
			detected := false
			for s := 0; s < 5 && !detected; s++ {
				driven(s, vals)
				got := e.Observe(vals)
				if h := e.Health(); h.Degraded {
					// The detecting step must hand back the last-good set,
					// never a half-updated one.
					if !equal(got, lastGood) {
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
				driven(s, vals)
				got := e.Observe(vals)
				if e.Err() != nil {
					t.Fatalf("step %d: recovery went terminal: %v", s, e.Err())
				}
				if want := sim.Oracle(vals, k); !equal(got, want) {
					t.Fatalf("step %d after recovery: got %v, want oracle %v", s, got, want)
				}
			}

			h := e.Health()
			if h.Terminal != nil || h.Degraded {
				t.Fatalf("recovered engine reports unhealthy: %+v", h)
			}
			if h.Failures == 0 || h.Recoveries != 1 {
				t.Fatalf("health counters off: %+v", h)
			}
			if len(h.Peers) != 2 {
				t.Fatalf("merge left %d peers, want 2: %+v", len(h.Peers), h.Peers)
			}
			lo := 0
			for _, p := range h.Peers {
				if p.Lo != lo {
					t.Fatalf("peer ranges not contiguous: %+v", h.Peers)
				}
				lo = p.Hi
			}
			if lo != n {
				t.Fatalf("peer ranges do not cover [0, %d): %+v", n, h.Peers)
			}
			wantKinds := map[coord.EventKind]bool{
				coord.EventPeerDown: false, coord.EventRangeMerged: false, coord.EventRecovered: false,
			}
			for _, ev := range events {
				if _, ok := wantKinds[ev.Kind]; ok {
					wantKinds[ev.Kind] = true
				}
			}
			for kind, seen := range wantKinds {
				if !seen {
					t.Errorf("event %v never delivered (got %v)", kind, events)
				}
			}

			// The sparse path must keep working on the merged membership.
			vals[0] = 1 << 30 // vals mirrors the engine's last-value view
			if d := e.ObserveDelta([]int{0}, []int64{1 << 30}); !equal(d, sim.Oracle(vals, k)) {
				t.Fatalf("delta after recovery: got %v, want oracle %v", d, sim.Oracle(vals, k))
			}
		})
	}
}

// cutObserve is a link whose armed Send ships a dense Observe frame with
// its count intact and its bytes cut inside the value after the first half
// of them: a frame that is well-formed as far as a host can tell until it
// has applied half its range.
type cutObserve struct {
	transport.Link
	armed bool
}

func (l *cutObserve) Send(p []byte) error {
	if l.armed && p[0] == wire.TypeObserve {
		l.armed = false
		s, err := wire.OpenObserve(p)
		if err != nil {
			return err
		}
		if _, err := s.Share(s.Len() / 2); err != nil {
			return err
		}
		p = p[:s.Offset()+1]
	}
	return l.Link.Send(p)
}

// TestDeadHostAfterHalfAppliedFrame pins what makes applying a frame in
// place safe. A host applies a dense frame as it reads it, so a frame that
// turns malformed mid-run leaves the host's bank half written — and that
// host never answers again: its serve loop ends with the wire error, its
// link closes, the coordinator sees a dead peer on the step it was
// gathering, and the next call rebuilds the range from the mirror — the
// values the coordinator shipped, not the ones a host half kept — so
// reports are oracle-exact from then on.
func TestDeadHostAfterHalfAppliedFrame(t *testing.T) {
	for _, g := range gathers {
		t.Run(g.name, func(t *testing.T) {
			setGather(t, g.procs)
			const n, k, seed = 64, 4, 13
			coordEnd, serveEnd := transport.Pipe()
			served := make(chan error, 1)
			go func() {
				err := Serve(serveEnd)
				serveEnd.Close() // as fanout.Loopback does for a failed server
				served <- err
			}()
			victim := &cutObserve{Link: coordEnd}
			e, err := New(Config{N: n, K: k, Seed: seed, RetryBackoff: time.Millisecond},
				[]transport.Link{LoopbackLink(), victim, LoopbackLink()})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			// Three-byte values, so half a frame's bytes still cover its count.
			src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 1 << 20, Hi: 1 << 21, MaxStep: 1 << 12, Seed: 3})
			vals := make([]int64, n)
			var lastGood []int
			for s := 0; s < 10; s++ {
				src.Step(vals)
				lastGood = append(lastGood[:0], e.Observe(vals)...)
				if want := sim.Oracle(vals, k); !equal(lastGood, want) {
					t.Fatalf("healthy step %d: got %v, want oracle %v", s, lastGood, want)
				}
			}

			victim.armed = true
			src.Step(vals)
			if got := e.Observe(vals); !equal(got, lastGood) {
				t.Fatalf("the step that lost a host returned %v, want the last-good %v", got, lastGood)
			}
			if err := <-served; !errors.Is(err, wire.ErrTruncated) {
				t.Fatalf("the host's serve loop ended with %v, want wire.ErrTruncated", err)
			}
			if h := e.Health(); !h.Degraded || h.Failures != 1 || h.Recoveries != 0 {
				t.Fatalf("health after the cut frame: %+v, want one failure awaiting recovery", h)
			}

			for s := 0; s < 10; s++ {
				src.Step(vals)
				got := e.Observe(vals)
				if e.Err() != nil {
					t.Fatalf("step %d after the cut frame: recovery went terminal: %v", s, e.Err())
				}
				if want := sim.Oracle(vals, k); !equal(got, want) {
					t.Fatalf("step %d after the cut frame: got %v, want oracle %v", s, got, want)
				}
			}
			if h := e.Health(); h.Degraded || h.Terminal != nil || h.Failures != 1 || h.Recoveries != 1 || len(h.Peers) != 2 {
				t.Fatalf("health after recovery: %+v, want one failure, one recovery, two peers", h)
			}
		})
	}
}

// TestDeadLinkRecoversByRedial: with a Redial factory the dead peer's
// exact range is handed to a fresh replacement link instead of being
// merged away, and the cohort size is preserved.
func TestDeadLinkRecoversByRedial(t *testing.T) {
	const n, k, seed = 12, 3, 5
	var events []coord.Event
	links := LoopbackLinks(3)
	e, err := New(Config{
		N: n, K: k, Seed: seed,
		Redial:       func() (transport.Link, error) { return LoopbackLink(), nil },
		RetryBackoff: time.Millisecond,
		OnEvent:      func(ev coord.Event) { events = append(events, ev) },
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	vals := make([]int64, n)
	for s := 0; s < 10; s++ {
		driven(s, vals)
		e.Observe(vals)
	}
	before := e.Health()
	links[2].Close()
	for s := 10; s < 30; s++ {
		driven(s, vals)
		got := e.Observe(vals)
		if e.Err() != nil {
			t.Fatalf("step %d: redial recovery went terminal: %v", s, e.Err())
		}
		if h := e.Health(); !h.Degraded {
			if want := sim.Oracle(vals, k); !equal(got, want) {
				t.Fatalf("step %d: got %v, want oracle %v", s, got, want)
			}
		}
	}
	h := e.Health()
	if h.Recoveries != 1 || len(h.Peers) != len(before.Peers) {
		t.Fatalf("redial recovery health off: %+v (before %+v)", h, before)
	}
	for i, p := range h.Peers {
		if p.Lo != before.Peers[i].Lo || p.Hi != before.Peers[i].Hi {
			t.Fatalf("redial changed ranges: %+v -> %+v", before.Peers, h.Peers)
		}
	}
	replaced := false
	for _, ev := range events {
		if ev.Kind == coord.EventPeerReplaced {
			replaced = true
		}
		if ev.Kind == coord.EventRangeMerged {
			t.Fatalf("redial recovery merged a range: %v", events)
		}
	}
	if !replaced {
		t.Fatalf("no EventPeerReplaced delivered: %v", events)
	}
}

// TestRedialedHostFlipsItsPredecessorsCoins is the twin property a
// stateless coin buys a failover. A peer is killed before a step in which
// the monitor would reset anyway, and redialed: the recovery pass rebuilds
// every bank from nothing but the assignment and replays the values, and
// its forced reset leaves the machine where the never-failed twin's own
// reset of that step leaves it. From there on the two agree — every
// report, every statistic's increment, and the ledger of every step by
// phase in messages and bytes: a rebuilt host flips, for its nodes, exactly
// the coins the dead one would have, where a host that carried generators
// restarted their streams. What the failover costs is the recovery pass's
// own charges, the aborted step's and the forced reset's.
func TestRedialedHostFlipsItsPredecessorsCoins(t *testing.T) {
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
		driven(s, vals)
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

// TestAllPeersLostIsTerminal: with no survivors and no Redial there is
// nothing to recover onto. The engine wedges cleanly: sticky Err, the
// last-good report keeps being returned, the ledger freezes, and Close
// stays safe.
func TestAllPeersLostIsTerminal(t *testing.T) {
	const n, k = 8, 2
	var events []coord.Event
	links := LoopbackLinks(1)
	e, err := New(Config{
		N: n, K: k, Seed: 3, RetryBackoff: time.Millisecond,
		OnEvent: func(ev coord.Event) { events = append(events, ev) },
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	vals := make([]int64, n)
	var lastGood []int
	for s := 0; s < 10; s++ {
		driven(s, vals)
		lastGood = append(lastGood[:0], e.Observe(vals)...)
	}
	links[0].Close()
	for s := 10; s < 16; s++ {
		driven(s, vals)
		if got := e.Observe(vals); !equal(got, lastGood) {
			t.Fatalf("step %d: wedged engine changed its report: %v vs %v", s, got, lastGood)
		}
	}
	if e.Err() == nil {
		t.Fatal("losing the only peer did not go terminal")
	}
	h := e.Health()
	if h.Terminal == nil {
		t.Fatalf("terminal engine reports healthy: %+v", h)
	}
	counts := e.Counts()
	if got := e.ObserveDelta([]int{0}, []int64{1 << 30}); !equal(got, lastGood) {
		t.Fatalf("delta on wedged engine: got %v, want last-good %v", got, lastGood)
	}
	if after := e.Counts(); after != counts {
		t.Fatalf("wedged engine kept charging: %v -> %v", counts, after)
	}
	terminal := false
	for _, ev := range events {
		if ev.Kind == coord.EventTerminal {
			terminal = true
		}
	}
	if !terminal {
		t.Fatalf("no EventTerminal delivered: %v", events)
	}
	e.Close() // must not panic with the link already dead
}

// TestRetryBudgetExhaustion: a Redial factory that only produces dead
// links burns the whole retry budget and the engine then goes terminal
// with a descriptive error instead of retrying forever.
func TestRetryBudgetExhaustion(t *testing.T) {
	const n, k = 8, 2
	redials := 0
	links := LoopbackLinks(1)
	e, err := New(Config{
		N: n, K: k, Seed: 11,
		RetryBudget:  2,
		RetryBackoff: time.Millisecond,
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
		driven(s, vals)
		e.Observe(vals)
	}
	links[0].Close()
	for s := 5; s < 10 && e.Err() == nil; s++ {
		driven(s, vals)
		e.Observe(vals)
	}
	if e.Err() == nil {
		t.Fatal("exhausted budget did not go terminal")
	}
	if !strings.Contains(e.Err().Error(), "recovery abandoned") {
		t.Fatalf("terminal error %q does not name the abandoned recovery", e.Err())
	}
	if redials < 2 {
		t.Fatalf("budget of 2 produced only %d redial attempts", redials)
	}
}

// TestConstructorRejectsBadConfig pins the panic-free constructor
// contract: invalid shapes surface as errors, and the engine closes the
// links it was handed so serve loops terminate.
func TestConstructorRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		peers int
	}{
		{"zero-n", Config{N: 0, K: 1, Seed: 1}, 1},
		{"zero-k", Config{N: 4, K: 0, Seed: 1}, 1},
		{"k-gt-n", Config{N: 4, K: 5, Seed: 1}, 1},
		{"no-peers", Config{N: 4, K: 2, Seed: 1}, 0},
		{"peers-gt-n", Config{N: 4, K: 2, Seed: 1}, 5},
		{"bad-eps", Config{N: 4, K: 2, Seed: 1, Epsilon: -0.5}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			links := make([]transport.Link, tc.peers)
			for i := range links {
				a, b := transport.Pipe()
				go Serve(b)
				links[i] = a
			}
			e, err := New(tc.cfg, links)
			if err == nil {
				e.Close()
				t.Fatal("invalid config accepted")
			}
			for i, l := range links {
				if sendErr := l.Send([]byte{0}); sendErr == nil {
					t.Fatalf("link %d left open after rejected New", i)
				}
			}
		})
	}
}

// TestAppendTopIsACopy is the aliasing regression: the slice AppendTop
// returns must be caller-owned — mutating it after later steps must not
// corrupt the engine (unlike the Top / Observe views, which are
// documented as engine-owned and read-only). A pristine sequential twin
// run in lockstep detects any corruption.
func TestAppendTopIsACopy(t *testing.T) {
	const n, k, seed = 10, 3, 5
	e := mustLoopback(t, Config{N: n, K: k, Seed: seed}, 2)
	defer e.Close()
	twin := core.New(core.Config{N: n, K: k, Seed: seed})

	srcA := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 600, Seed: 6})
	srcB := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 16, MaxStep: 600, Seed: 6})
	va, vb := make([]int64, n), make([]int64, n)
	var copies [][]int
	for s := 0; s < 60; s++ {
		srcA.Step(va)
		srcB.Step(vb)
		topNet := e.Observe(va)
		topSeq := twin.Observe(vb)
		if !equal(topNet, topSeq) {
			t.Fatalf("step %d: reports diverged: net=%v seq=%v", s, topNet, topSeq)
		}
		copies = append(copies, e.AppendTop(nil))
		// Scribble over every copy taken so far: if any of them aliased
		// engine state, the next steps diverge from the twin.
		for _, c := range copies {
			for i := range c {
				c[i] = -7
			}
		}
	}
	if cs, cn := twin.Counts(), e.Counts(); cs != cn {
		t.Fatalf("counts diverged after mutations: seq=%v net=%v", cs, cn)
	}
}
