package netrun

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/fanout/fanouttest"
	"repro/internal/order"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wire"
)

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
	fanouttest.EachGather(t, func(t *testing.T) {
		const n, k, seed = 64, 4, 13
		coordEnd, serveEnd := transport.Pipe()
		served := make(chan error, 1)
		go func() {
			err := Serve(serveEnd)
			serveEnd.Close() // as fanout.Loopback does for a failed server
			served <- err
		}()
		victim := &cutObserve{Link: coordEnd}
		e, err := New(Config{N: n, K: k, Seed: seed},
			[]transport.Link{LoopbackLink(), victim, LoopbackLink()})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()

		// Changes of up to 2¹² a step, two bytes each on the wire, so half
		// a frame's bytes still cover its count.
		src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 1 << 20, Hi: 1 << 21, MaxStep: 1 << 12, Seed: 3})
		vals := make([]int64, n)
		var lastGood []int
		for s := 0; s < 10; s++ {
			src.Step(vals)
			lastGood = append(lastGood[:0], e.Observe(vals)...)
			if want := order.Oracle(vals, k); !slices.Equal(lastGood, want) {
				t.Fatalf("healthy step %d: got %v, want oracle %v", s, lastGood, want)
			}
		}

		victim.armed = true
		src.Step(vals)
		if got := e.Observe(vals); !slices.Equal(got, lastGood) {
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
			if want := order.Oracle(vals, k); !slices.Equal(got, want) {
				t.Fatalf("step %d after the cut frame: got %v, want oracle %v", s, got, want)
			}
		}
		if h := e.Health(); h.Degraded || h.Terminal != nil || h.Failures != 1 || h.Recoveries != 1 || len(h.Peers) != 2 {
			t.Fatalf("health after recovery: %+v, want one failure, one recovery, two peers", h)
		}
	})
}

// killObserve is a link that, armed, dies at its next observation frame:
// the Send fails and the link closes, as a host dying would look to a
// coordinator whose frames to the peers before it have already shipped.
type killObserve struct {
	transport.Link
	armed bool
}

func (l *killObserve) Send(p []byte) error {
	if l.armed && (p[0] == wire.TypeObserve || p[0] == wire.TypeObserveDelta) {
		l.Link.Close()
		return transport.ErrClosed
	}
	return l.Link.Send(p)
}

// observeTap counts the observation frames sent over a link.
type observeTap struct {
	transport.Link
	sent int
}

func (l *observeTap) Send(p []byte) error {
	if p[0] == wire.TypeObserve || p[0] == wire.TypeObserveDelta {
		l.sent++
	}
	return l.Link.Send(p)
}

// TestDeadLinkMidFanOutHeals pins the mirror's half of change coding: a step
// whose fan-out dies part way — peer 0's frame shipped and applied, peer
// 1's link dead before its frame, peer 2 never reached — still leaves the
// mirror holding every value of the step, so the recovery that re-Assigns
// every peer replays them all and the next step is oracle-exact. That
// step is sparse and touches peer 0 alone, so the values the abandoned
// step — dense or sparse — gave peers 1 and 2's nodes reach their rebuilt
// banks only through the replay.
func TestDeadLinkMidFanOutHeals(t *testing.T) {
	const n, k = 48, 4 // peers host [0, 16), [16, 32), [32, 48)
	for _, g := range fanouttest.Gathers {
		for _, sparse := range []bool{false, true} {
			name := g.Name + "/dense"
			if sparse {
				name = g.Name + "/sparse"
			}
			t.Run(name, func(t *testing.T) {
				fanouttest.SetGather(t, g.Procs)
				first, victim := &observeTap{Link: LoopbackLink()}, &killObserve{Link: LoopbackLink()}
				e, err := New(Config{N: n, K: k, Seed: 17},
					[]transport.Link{first, victim, LoopbackLink()})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				vals := make([]int64, n)
				var lastGood []int
				for s := 0; s < 10; s++ {
					fanouttest.Driven(s, vals)
					lastGood = append(lastGood[:0], e.Observe(vals)...)
					if want := order.Oracle(vals, k); !slices.Equal(lastGood, want) {
						t.Fatalf("healthy step %d: got %v, want oracle %v", s, lastGood, want)
					}
				}

				// New leaders in peers 1 and 2's ranges, nodes the report does
				// not hold yet, and a move in peer 0's.
				ids, nv := []int{3, 20, 43}, []int64{7, 1 << 30, 1<<30 + 1}
				if slices.Contains(lastGood, 20) || slices.Contains(lastGood, 43) {
					t.Fatalf("nodes 20 and 43 lead already: %v", lastGood)
				}
				for j, id := range ids {
					vals[id] = nv[j]
				}
				shipped := first.sent
				victim.armed = true
				var got []int
				if sparse {
					got = e.ObserveDelta(ids, nv)
				} else {
					got = e.Observe(vals)
				}
				if !slices.Equal(got, lastGood) {
					t.Fatalf("the step that lost peer 1 returned %v, want the last-good %v", got, lastGood)
				}
				if first.sent != shipped+1 {
					t.Fatalf("peer 0 was sent %d observation frames in the step that lost peer 1, want 1", first.sent-shipped)
				}
				if h := e.Health(); !h.Degraded || h.Failures != 1 {
					t.Fatalf("health after the partial fan-out: %+v, want one failure awaiting recovery", h)
				}

				vals[5] = 9
				got = e.ObserveDelta([]int{5}, []int64{9})
				if want := order.Oracle(vals, k); !slices.Equal(got, want) || e.Health().Degraded {
					t.Fatalf("the step after the partial fan-out: got %v (health %+v), want oracle %v", got, e.Health(), want)
				}
			})
		}
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
		Redial:  func() (transport.Link, error) { return LoopbackLink(), nil },
		OnEvent: func(ev coord.Event) { events = append(events, ev) },
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	vals := make([]int64, n)
	for s := 0; s < 10; s++ {
		fanouttest.Driven(s, vals)
		e.Observe(vals)
	}
	before := e.Health()
	links[2].Close()
	for s := 10; s < 30; s++ {
		fanouttest.Driven(s, vals)
		got := e.Observe(vals)
		if e.Err() != nil {
			t.Fatalf("step %d: redial recovery went terminal: %v", s, e.Err())
		}
		if h := e.Health(); !h.Degraded {
			if want := order.Oracle(vals, k); !slices.Equal(got, want) {
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
	e := hosts.MustLoopback(t, Config{N: n, K: k, Seed: seed}, 2)
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
		if !slices.Equal(topNet, topSeq) {
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
