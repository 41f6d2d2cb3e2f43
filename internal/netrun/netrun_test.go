package netrun

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/fanout/fanouttest"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

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
	for _, g := range fanouttest.Gathers {
		for _, tc := range cases {
			t.Run(g.Name+"/"+tc.name, func(t *testing.T) {
				fanouttest.SetGather(t, g.Procs)
				const seed, steps = 41, 200
				seq := core.New(core.Config{N: tc.n, K: tc.k, Seed: seed})
				net := hosts.MustLoopback(t, fanout.Config{N: tc.n, K: tc.k, Seed: seed}, tc.peers)
				defer net.Close()

				srcA, srcB := tc.src(tc.n), tc.src(tc.n)
				va, vb := make([]int64, tc.n), make([]int64, tc.n)
				for s := 0; s < steps; s++ {
					srcA.Step(va)
					srcB.Step(vb)
					topSeq := seq.Observe(va)
					topNet := net.Observe(vb)
					if !slices.Equal(topSeq, topNet) {
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
// the first also what the removed lockstep mode sent on this run; 13096 /
// 11896 while every round of an execution was an exchange of its own).
func TestPipelinedFramingCoalesces(t *testing.T) {
	const n, k, seed, steps, peers = 24, 4, 19, 150, 4
	fanouttest.EachGather(t, func(t *testing.T) {
		e := hosts.MustLoopback(t, fanout.Config{N: n, K: k, Seed: seed}, peers)
		defer e.Close()
		src := stream.NewIID(stream.IIDConfig{N: n, Seed: 5, Dist: stream.Uniform, Lo: 0, Hi: 1 << 20})
		vals := make([]int64, n)
		for s := 0; s < steps; s++ {
			src.Step(vals)
			e.Observe(vals)
		}
		// The engine keeps its link ledger whatever its shape; topk reports
		// it for tree monitors only.
		ts, led := e.TransportStats(), e.Overhead()
		if ts.SentFrames >= led.Down {
			t.Fatalf("commands did not coalesce: %d frames sent for %d ledger commands", ts.SentFrames, led.Down)
		}
		if ts.RecvFrames >= led.Up {
			t.Fatalf("replies did not coalesce: %d frames received for %d ledger replies", ts.RecvFrames, led.Up)
		}
		if led.Down != 4772 || ts.SentFrames != 3572 {
			t.Fatalf("ledger commands / sent frames = %d / %d, want 4772 / 3572", led.Down, ts.SentFrames)
		}
	})
}

// TestNewClosesLinksOnHandshakeFailure pins the no-leak contract: a
// failed handshake must close every link so serve loops terminate.
func TestNewClosesLinksOnHandshakeFailure(t *testing.T) {
	a, b := transport.Pipe()
	b.Close() // peer gone before the handshake
	if _, err := fanout.New(fanout.Config{N: 4, K: 2, Seed: 1}, []transport.Link{a}); err == nil {
		t.Fatal("New succeeded over a dead link")
	}
	if err := a.Send([]byte{0}); err == nil {
		t.Fatal("link still open after failed New")
	}
}

// TestEmptyDeltaStep: a step in which nothing changed still advances time
// and must not touch any link beyond the first initialization step.
func TestEmptyDeltaStep(t *testing.T) {
	net := hosts.MustLoopback(t, fanout.Config{N: 8, K: 2, Seed: 1}, 2)
	defer net.Close()
	net.Observe(make([]int64, 8)) // init reset
	before := net.TransportStats()
	top1 := append([]int(nil), net.ObserveDelta(nil, nil)...)
	top2 := net.ObserveDelta([]int{}, []int64{})
	if !slices.Equal(top1, top2) {
		t.Fatalf("empty steps changed the report: %v vs %v", top1, top2)
	}
	if after := net.TransportStats(); after != before {
		t.Fatalf("empty delta steps moved frames: %+v -> %+v", before, after)
	}
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
// keys, whose ceil(log2 N) + 1 broadcast rounds every host runs itself and
// the coordinator replays, so one Round frame to every peer and one reply
// gathered from each — P of either per reset, whatever k and N are, where
// k+1 executions shipped k+1 times (ceil(log2 N) + 1)·P, and one execution
// round by round (ceil(log2 N) + 1)·P. The time-0 reset, the resets
// violations drive and the forced reset of a recovery count alike, under
// both gathers.
func TestResetIsOneSweepOfRounds(t *testing.T) {
	const n, k, steps = 40, 6, 120
	const perReset = 1
	for _, g := range fanouttest.Gathers {
		for _, peers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/P=%d", g.Name, peers), func(t *testing.T) {
				fanouttest.SetGather(t, g.Procs)
				var rounds, replies atomic.Int64
				tapped := func() transport.Link {
					return &sweepTap{Link: fanout.Loopback(Serve), rounds: &rounds, replies: &replies}
				}
				links := make([]transport.Link, peers)
				for i := range links {
					links[i] = tapped()
				}
				e, err := fanout.New(fanout.Config{N: n, K: k, Seed: 7,
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
