package netrun

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/fanout"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The round-by-round exchange the bid logs replaced, kept as the reference
// they are held to: every round of an execution is one Round request to
// every peer carrying the round and the cut broadcast so far, and each host
// answers with the bids of that round alone.

// refServe is the node-host side of the round-by-round exchange.
func refServe(link transport.Link) error {
	var reply wire.Reply // reusable bid list
	return fanout.ServeWith(link, func(bank *coord.Nodes, m wire.Round, dst []byte) []byte {
		reply.IDs, reply.Keys = reply.IDs[:0], reply.Keys[:0]
		bank.Round(m.Tag, m.Round, order.Key(m.Best), m.Bound, m.Step, func(id int, key order.Key) {
			reply.IDs = append(reply.IDs, id)
			reply.Keys = append(reply.Keys, int64(key))
		})
		return reply.Append(dst)
	})
}

// refExecRounds is the coordinator side of the round-by-round exchange:
// each round one fan-out/gather exchange, charging Up per bid and Bcast
// per round.
func refExecRounds() fanout.Exec {
	var reply wire.Reply // reusable decode target
	var ex protocol.Exec
	return func(e *fanout.Engine, eff coord.Effect) ([]protocol.Winner, error) {
		ex.Begin(eff.Bound, eff.Want, coord.MinimumTag(eff.Tag), e.Recorder(eff.Phase), nil, e.Step())
		for ex.More() {
			round := wire.Round{Tag: eff.Tag, Round: ex.Round(), Best: int64(ex.Best()), Bound: eff.Bound, Step: e.Step(), Want: eff.Want}
			err := e.Round(round, func(_, _ int, answer []byte) error {
				if err := reply.Decode(answer); err != nil {
					return err
				}
				for j, id := range reply.IDs {
					ex.Bid(id, order.Key(reply.Keys[j]))
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			ex.EndRound()
		}
		return ex.Winners(), nil
	}
}

// execCase is a split node population ready for executions: the banks of
// P hosts in a state that gives every cohort members — a top set,
// installed bounds, and a step whose observations made violators of both
// sides.
type execCase struct {
	n, k  int
	step  int64
	tol   order.Tol
	banks []*coord.Nodes
}

// newExecCase builds the hosts of n nodes split over peers. Values are
// clustered so that a 5 % tolerance band holds many of them.
func newExecCase(t *testing.T, seed uint64, n, k, peers int, eps float64) *execCase {
	t.Helper()
	tol, err := order.NewTol(eps)
	if err != nil {
		t.Fatal(err)
	}
	c := &execCase{n: n, k: k, step: 2, tol: tol}
	for i := 0; i < peers; i++ {
		lo, hi := fanout.Split(0, n, peers, i)
		c.banks = append(c.banks, coord.NewNodes(n, lo, hi, seed, false, tol))
	}
	r := rng.New(seed, 0x1e57)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = 1000 + r.Int63n(120)
	}
	c.observe(t, vals, 1)
	// The top set is the k largest keys at step 1, the filters split at the
	// midpoint between the sets; step 2 moves every node by up to ±60, so
	// both sides violate.
	keys := make([]order.Key, n)
	for id, v := range vals {
		keys[id], _ = c.banks[0].Encode(id, v)
	}
	ranked := make([]int, n)
	for i := range ranked {
		ranked[i] = i
	}
	slices.SortFunc(ranked, func(a, b int) int { return cmp.Compare(keys[b], keys[a]) })
	for _, b := range c.banks {
		b.ResetBegin()
		for _, id := range ranked[:k] {
			if id >= b.Lo() && id < b.Hi() {
				b.Winner(id, true)
			}
		}
		if k == n {
			b.Midpoint(0, true)
		} else {
			b.Midpoint(order.Midpoint(keys[ranked[k]], keys[ranked[k-1]]), false)
		}
	}
	for id := range vals {
		vals[id] += r.Int63n(121) - 60
	}
	c.observe(t, vals, c.step)
	return c
}

func (c *execCase) observe(t *testing.T, vals []int64, step int64) {
	t.Helper()
	for _, b := range c.banks {
		for id := b.Lo(); id < b.Hi(); id++ {
			if _, _, err := b.Observe(id, vals[id], step); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// execution is the effect a machine would emit for tag, as coord.Machine
// sizes it: false when the cohort's population bound is empty.
func (c *execCase) execution(tag uint8) (coord.Effect, bool) {
	eff := coord.Effect{Kind: coord.EffExec, Tag: tag, Want: 1}
	switch tag {
	case coord.TagViolMin, coord.TagHandMin:
		eff.Bound = c.k
	case coord.TagViolMax, coord.TagHandMax:
		eff.Bound = c.n - c.k
	case coord.TagReset:
		eff.Bound, eff.Want = c.n, min(c.k+1, c.n)
	}
	eff.Phase = comm.PhaseViolation
	switch tag {
	case coord.TagHandMin, coord.TagHandMax:
		eff.Phase = comm.PhaseHandler
	case coord.TagReset:
		eff.Phase = comm.PhaseReset
	}
	return eff, eff.Bound > 0
}

// charged is what one execution left behind: its winners, its ledger and
// its trace.
type charged struct {
	winners []protocol.Winner
	ledger  comm.Ledger
	trace   *comm.Trace
}

func newCharged() *charged { return &charged{trace: comm.NewTrace(1 << 12)} }

// roundByRound runs eff as the reference exchange did: every round one
// request to every host with the cut so far, the bids delivered host by
// host.
func (c *execCase) roundByRound(eff coord.Effect, out *charged) {
	ex := protocol.NewExec(eff.Bound, eff.Want, coord.MinimumTag(eff.Tag), out.ledger.InPhase(eff.Phase), out.trace, c.step)
	for ex.More() {
		cut := ex.Best() // what the round's request carried
		for _, b := range c.banks {
			b.Round(eff.Tag, ex.Round(), cut, eff.Bound, c.step, ex.Bid)
		}
		ex.EndRound()
	}
	out.winners = slices.Clone(ex.Winners())
}

// logged runs eff as the engine does: every host answers one request with
// its bid log (fanout.LogRound, the host's own code), and the logs are
// opened and replayed against the true cut as the root's Exec does.
func (c *execCase) logged(t *testing.T, eff coord.Effect, out *charged) {
	t.Helper()
	req := wire.Round{Tag: eff.Tag, Best: int64(order.NegInf), Bound: eff.Bound, Step: c.step, Want: eff.Want}
	logs := make([]wire.BidLog, len(c.banks))
	for i, b := range c.banks {
		frame := fanout.LogRound()(b, req, nil)
		if err := logs[i].Open(frame, b.Lo(), b.Hi(), protocol.Rounds(eff.Bound)); err != nil {
			t.Fatalf("host %d's log refused: %v", i, err)
		}
	}
	ex := protocol.NewExec(eff.Bound, eff.Want, coord.MinimumTag(eff.Tag), out.ledger.InPhase(eff.Phase), out.trace, c.step)
	ex.Replay(logs, coord.ExecTol(eff.Tag, c.tol), nil)
	out.winners = slices.Clone(ex.Winners())
}

// TestBidLogMatchesRoundByRound holds the bid-log exchange to the
// round-by-round one it replaced. Per execution — every cohort tag, both
// senses, ε ∈ {0, 0.05}, P ∈ {1, 2, 3, 5} over uneven ranges, k ∈ {1, 4,
// n}, 200 seeds and node counts up to 400 — the winners, the ledger per
// phase and the comm.Trace must be the reference's. And per engine, the
// two exchanges behind real links must report the same sets at every step
// and charge the same ledgers per phase and the same Stats.
func TestBidLogMatchesRoundByRound(t *testing.T) {
	tags := []uint8{coord.TagViolMin, coord.TagViolMax, coord.TagHandMin, coord.TagHandMax, coord.TagReset}
	t.Run("executions", func(t *testing.T) {
		bids := 0
		for seed := uint64(0); seed < 200; seed++ {
			n := 5 + int(seed*37%400)
			for _, eps := range []float64{0, 0.05} {
				for _, peers := range []int{1, 2, 3, 5} {
					for _, k := range []int{1, 4, n} {
						c := newExecCase(t, seed, n, k, peers, eps)
						for _, tag := range tags {
							eff, ok := c.execution(tag)
							if !ok {
								continue
							}
							ref, got := newCharged(), newCharged()
							c.roundByRound(eff, ref)
							c.logged(t, eff, got)
							where := fmt.Sprintf("seed %d n=%d k=%d P=%d ε=%v tag %d", seed, n, k, peers, eps, tag)
							if !slices.Equal(got.winners, ref.winners) {
								t.Fatalf("%s: winners %v, round by round %v", where, got.winners, ref.winners)
							}
							for _, ph := range comm.Phases() {
								if g, r := got.ledger.PhaseCounts(ph), ref.ledger.PhaseCounts(ph); g != r {
									t.Fatalf("%s: phase %v counts %v, round by round %v", where, ph, g, r)
								}
								if g, r := got.ledger.PhaseBytes(ph), ref.ledger.PhaseBytes(ph); g != r {
									t.Fatalf("%s: phase %v bytes %v, round by round %v", where, ph, g, r)
								}
							}
							if g, r := got.trace.Events(), ref.trace.Events(); !slices.Equal(g, r) {
								t.Fatalf("%s: trace\n%v\nround by round\n%v", where, got.trace, ref.trace)
							}
							bids += int(ref.ledger.Total().Up)
						}
					}
				}
			}
		}
		if bids < 100000 {
			t.Fatalf("only %d bids compared: the cases are too quiet to tell", bids)
		}
	})
	t.Run("engines", func(t *testing.T) {
		const n, steps = 23, 150
		for seed := uint64(1); seed <= 4; seed++ {
			for _, eps := range []float64{0, 0.05} {
				for _, peers := range []int{1, 2, 3, 5} {
					for _, k := range []int{1, 4, n} {
						cfg := fanout.Config{N: n, K: k, Seed: seed, Epsilon: eps}
						ref, err := fanout.NewWith(cfg, fanout.Loopbacks(peers, refServe), refExecRounds())
						if err != nil {
							t.Fatal(err)
						}
						got, err := fanout.New(cfg, fanout.Loopbacks(peers, Serve))
						if err != nil {
							t.Fatal(err)
						}
						src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 12, MaxStep: 300, Seed: seed})
						vals := make([]int64, n)
						for s := 0; s < steps; s++ {
							src.Step(vals)
							if g, r := got.Observe(vals), ref.Observe(vals); !slices.Equal(g, r) {
								t.Fatalf("seed %d ε=%v P=%d k=%d step %d: reports %v, round by round %v", seed, eps, peers, k, s, g, r)
							}
						}
						where := fmt.Sprintf("seed %d ε=%v P=%d k=%d", seed, eps, peers, k)
						for _, ph := range comm.Phases() {
							if g, r := got.Ledger().PhaseCounts(ph), ref.Ledger().PhaseCounts(ph); g != r {
								t.Fatalf("%s: phase %v counts %v, round by round %v", where, ph, g, r)
							}
							if g, r := got.Ledger().PhaseBytes(ph), ref.Ledger().PhaseBytes(ph); g != r {
								t.Fatalf("%s: phase %v bytes %v, round by round %v", where, ph, g, r)
							}
						}
						if got.Counts() != ref.Counts() || got.Bytes() != ref.Bytes() || got.Stats() != ref.Stats() {
							t.Fatalf("%s: counts %v bytes %v stats %+v, round by round %v %v %+v", where, got.Counts(), got.Bytes(), got.Stats(), ref.Counts(), ref.Bytes(), ref.Stats())
						}
						if got.Err() != nil || ref.Err() != nil || got.Health().Failures != 0 {
							t.Fatalf("%s: the engines failed: %v / %v", where, got.Err(), ref.Err())
						}
						got.Close()
						ref.Close()
					}
				}
			}
		}
	})
}
