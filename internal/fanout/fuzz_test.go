package fanout

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/wire"
)

// fuzzRounds are the two substrates' answers to a Round frame, as
// netrun.Serve and shardrun.ServeShard build them (those packages import
// this one): the node-level round's bids, and a delegated whole execution.
var fuzzRounds = map[string]RoundFunc{
	"rounds": func(bank *coord.Nodes, m wire.Round, dst []byte) []byte {
		var reply wire.Reply
		bank.Round(m.Tag, m.Round, order.Key(m.Best), m.Bound, m.Step, func(id int, key order.Key) {
			reply.IDs, reply.Keys = append(reply.IDs, id), append(reply.Keys, int64(key))
		})
		return reply.Append(dst)
	},
	"delegated": func(bank *coord.Nodes, m wire.Round, dst []byte) []byte {
		ex := protocol.NewExec(m.Bound, coord.MinimumTag(m.Tag), comm.Discard, nil, m.Step)
		for ex.More() {
			bank.Round(m.Tag, ex.Round(), ex.Best(), m.Bound, m.Step, ex.Bid)
			ex.EndRound()
		}
		res := ex.Result()
		return wire.ShardDigest{OK: res.OK, ID: max(res.ID, 0), Key: int64(res.Key)}.Append(dst)
	},
}

// FuzzLeafRespond feeds a leaf that holds a valid assignment arbitrary
// frames: whatever arrives, respond answers or returns an error — a
// hostile or buggy frame cannot panic the process that hosts the leaf.
func FuzzLeafRespond(f *testing.F) {
	assign := wire.Assign{Lo: 4, Hi: 20, N: 24, K: 3, Seed: 5}.Append(nil)
	for _, seed := range [][]byte{
		wire.Round{Tag: coord.TagReset, Round: 0, Best: int64(order.NegInf), Bound: 24, Step: 1}.Append(nil),
		wire.Round{Tag: coord.TagReset, Round: 2, Best: 7, Bound: 0, Step: 1}.Append(nil),
		wire.Round{Tag: 9, Round: 0, Best: 7, Bound: 24, Step: 1}.Append(nil),
		wire.Round{Tag: coord.TagViolMin, Round: 70, Best: -3, Bound: 1 << 40, Step: 9}.Append(nil),
		wire.ObserveDelta{Step: 1, IDs: []int{4, 19}, Vals: []int64{5, -5}}.Append(nil),
		wire.Winner{Target: 19, IsTop: true}.Append(nil),
		wire.Winner{Target: 3}.Append(nil),
		wire.Midpoint{Mid: 12}.Append(nil),
		wire.ApproxBounds{Lo: 3, Hi: 9}.Append(nil),
		wire.AppendBare(nil, wire.TypeResetBegin),
		wire.AppendBare(nil, wire.TypeStatsPoll),
		wire.Batch{Frames: [][]byte{wire.AppendBare(nil, wire.TypeResetBegin), wire.Round{Tag: 5, Bound: 3}.Append(nil)}}.Append(nil),
		wire.Assign{Lo: 0, Hi: 2, N: 2, K: 2, Seed: 1}.Append(nil),
		// An extraction after a reset's first, as an incremental root or
		// interior ships it to the one child whose head was taken.
		wire.Batch{Frames: [][]byte{
			wire.Winner{Target: 19, IsTop: true}.Append(nil),
			wire.Round{Tag: coord.TagReset, Round: 0, Best: int64(order.NegInf), Bound: 24, Step: 1}.Append(nil),
		}}.Append(nil),
	} {
		f.Add(seed, seed)
	}
	f.Fuzz(func(t *testing.T, first, second []byte) {
		for _, frame := range [][]byte{first, second} {
			// A reassignment builds the bank it names; keep the fuzzer from
			// asking for one the machine cannot hold.
			if a, err := wire.DecodeAssign(frame); err == nil && a.Hi-a.Lo > 1<<16 {
				t.Skip()
			}
		}
		for _, round := range fuzzRounds {
			s := &leaf{round: round}
			if cont, err := s.respond(assign); err != nil || !cont {
				t.Fatalf("valid assignment refused: %v", err)
			}
			for _, frame := range [][]byte{first, second} {
				if cont, err := s.respond(frame); err != nil || !cont {
					break // the serve loop ends here
				}
			}
		}
	})
}
