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
		ex := protocol.NewExec(m.Bound, m.Want, coord.MinimumTag(m.Tag), comm.Discard, nil, m.Step)
		for ex.More() {
			bank.Round(m.Tag, ex.Round(), ex.Best(), m.Bound, m.Step, ex.Bid)
			ex.EndRound()
		}
		var d wire.ShardDigest
		for i, w := range ex.Winners() {
			if i == 0 {
				d.OK, d.ID, d.Key = true, w.ID, int64(w.Key)
			} else {
				d.Rest = append(d.Rest, wire.Bid{ID: w.ID, Key: int64(w.Key)})
			}
		}
		return d.Append(dst)
	},
}

// FuzzLeafRespond feeds a leaf that holds a valid assignment arbitrary
// frames: whatever arrives, respond answers or returns an error — a
// hostile or buggy frame cannot panic the process that hosts the leaf.
func FuzzLeafRespond(f *testing.F) {
	assign := wire.Assign{Lo: 4, Hi: 20, N: 24, K: 3, Seed: 5}.Append(nil)
	// Observation frames are applied from the bytes, so one that turns
	// malformed mid-run does so with part of the bank written.
	dense := wire.Observe{Step: 1, Vals: []int64{1 << 40, -7, 0, 300, 5, 1 << 20, 9, 9, -1 << 33, 2, 4, 8, 16, 32, 64, 128}}.Append(nil)
	delta := wire.ObserveDelta{Step: 1, IDs: []int{4, 9, 12, 19}, Vals: []int64{5, -1 << 30, 1 << 30, -5}}.Append(nil)
	for _, seed := range [][]byte{
		dense, dense[:len(dense)/2], dense[:len(dense)-1], append(dense[:len(dense):len(dense)], 0),
		delta[:len(delta)/2], delta[:len(delta)-1],
		wire.Observe{Step: 1, Vals: []int64{1, 2, 3}}.Append(nil), // not the range's width
		wire.Round{Tag: coord.TagReset, Round: 0, Best: int64(order.NegInf), Bound: 24, Step: 1, Want: 4}.Append(nil),
		wire.Round{Tag: coord.TagReset, Round: 0, Best: int64(order.NegInf), Bound: 24, Step: 1, Want: 24}.Append(nil),
		wire.Round{Tag: coord.TagReset, Round: 0, Best: int64(order.NegInf), Bound: 24, Step: 1}.Append(nil),           // no winner wanted
		wire.Round{Tag: coord.TagReset, Round: 0, Best: int64(order.NegInf), Bound: 24, Step: 1, Want: 25}.Append(nil), // more than the bound
		wire.Round{Tag: coord.TagHandMin, Round: 0, Best: int64(order.NegInf), Bound: 1 << 50, Step: 1, Want: 1 << 49}.Append(nil),
		wire.Round{Tag: coord.TagReset, Round: 2, Best: 7, Bound: 0, Step: 1, Want: 1}.Append(nil),
		wire.Round{Tag: 9, Round: 0, Best: 7, Bound: 24, Step: 1, Want: 1}.Append(nil),
		wire.Round{Tag: coord.TagViolMin, Round: 70, Best: -3, Bound: 1 << 40, Step: 9, Want: 1}.Append(nil),
		wire.ObserveDelta{Step: 1, IDs: []int{4, 19}, Vals: []int64{5, -5}}.Append(nil),
		wire.Winner{Target: 19, IsTop: true}.Append(nil),
		wire.Winner{Target: 3}.Append(nil),
		wire.Midpoint{Mid: 12}.Append(nil),
		wire.ApproxBounds{Lo: 3, Hi: 9}.Append(nil),
		wire.AppendBare(nil, wire.TypeResetBegin),
		wire.AppendBare(nil, wire.TypeStatsPoll),
		wire.Batch{Frames: [][]byte{wire.AppendBare(nil, wire.TypeResetBegin), wire.Round{Tag: 5, Bound: 3, Want: 1}.Append(nil)}}.Append(nil),
		wire.AppendUvarint([]byte{wire.TypeBatch}, 1<<63), // 11 bytes whose count once wrapped the batch decoder's guard
		wire.Assign{Lo: 0, Hi: 2, N: 2, K: 2, Seed: 1}.Append(nil),
		// A reset's execution as a root or interior ships it, behind the
		// ResetBegin, and what ends the reset.
		wire.Batch{Frames: [][]byte{
			wire.AppendBare(nil, wire.TypeResetBegin),
			wire.Round{Tag: coord.TagReset, Round: 0, Best: int64(order.NegInf), Bound: 24, Step: 1, Want: 4}.Append(nil),
		}}.Append(nil),
		wire.Batch{Frames: [][]byte{
			wire.Winner{Target: 19, IsTop: true}.Append(nil),
			wire.Midpoint{Mid: 12}.Append(nil),
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
