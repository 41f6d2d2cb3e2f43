package fanout

import (
	"testing"

	"repro/internal/coord"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/wire"
)

// FuzzLeafRespond feeds a leaf that holds a valid assignment arbitrary
// frames: whatever arrives, respond answers or returns an error — a
// hostile or buggy frame cannot panic the process that hosts the leaf —
// and a Round request the leaf takes it answers with a bid log its
// coordinator opens.
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
	// A step's observations, then an execution over what they made: every
	// cohort, a log of the bank as the frame left it. The answer must be
	// one its coordinator accepts.
	for _, tag := range []uint8{coord.TagViolMin, coord.TagViolMax, coord.TagHandMin, coord.TagHandMax, coord.TagReset} {
		round := wire.Round{Tag: tag, Best: int64(order.NegInf), Bound: 24, Step: 1, Want: 1}
		f.Add(dense, round.Append(nil))
		f.Add(delta, round.Append(nil))
		round.Want, round.Bound = 5, 1<<30
		f.Add(dense, round.Append(nil))
	}
	f.Fuzz(func(t *testing.T, first, second []byte) {
		for _, frame := range [][]byte{first, second} {
			// A reassignment builds the bank it names; keep the fuzzer from
			// asking for one the machine cannot hold.
			if a, err := wire.DecodeAssign(frame); err == nil && a.Hi-a.Lo > 1<<16 {
				t.Skip()
			}
		}
		link, _ := transport.Pipe()
		s := &server{leaf: leaf{round: LogRound()}, replies: NewFrames(link)}
		if cont, err := s.respond(assign); err != nil || !cont {
			t.Fatalf("valid assignment refused: %v", err)
		}
		for _, frame := range [][]byte{first, second} {
			if cont, err := s.respond(frame); err != nil || !cont {
				break // the serve loop ends here
			}
			if m, err := wire.DecodeRound(frame); err == nil {
				var l wire.BidLog
				if err := l.Open(s.buf, 4, 20, protocol.Rounds(m.Bound)); err != nil {
					t.Fatalf("the leaf answered %+v with a log its coordinator refuses: %v", m, err)
				}
			}
		}
	})
}
