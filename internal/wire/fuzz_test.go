package wire

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecode throws arbitrary bytes at every decoder (mirroring
// internal/core's fuzz harness for the monitor): no input may panic, and
// any input a decoder accepts must re-encode to the identical frame —
// the codec admits exactly one encoding per message. The v1-* seeds of
// testdata/fuzz are bank frames of a retired dialect, which every decoder
// must refuse (TestBankRefusesRetiredDialects).
func FuzzDecode(f *testing.F) {
	seeds := [][]byte{
		{},
		{TypeAssign},
		Assign{Lo: 0, Hi: 4, N: 8, K: 2, Seed: 99, Distinct: true}.Append(nil),
		Assign{Lo: 0, Hi: 4, N: 8, K: 2, Seed: 99, EpsNum: 52428, Distinct: true}.Append(nil),
		ladderedAssign(0x02), // another build's frame: rejected (TestForeignBuildFramesFailClosed)
		parentAssign(0x01),   // so is the absolute-value build's
		TreeStats{Levels: []LevelIO{{Down: 9, Up: 9, DownBytes: 120, UpBytes: 44}}}.Append(nil),
		ApproxBounds{Lo: -1 << 30, Hi: 1 << 30}.Append(nil),
		Observe{Step: 3, Vals: []int64{5, -5}}.Append(nil),
		Observe{Step: 4, Vals: []int64{5, -5}, Prev: []int64{1 << 40, math.MinInt64}}.Append(nil),
		ObserveDelta{Step: 3, IDs: []int{1, 4}, Vals: []int64{-9, 9}}.Append(nil),
		Round{Tag: 1, Round: 2, Best: -3, Bound: 8, Step: 4}.Append(nil),
		Round{Tag: 4, Round: 0, Best: -1 << 63, Bound: 1 << 20, Step: 9, Want: 17}.Append(nil),
		Reply{OutViol: true, IDs: []int{2}, Keys: []int64{77}}.Append(nil),
		Winner{Target: 6, IsTop: true}.Append(nil),
		Midpoint{Mid: 1 << 40}.Append(nil),
		Bid{ID: 1, Key: 2}.Append(nil),
		Best{Round: 1, Key: 2}.Append(nil),
		Presence{ID: 3}.Append(nil),
		Bounds{Target: 2, Lo: -4, Hi: 4}.Append(nil),
		ShardDigest{OK: true, ID: 5, Key: -17, Ups: 3, UpBytes: 11, Bcasts: 4, BcastBytes: 13}.Append(nil),
		ShardDigest{OK: true, ID: 5, Key: 90, Ups: 40, UpBytes: 200, Bcasts: 6, BcastBytes: 50, Rest: []Bid{{ID: 2, Key: 90}, {ID: 7, Key: -4}}}.Append(nil),
		Batch{Frames: [][]byte{
			Winner{Target: 6, IsTop: true}.Append(nil),
			Round{Tag: 4, Round: 0, Best: -9, Bound: 16, Step: 5}.Append(nil),
		}}.Append(nil),
		AppendUvarint([]byte{TypeBatch}, 1<<63), // a count that once wrapped the guard (TestDecodeCountGuardsDoNotWrap)
		MachineState{
			N: 8, K: 2, EpsNum: 52428, Step: 17, Init: true,
			Steps: 17, ViolationSteps: 4, HandlerCalls: 3, Resets: 2, TopChanges: 2,
			TPlus: 41, TMinus: 17, CurLo: 20, CurHi: 38,
			Top:    []int{1, 5},
			Counts: [MachineLedgerCells]int64{3, 0, 2, 5, 0, 1, 9, 0, 4},
			Bytes:  [MachineLedgerCells]int64{12, 0, 8, 20, 0, 4, 36, 0, 16},
		}.Append(nil),
		sampleBank().Append(nil),
		withGens(f, sampleBank().Append(nil), 0xdeadbeef, 1, 0, 1<<64-1), // a retired dialect: refused
		sampleCheckpoint().Append(nil),
		Checkpoint{Gen: 7, Engine: EngineNet, Seed: 3, Last: []int64{4, -4}}.Append(nil),
		sampleDelta().Append(nil),
		CheckpointChain{Frames: [][]byte{sampleCheckpoint().Append(nil), sampleDelta().Append(nil)}}.Append(nil),
		AppendBare(nil, TypeShutdown),
		bytes.Repeat([]byte{0x80}, 32),
		bytes.Repeat([]byte{0xff}, 32),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, err := MsgType(data)
		if err != nil {
			return
		}
		switch typ {
		case TypeAssign:
			if m, err := DecodeAssign(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypeObserve:
			var m Observe
			if err := m.Decode(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypeObserveDelta:
			var m ObserveDelta
			if err := m.Decode(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypeRound:
			if m, err := DecodeRound(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypeReply:
			var m Reply
			if err := m.Decode(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypeWinner:
			if m, err := DecodeWinner(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypeMidpoint:
			if m, err := DecodeMidpoint(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypeBid:
			if m, err := DecodeBid(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypeBest:
			if m, err := DecodeBest(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypePresence:
			if m, err := DecodePresence(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypeBounds:
			if m, err := DecodeBounds(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypeShardDigest:
			if m, err := DecodeShardDigest(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypeApproxBounds:
			if m, err := DecodeApproxBounds(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypeBatch:
			var m Batch
			if err := m.Decode(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypeMachineState:
			var m MachineState
			if err := m.Decode(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypeBankState:
			var m BankState
			if err := m.Decode(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypeTreeStats:
			var m TreeStats
			if err := m.Decode(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypeCheckpoint:
			var m Checkpoint
			if err := m.Decode(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypeCheckpointDelta:
			var m CheckpointDelta
			if err := m.Decode(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypeCheckpointChain:
			var m CheckpointChain
			if err := m.Decode(data); err == nil {
				roundTrip(t, data, m.Append(nil))
			}
		case TypeReady, TypeResetBegin, TypeShutdown, TypeQuery, TypeStatsPoll:
			_ = DecodeBare(data, typ)
		}
	})
}

func roundTrip(t testing.TB, in, re []byte) {
	t.Helper()
	if !bytes.Equal(in, re) {
		t.Fatalf("re-encode mismatch:\n in %x\nout %x", in, re)
	}
}
