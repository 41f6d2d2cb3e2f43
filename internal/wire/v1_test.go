package wire_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// The v1 bank frame is decode-only in package wire; its encoder lives on
// in wiretest, which imports wire — hence this external test package.

func sampleV1() wire.NodesState {
	return wire.NodesState{
		N: 8, Lo: 2, Hi: 4, EpsNum: 0, Distinct: true,
		Keys: []int64{7, -3}, IvLo: []int64{5, -9}, IvHi: []int64{9, 0},
		OrdLo: []int64{-1 << 40, 0}, OrdHi: []int64{1 << 40, 0},
		Flags: []byte{1, 2}, ViolStep: []int64{-1, 16},
		RngState: []uint64{0xdeadbeef, 1}, RngInc: []uint64{3, 5},
	}
}

// TestNodesStateV1StillDecodes pins the decode-only half of the v1 codec
// against the encoder that used to sit beside it.
func TestNodesStateV1StillDecodes(t *testing.T) {
	want := sampleV1()
	frame := wiretest.AppendNodesV1(nil, want)
	var got wire.NodesState
	if err := got.Decode(frame); err != nil {
		t.Fatal(err)
	}
	if got.N != want.N || got.Lo != want.Lo || got.Hi != want.Hi || got.EpsNum != want.EpsNum || got.Distinct != want.Distinct ||
		!slices.Equal(got.Keys, want.Keys) || !slices.Equal(got.IvLo, want.IvLo) || !slices.Equal(got.IvHi, want.IvHi) ||
		!slices.Equal(got.OrdLo, want.OrdLo) || !slices.Equal(got.OrdHi, want.OrdHi) || !slices.Equal(got.Flags, want.Flags) ||
		!slices.Equal(got.ViolStep, want.ViolStep) || !slices.Equal(got.RngState, want.RngState) || !slices.Equal(got.RngInc, want.RngInc) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	for n := 0; n < len(frame); n++ {
		if err := got.Decode(frame[:n]); err == nil {
			t.Fatalf("decode accepted a %d/%d-byte prefix", n, len(frame))
		}
	}
}

// TestV1FormOfABank pins wiretest.V1, which every restore suite forges its
// v1 frames from: intervals spelled out by membership from the one pair of
// bounds, everything else carried over.
func TestV1FormOfABank(t *testing.T) {
	s := wire.BankState{
		BankHeader: wire.BankHeader{N: 8, Lo: 2, Hi: 4, BoundLo: 50, BoundHi: 40},
		Keys:       []int64{70, 30}, Flags: []byte{wire.FlagNodeInTop, wire.FlagNodeWasTop},
		ViolStep: []int64{-1, 4}, OrdLo: []int64{-1 << 63, 1}, OrdHi: []int64{1<<63 - 1, 2},
	}
	v1 := wiretest.V1(s)
	if v1.IvLo[0] != 50 || v1.IvHi[0] != 1<<63-1 || v1.IvLo[1] != -1<<63 || v1.IvHi[1] != 40 {
		t.Fatalf("intervals [%d, %d] and [%d, %d]", v1.IvLo[0], v1.IvHi[0], v1.IvLo[1], v1.IvHi[1])
	}
	if v1.RngInc[0]&1 == 0 || v1.RngInc[0] == v1.RngInc[1] || !slices.Equal(v1.ViolStep, s.ViolStep) || !slices.Equal(v1.OrdLo, s.OrdLo) {
		t.Fatalf("v1 form %+v", v1)
	}
	v1.Keys[0] = 0
	if s.Keys[0] != 70 {
		t.Fatal("V1 shares its slices with the bank it was given")
	}
}

// FuzzNodesStateV1 keeps the v1 decoder under the identity it was written
// to: whatever it accepts, the retired encoder writes back byte for byte.
func FuzzNodesStateV1(f *testing.F) {
	f.Add(wiretest.AppendNodesV1(nil, sampleV1()))
	f.Add([]byte{wire.TypeNodesState})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m wire.NodesState
		if err := m.Decode(data); err == nil {
			if re := wiretest.AppendNodesV1(nil, m); !bytes.Equal(re, data) {
				t.Fatalf("re-encode mismatch:\n in %x\nout %x", data, re)
			}
		}
	})
}
