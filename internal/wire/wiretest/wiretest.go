// Package wiretest holds what only tests need of the wire format. Of the
// retired v1 bank frame: its encoder, which no monitor runs any more, and
// the v1 form of a bank given in the v2 form, so that every restore suite
// can forge the frames a pre-v2 monitor wrote and pin that they keep
// restoring — and keep being rejected — as they were. Of the link frames:
// Subframes and Rounds, for link wrappers that watch what crosses a link.
package wiretest

import (
	"repro/internal/protocol"
	"repro/internal/wire"
)

// AppendNodesV1 is the v1 encoder as it stood when monitors wrote v1:
// nine fields per node, in id order. All per-node slices must have length
// Hi-Lo; it panics otherwise.
func AppendNodesV1(dst []byte, m wire.NodesState) []byte {
	n := m.Hi - m.Lo
	if len(m.Keys) != n || len(m.IvLo) != n || len(m.IvHi) != n ||
		len(m.OrdLo) != n || len(m.OrdHi) != n || len(m.Flags) != n ||
		len(m.ViolStep) != n || len(m.RngState) != n || len(m.RngInc) != n {
		panic("wiretest: NodesState per-node slices must all have length Hi-Lo")
	}
	dst = append(dst, wire.TypeNodesState)
	dst = wire.AppendUvarint(dst, uint64(m.Lo))
	dst = wire.AppendUvarint(dst, uint64(m.Hi))
	dst = wire.AppendUvarint(dst, uint64(m.N))
	dst = wire.AppendUvarint(dst, m.EpsNum)
	var flags byte
	if m.Distinct {
		flags = 1
	}
	dst = append(dst, flags)
	for i := 0; i < n; i++ {
		dst = wire.AppendVarint(dst, m.Keys[i])
		dst = wire.AppendVarint(dst, m.IvLo[i])
		dst = wire.AppendVarint(dst, m.IvHi[i])
		dst = wire.AppendVarint(dst, m.OrdLo[i])
		dst = wire.AppendVarint(dst, m.OrdHi[i])
		dst = append(dst, m.Flags[i])
		dst = wire.AppendVarint(dst, m.ViolStep[i])
		dst = wire.AppendUvarint(dst, m.RngState[i])
		dst = wire.AppendUvarint(dst, m.RngInc[i])
	}
	return dst
}

// V1 returns the v1 form of the bank s describes, as a pre-v2 monitor
// would have written it: every node's filter interval spelled out from
// the installed bounds and its membership bit, and its generator's
// increment. The slices s shares with the result are copied, so a test
// may mutate either.
func V1(s wire.BankState) wire.NodesState {
	const negInf, posInf = -1 << 63, 1<<63 - 1
	n := s.Hi - s.Lo
	m := wire.NodesState{
		N: s.N, Lo: s.Lo, Hi: s.Hi, EpsNum: s.EpsNum, Distinct: s.Distinct,
		Keys:     append([]int64(nil), s.Keys...),
		IvLo:     make([]int64, n),
		IvHi:     make([]int64, n),
		OrdLo:    append([]int64(nil), s.OrdLo...),
		OrdHi:    append([]int64(nil), s.OrdHi...),
		Flags:    append([]byte(nil), s.Flags...),
		ViolStep: append([]int64(nil), s.ViolStep...),
		RngState: make([]uint64, n), // dead state: whatever a monitor left there
		RngInc:   make([]uint64, n),
	}
	root := protocol.NodeRoot(0)
	for i := range m.IvLo {
		m.IvLo[i], m.IvHi[i] = negInf, s.BoundHi
		if s.Flags[i]&wire.FlagNodeInTop != 0 {
			m.IvLo[i], m.IvHi[i] = s.BoundLo, posInf
		}
		m.RngInc[i] = root.SplitInc(uint64(s.Lo + i))
	}
	return m
}

// Subframes calls fn for every command a transport frame carries: each
// sub-frame of a batch, or the frame itself when it is not one (a frame
// that does not decode as a batch included).
func Subframes(frame []byte, fn func(sub []byte)) {
	var b wire.Batch
	if b.Decode(frame) != nil {
		fn(frame)
		return
	}
	for _, sub := range b.Frames {
		fn(sub)
	}
}

// Rounds calls fn for every Round command frame carries and ignores
// everything else: what a test's link wrapper needs to count the
// executions a peer is asked to run.
func Rounds(frame []byte, fn func(wire.Round)) {
	Subframes(frame, func(sub []byte) {
		if m, err := wire.DecodeRound(sub); err == nil {
			fn(m)
		}
	})
}
