package core

import (
	"fmt"

	"repro/internal/coord"
	"repro/internal/order"
	"repro/internal/rng"
	"repro/internal/wire"
)

// Snapshot and Restore give the sequential engine idle-point
// checkpointing: between observation steps the monitor's whole execution
// is its coord.Machine plus the node-local keys, filters and generator
// states, so a checkpoint is one MachineState frame and one synthesized
// NodesState frame over nodes [0, n). Restore rebuilds a monitor that
// resumes bit-identically — same reports, same ledgers, same randomness —
// to one that never stopped; the determinism pin in topk's checkpoint
// suite asserts exactly that.

// Snapshot encodes the monitor's state between steps: the machine frame
// and a NodesState frame carrying every node's key, filter interval,
// membership flag and generator state. It fails if a step is in flight.
func (m *Monitor) Snapshot() (mach, nodes []byte, err error) {
	machFrame, err := m.mach.Snapshot(nil)
	if err != nil {
		return nil, nil, err
	}
	n := m.cfg.N
	s := wire.NodesState{
		N: n, Lo: 0, Hi: n,
		EpsNum:   m.tol.Num(),
		Distinct: m.cfg.DistinctValues,
		Keys:     make([]int64, n),
		IvLo:     make([]int64, n),
		IvHi:     make([]int64, n),
		OrdLo:    make([]int64, n),
		OrdHi:    make([]int64, n),
		Flags:    make([]byte, n),
		ViolStep: make([]int64, n),
		RngState: make([]uint64, n),
		RngInc:   make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		s.Keys[i] = int64(m.pop.Keys[i])
		iv := m.fs.Interval(i)
		s.IvLo[i], s.IvHi[i] = int64(iv.Lo), int64(iv.Hi)
		// The sequential engine has no order filters or extraction state
		// between steps; the slots encode their inert values.
		s.OrdLo[i], s.OrdHi[i] = int64(order.NegInf), int64(order.PosInf)
		if m.fs.InTop(i) {
			s.Flags[i] = wire.FlagNodeInTop
		}
		s.ViolStep[i] = -1
		s.RngState[i], s.RngInc[i] = m.pop.RNGs[i].State()
	}
	return machFrame, s.Append(nil), nil
}

// SnapshotInto fills a checkpoint's engine fingerprint and state frames
// from Snapshot.
func (m *Monitor) SnapshotInto(c *wire.Checkpoint) (err error) {
	c.Engine = wire.EngineSeq
	c.Machine, c.Nodes, err = m.Snapshot()
	return err
}

// Restore rebuilds a monitor from Snapshot frames taken under the same
// configuration. Every frame field is validated against cfg before any
// state is installed; a mismatch or malformed frame yields an error,
// never a partially restored monitor.
func Restore(cfg Config, machFrame, nodesFrame []byte) (*Monitor, error) {
	if cfg.N <= 0 || cfg.K < 1 || cfg.K > cfg.N {
		return nil, fmt.Errorf("core: restore config needs 1 <= K <= N, got n=%d k=%d", cfg.N, cfg.K)
	}
	tol, err := order.NewTol(cfg.Epsilon)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %v", err)
	}
	var ms wire.MachineState
	if err := ms.Decode(machFrame); err != nil {
		return nil, fmt.Errorf("core: restore machine frame: %v", err)
	}
	if ms.N != cfg.N || ms.K != cfg.K {
		return nil, fmt.Errorf("core: checkpoint is for n=%d k=%d, config has n=%d k=%d", ms.N, ms.K, cfg.N, cfg.K)
	}
	if ms.EpsNum != tol.Num() {
		return nil, fmt.Errorf("core: checkpoint tolerance %d/2^20 differs from configured %d/2^20", ms.EpsNum, tol.Num())
	}
	mach, err := coord.RestoreMachine(machFrame)
	if err != nil {
		return nil, fmt.Errorf("core: restore machine: %v", err)
	}
	var s wire.NodesState
	if err := s.Decode(nodesFrame); err != nil {
		return nil, fmt.Errorf("core: restore nodes frame: %v", err)
	}
	if s.N != cfg.N || s.Lo != 0 || s.Hi != cfg.N {
		return nil, fmt.Errorf("core: checkpoint bank covers [%d, %d) of %d, want [0, %d)", s.Lo, s.Hi, s.N, cfg.N)
	}
	if s.EpsNum != tol.Num() {
		return nil, fmt.Errorf("core: checkpoint bank tolerance %d/2^20 differs from configured %d/2^20", s.EpsNum, tol.Num())
	}
	if s.Distinct != cfg.DistinctValues {
		return nil, fmt.Errorf("core: checkpoint distinct-values mode %v differs from configured %v", s.Distinct, cfg.DistinctValues)
	}
	top := mach.Top()
	if len(top) != 0 && len(top) != cfg.K {
		return nil, fmt.Errorf("core: checkpoint membership has %d ids, want 0 or %d", len(top), cfg.K)
	}
	// Filters are restored from the frame's one pair of bounds and the
	// machine's membership (the authority; empty, like the filter set's,
	// before the time-0 reset has run) — or not at all: a frame whose
	// filters the algorithm could not have installed, or that do not hold
	// for the frame's keys, is rejected.
	fs, err := coord.RestoreFilters(&s, mach)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	m := New(cfg)
	for i := 0; i < cfg.N; i++ {
		r, err := rng.FromState(s.RngState[i], s.RngInc[i])
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint generator %d: %v", i, err)
		}
		m.pop.Keys[i] = order.Key(s.Keys[i])
		m.pop.RNGs[i] = *r
	}
	m.fs = fs
	m.mach = mach
	m.step = mach.Step()
	return m, nil
}
