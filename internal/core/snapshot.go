package core

import (
	"fmt"

	"repro/internal/coord"
	"repro/internal/filter"
	"repro/internal/order"
	"repro/internal/wire"
)

// Snapshot and Restore give the sequential engine idle-point
// checkpointing: between observation steps the monitor's whole execution
// is its coord.Machine plus the node-local keys, filter bounds, membership
// and generator states, so a checkpoint is one MachineState frame and one
// bank frame over nodes [0, n), written straight from the monitor's
// arrays. Restore rebuilds a monitor that resumes bit-identically — same
// reports, same ledgers, same randomness — to one that never stopped; the
// determinism pin in topk's checkpoint suite asserts exactly that.

// Snapshot encodes the monitor's state between steps: the machine frame
// and the bank frame. It fails if a step is in flight.
func (m *Monitor) Snapshot() (mach, nodes []byte, err error) {
	if mach, err = m.mach.Snapshot(nil); err != nil {
		return nil, nil, err
	}
	return mach, m.appendBank(nil), nil
}

// appendBank appends the bank frame: the filter set's bounds, every node's
// key and generator state, and a membership flag for the k members. The
// sequential engine keeps no violation history, extraction marks or order
// filters between steps, so those sections are empty.
func (m *Monitor) appendBank(dst []byte) []byte {
	in := m.fs.Bounds()
	w := wire.BeginBank(dst, wire.BankHeader{
		N: m.cfg.N, Lo: 0, Hi: m.cfg.N,
		EpsNum: m.tol.Num(), Distinct: m.cfg.DistinctValues,
		BoundLo: int64(in.Lo), BoundHi: int64(in.Hi),
	})
	wire.BankKeys(&w, m.field.Keys)
	w.Gens(m.field.Gens.States()...)
	for _, id := range m.fs.Top() {
		w.Flag(id, wire.FlagNodeInTop)
	}
	return w.End()
}

// AppendCheckpoint appends the monitor's sealed checkpoint envelope of
// generation gen to dst, both frames encoded in place.
func (m *Monitor) AppendCheckpoint(dst []byte, gen uint64) ([]byte, error) {
	return m.mach.AppendCheckpoint(dst, gen, wire.EngineSeq, m.cfg.Seed, m.cfg.DistinctValues, m.appendBank)
}

// Restore rebuilds a monitor from Snapshot frames taken under the same
// configuration (nodesFrame may be a v1 frame; coord.UpgradeBankFrame).
// Every frame field is validated against cfg before any state is
// installed; a mismatch or malformed frame yields an error, never a
// partially restored monitor.
func Restore(cfg Config, machFrame, nodesFrame []byte) (*Monitor, error) {
	mach, nodesFrame, err := coord.OpenCheckpoint(cfg.N, cfg.K, cfg.Epsilon, cfg.DistinctValues, machFrame, nodesFrame)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	h, r, err := wire.OpenBank(nodesFrame)
	if err != nil {
		return nil, fmt.Errorf("core: restore nodes frame: %v", err)
	}
	top := mach.Top()
	if len(top) != 0 && len(top) != cfg.K {
		return nil, fmt.Errorf("core: checkpoint membership has %d ids, want 0 or %d", len(top), cfg.K)
	}
	m := New(cfg)
	if err := coord.ReadBankNodes(&r, m.field.Keys, m.field.Gens); err != nil {
		return nil, fmt.Errorf("core: restore nodes frame: %v", err)
	}
	// The machine's membership is the authority (empty, like the filter
	// set's, before the time-0 reset has run): the frame must flag exactly
	// its members, as members and nothing else.
	for listed := 0; ; listed++ {
		id, f, ok, err := r.Flag()
		if err != nil {
			return nil, fmt.Errorf("core: restore nodes frame: %v", err)
		}
		if !ok {
			if listed != len(top) {
				return nil, fmt.Errorf("core: restore: %w: frame flags %d members, the machine has %d", coord.ErrFilterState, listed, len(top))
			}
			break
		}
		if f != wire.FlagNodeInTop || listed >= len(top) || id != top[listed] {
			return nil, fmt.Errorf("core: restore: %w: node %d flagged 0x%02x contradicts the machine", coord.ErrFilterState, id, f)
		}
	}
	// A sequential bank keeps no violation history and no order filters.
	if id, _, ok, err := r.Viol(); err != nil {
		return nil, fmt.Errorf("core: restore nodes frame: %v", err)
	} else if ok {
		return nil, fmt.Errorf("core: restore nodes frame: violation history for node %d in a sequential bank", id)
	}
	if id, _, _, ok, err := r.Ord(); err != nil {
		return nil, fmt.Errorf("core: restore nodes frame: %v", err)
	} else if ok {
		return nil, fmt.Errorf("core: restore nodes frame: order filter for node %d in a sequential bank", id)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("core: restore nodes frame: %v", err)
	}
	// Filters are restored from the frame's one pair of bounds and the
	// machine's membership — or not at all: bounds the algorithm could not
	// have installed, or that do not hold for the frame's keys, are
	// rejected.
	in := filter.Bounds{Lo: order.Key(h.BoundLo), Hi: order.Key(h.BoundHi)}
	if m.fs, err = coord.RestoreFilters(in, m.field.Keys, mach); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	m.mach = mach
	m.step = mach.Step()
	return m, nil
}
