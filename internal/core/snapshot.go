package core

import (
	"fmt"

	"repro/internal/coord"
	"repro/internal/wire"
)

// Snapshot and Restore give the sequential engine idle-point
// checkpointing: between observation steps the monitor's whole execution
// is its coord.Machine and its coord.Nodes bank, so a checkpoint is one
// MachineState frame and the bank's frame, the same two the concurrent
// engine writes. Restore rebuilds a monitor that resumes bit-identically —
// same reports, same ledgers, same randomness — to one that never stopped;
// the determinism pin in topk's checkpoint suite asserts exactly that.

// Snapshot encodes the monitor's state between steps: the machine frame
// and the bank frame. It fails if a step is in flight.
func (m *Monitor) Snapshot() (mach, nodes []byte, err error) {
	if mach, err = m.mach.Snapshot(nil); err != nil {
		return nil, nil, err
	}
	return mach, m.bank.Snapshot(nil), nil
}

// AppendCheckpoint appends the monitor's sealed checkpoint envelope of
// generation gen to dst, both frames encoded in place.
func (m *Monitor) AppendCheckpoint(dst []byte, gen uint64) ([]byte, error) {
	return m.mach.AppendCheckpoint(dst, gen, wire.EngineSeq, m.cfg.Seed, m.bank)
}

// Restore rebuilds a monitor from Snapshot frames taken under the same
// configuration (nodesFrame may be a v1 frame; coord.UpgradeBankFrame).
// Every frame field is validated against cfg, the bank against the machine
// and its filters against Lemma 2.2 (coord.Nodes.MatchesMachine) before
// anything is returned; a mismatch or malformed frame yields an error,
// never a partially restored monitor.
func Restore(cfg Config, machFrame, nodesFrame []byte) (*Monitor, error) {
	mach, nodesFrame, err := coord.OpenCheckpoint(cfg.N, cfg.K, cfg.Epsilon, cfg.DistinctValues, machFrame, nodesFrame)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	bank, err := coord.RestoreNodes(nodesFrame)
	if err != nil {
		return nil, fmt.Errorf("core: restore nodes frame: %w", err)
	}
	if err := bank.MatchesMachine(mach); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	return &Monitor{cfg: cfg, mach: mach, bank: bank, step: mach.Step()}, nil
}
