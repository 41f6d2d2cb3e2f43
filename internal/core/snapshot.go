package core

import (
	"fmt"

	"repro/internal/coord"
	"repro/internal/wire"
)

// Snapshot and RestoreOn give the in-process engine idle-point
// checkpointing: between observation steps the monitor's whole execution
// is its coord.Machine and its coord.Nodes bank — the host is parked and
// holds nothing a frame needs — so a checkpoint is one MachineState frame
// and the bank's frame, on any host. RestoreOn rebuilds a monitor that
// resumes bit-identically — same reports, same ledgers, same randomness —
// to one that never stopped, whatever the host's layout (a shard pool's
// shard count may differ across restores); the determinism pin in topk's
// checkpoint suite asserts exactly that.

// Snapshot encodes the monitor's state between steps: the machine frame
// and the bank frame. It fails if a step is in flight.
func (m *Monitor) Snapshot() (mach, nodes []byte, err error) {
	if mach, err = m.mach.Snapshot(nil); err != nil {
		return nil, nil, err
	}
	return mach, m.bank.Snapshot(nil), nil
}

// AppendCheckpoint appends one sealed frame of the monitor's checkpoint
// chain, of generation gen, to dst, under the in-process engine's
// fingerprint (wire.EngineSeq), whatever the host: with base == 0 the base
// frame, machine and bank encoded in place; otherwise a delta on the base
// of generation base, carrying the values of the nodes of dirty
// (coord.Machine.AppendCheckpoint).
func (m *Monitor) AppendCheckpoint(dst []byte, gen, base uint64, dirty []uint64) ([]byte, error) {
	return m.mach.AppendCheckpoint(dst, gen, base, dirty, wire.EngineSeq, m.cfg.Seed, m.bank)
}

// RestoreOn rebuilds a monitor, on the host that start builds over the
// restored bank, from a checkpoint chain taken under the same
// configuration: base envelope c — a lone Snapshot pair is
// &wire.Checkpoint{Machine: mach, Nodes: nodes} — and the delta frames
// that follow it. coord.RestoreChain reads the bank frame's keys, folds
// the deltas' values into them, takes membership and filter bounds from
// the machine frame the chain ends on and holds the result to Lemma 2.2,
// all before any host is started; a mismatch or malformed frame yields an
// error, never a partially restored monitor.
func RestoreOn(cfg Config, start func(bank *coord.Nodes) Host, c *wire.Checkpoint, deltas [][]byte) (*Monitor, error) {
	mach, bank, err := coord.RestoreChain(cfg.N, cfg.K, cfg.Epsilon, cfg.Seed, c, deltas)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	return assemble(cfg, mach, bank, start), nil
}
