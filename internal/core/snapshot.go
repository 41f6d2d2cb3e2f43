package core

import (
	"fmt"

	"repro/internal/coord"
)

// Snapshot and Restore give the in-process engine idle-point
// checkpointing: between observation steps the monitor's whole execution
// is its coord.Machine and its coord.Nodes bank — the host is parked and
// holds nothing a frame needs — so a checkpoint is one MachineState frame
// and the bank's frame, on any host. Restore rebuilds a monitor that
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

// AppendCheckpoint appends the monitor's sealed checkpoint envelope of
// generation gen to dst, both frames encoded in place, under the host's
// engine fingerprint.
func (m *Monitor) AppendCheckpoint(dst []byte, gen uint64) ([]byte, error) {
	return m.mach.AppendCheckpoint(dst, gen, m.host.Engine(), m.cfg.Seed, m.bank)
}

// Restore rebuilds a monitor on the inline host from Snapshot frames taken
// under the same configuration (nodesFrame may be a v1 frame;
// coord.UpgradeBankFrame). Every frame field is validated against cfg, the
// bank against the machine and its filters against Lemma 2.2
// (coord.Nodes.MatchesMachine) before anything is returned or any host is
// started; a mismatch or malformed frame yields an error, never a partially
// restored monitor.
func Restore(cfg Config, machFrame, nodesFrame []byte) (*Monitor, error) {
	return RestoreOn(cfg, Inline, machFrame, nodesFrame)
}

// RestoreOn is Restore on the host that start builds over the restored bank.
func RestoreOn(cfg Config, start func(bank *coord.Nodes) Host, machFrame, nodesFrame []byte) (*Monitor, error) {
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
	return assemble(cfg, mach, bank, start), nil
}
