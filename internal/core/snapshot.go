package core

import (
	"fmt"

	"repro/internal/coord"
	"repro/internal/wire"
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

// AppendCheckpoint appends one sealed frame of the monitor's checkpoint
// chain, of generation gen, to dst, under the host's engine fingerprint:
// with base == 0 the base frame, machine and bank encoded in place;
// otherwise a delta on the base of generation base, carrying the values of
// the nodes of dirty (coord.Machine.AppendCheckpoint).
func (m *Monitor) AppendCheckpoint(dst []byte, gen, base uint64, dirty []uint64) ([]byte, error) {
	return m.mach.AppendCheckpoint(dst, gen, base, dirty, m.host.Engine(), m.cfg.Seed, m.bank)
}

// Restore rebuilds a monitor on the inline host from Snapshot frames taken
// under the same configuration. Every frame field is validated against cfg, the
// bank against the machine and its filters against Lemma 2.2
// (coord.Nodes.MatchesMachine) before anything is returned or any host is
// started; a mismatch or malformed frame yields an error, never a partially
// restored monitor.
func Restore(cfg Config, machFrame, nodesFrame []byte) (*Monitor, error) {
	return RestoreOn(cfg, Inline, machFrame, nodesFrame)
}

// RestoreOn is Restore on the host that start builds over the restored bank.
func RestoreOn(cfg Config, start func(bank *coord.Nodes) Host, machFrame, nodesFrame []byte) (*Monitor, error) {
	return RestoreChainOn(cfg, start, &wire.Checkpoint{Machine: machFrame, Nodes: nodesFrame}, nil)
}

// RestoreChainOn is RestoreOn from a checkpoint chain: base envelope c and
// the delta frames that follow it. The bank is rebuilt from c's frame,
// every delta's values are folded into it (coord.FoldDeltas holds each
// delta to the chain, coord.Nodes.Patch each value to its node's filter),
// and the machine is the one the chain ends on; the checks of a lone frame
// then run on the folded state, so a chain restores exactly what a base
// frame taken at its last delta would.
func RestoreChainOn(cfg Config, start func(bank *coord.Nodes) Host, c *wire.Checkpoint, deltas [][]byte) (*Monitor, error) {
	mach, err := coord.OpenCheckpoint(cfg.N, cfg.K, cfg.Epsilon, cfg.DistinctValues, c.Machine, c.Nodes)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	bank, err := coord.RestoreNodes(c.Nodes, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: restore nodes frame: %w", err)
	}
	if len(deltas) > 0 {
		machFrame, err := coord.FoldDeltas(c, cfg.N, deltas, bank.Patch)
		if err == nil {
			mach, err = coord.OpenMachine(cfg.N, cfg.K, cfg.Epsilon, machFrame)
		}
		if err != nil {
			return nil, fmt.Errorf("core: restore: %w", err)
		}
	}
	if err := bank.MatchesMachine(mach); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	return assemble(cfg, mach, bank, start), nil
}
