package runtime

import (
	"fmt"

	"repro/internal/coord"
	"repro/internal/wire"
)

// Snapshot and Restore give the concurrent engine idle-point
// checkpointing. Between steps the shard goroutines are parked on their
// command channels and the last reply receive established a
// happens-before edge over every bank cell they touched, so the
// coordinator may read the whole bank race-free — the same argument the
// step loop itself relies on. A checkpoint is therefore one MachineState
// frame plus the full-range bank's frame, and Restore rebuilds
// a runtime that resumes bit-identically to an uninterrupted twin (shard
// count may differ across restores; reports and ledgers never depend on
// it).

// Snapshot encodes the runtime's state between steps. It fails if the
// runtime is closed or a step is somehow in flight.
func (rt *Runtime) Snapshot() (mach, nodes []byte, err error) {
	if rt.closed {
		return nil, nil, fmt.Errorf("runtime: snapshot of a closed runtime")
	}
	machFrame, err := rt.mach.Snapshot(nil)
	if err != nil {
		return nil, nil, err
	}
	return machFrame, rt.bank.Snapshot(nil), nil
}

// AppendCheckpoint appends the runtime's sealed checkpoint envelope of
// generation gen to dst, both frames encoded in place.
func (rt *Runtime) AppendCheckpoint(dst []byte, gen uint64) ([]byte, error) {
	if rt.closed {
		return nil, fmt.Errorf("runtime: snapshot of a closed runtime")
	}
	return rt.mach.AppendCheckpoint(dst, gen, wire.EngineConc, rt.cfg.Seed, rt.bank)
}

// Restore rebuilds a runtime from Snapshot frames taken under the same
// configuration (nodesFrame may be a v1 frame; coord.UpgradeBankFrame),
// validating every frame field against cfg first. The restored runtime
// starts its own shard goroutines sized for this process.
func Restore(cfg Config, machFrame, nodesFrame []byte) (*Runtime, error) {
	mach, nodesFrame, err := coord.OpenCheckpoint(cfg.N, cfg.K, cfg.Epsilon, cfg.DistinctValues, machFrame, nodesFrame)
	if err != nil {
		return nil, fmt.Errorf("runtime: restore: %w", err)
	}
	bank, err := coord.RestoreNodes(nodesFrame)
	if err != nil {
		return nil, fmt.Errorf("runtime: restore bank: %w", err)
	}
	if err := bank.MatchesMachine(mach); err != nil {
		return nil, fmt.Errorf("runtime: restore: %w", err)
	}
	rt := assemble(cfg, mach, bank)
	rt.step = mach.Step()
	return rt, nil
}
