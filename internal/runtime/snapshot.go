package runtime

import (
	"fmt"

	"repro/internal/coord"
	"repro/internal/order"
	"repro/internal/wire"
)

// Snapshot and Restore give the concurrent engine idle-point
// checkpointing. Between steps the shard goroutines are parked on their
// command channels and the last reply receive established a
// happens-before edge over every bank cell they touched, so the
// coordinator may read the whole bank race-free — the same argument the
// step loop itself relies on. A checkpoint is therefore one MachineState
// frame plus the full-range bank's NodesState frame, and Restore rebuilds
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

// SnapshotInto fills a checkpoint's engine fingerprint and state frames
// from Snapshot.
func (rt *Runtime) SnapshotInto(c *wire.Checkpoint) (err error) {
	c.Engine = wire.EngineConc
	c.Machine, c.Nodes, err = rt.Snapshot()
	return err
}

// Restore rebuilds a runtime from Snapshot frames taken under the same
// configuration, validating every frame field against cfg first. The
// restored runtime starts its own shard goroutines sized for this
// process.
func Restore(cfg Config, machFrame, nodesFrame []byte) (*Runtime, error) {
	if cfg.N <= 0 || cfg.K < 1 || cfg.K > cfg.N {
		return nil, fmt.Errorf("runtime: restore config needs 1 <= K <= N, got n=%d k=%d", cfg.N, cfg.K)
	}
	tol, err := order.NewTol(cfg.Epsilon)
	if err != nil {
		return nil, fmt.Errorf("runtime: restore: %v", err)
	}
	var ms wire.MachineState
	if err := ms.Decode(machFrame); err != nil {
		return nil, fmt.Errorf("runtime: restore machine frame: %v", err)
	}
	if ms.N != cfg.N || ms.K != cfg.K {
		return nil, fmt.Errorf("runtime: checkpoint is for n=%d k=%d, config has n=%d k=%d", ms.N, ms.K, cfg.N, cfg.K)
	}
	if ms.EpsNum != tol.Num() {
		return nil, fmt.Errorf("runtime: checkpoint tolerance %d/2^20 differs from configured %d/2^20", ms.EpsNum, tol.Num())
	}
	var ns wire.NodesState
	if err := ns.Decode(nodesFrame); err != nil {
		return nil, fmt.Errorf("runtime: restore nodes frame: %v", err)
	}
	if ns.N != cfg.N || ns.Lo != 0 || ns.Hi != cfg.N {
		return nil, fmt.Errorf("runtime: checkpoint bank covers [%d, %d) of %d, want [0, %d)", ns.Lo, ns.Hi, ns.N, cfg.N)
	}
	if ns.EpsNum != tol.Num() {
		return nil, fmt.Errorf("runtime: checkpoint bank tolerance %d/2^20 differs from configured %d/2^20", ns.EpsNum, tol.Num())
	}
	if ns.Distinct != cfg.DistinctValues {
		return nil, fmt.Errorf("runtime: checkpoint distinct-values mode %v differs from configured %v", ns.Distinct, cfg.DistinctValues)
	}
	mach, err := coord.RestoreMachine(machFrame)
	if err != nil {
		return nil, fmt.Errorf("runtime: restore machine: %v", err)
	}
	if _, err := coord.RestoreFilters(&ns, mach); err != nil {
		return nil, fmt.Errorf("runtime: restore: %w", err)
	}
	bank, err := coord.RestoreNodes(nodesFrame)
	if err != nil {
		return nil, fmt.Errorf("runtime: restore bank: %v", err)
	}
	rt := assemble(cfg, mach, bank)
	rt.step = mach.Step()
	return rt, nil
}
