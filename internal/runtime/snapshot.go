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
	w := wire.BeginCheckpoint(dst, gen, wire.EngineConc, rt.cfg.Seed, rt.cfg.DistinctValues)
	var err error
	if w.Buf, err = rt.mach.Snapshot(w.Buf); err != nil {
		return nil, err
	}
	w.EndSection()
	w.Buf = rt.bank.Snapshot(w.Buf)
	w.EndSection()
	return w.Seal(nil), nil
}

// Restore rebuilds a runtime from Snapshot frames taken under the same
// configuration (nodesFrame may be a v1 frame; coord.UpgradeBankFrame),
// validating every frame field against cfg first. The restored runtime
// starts its own shard goroutines sized for this process.
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
	if nodesFrame, err = coord.UpgradeBankFrame(nodesFrame); err != nil {
		return nil, fmt.Errorf("runtime: restore nodes frame: %w", err)
	}
	h, _, err := wire.DecodeBankHeader(nodesFrame)
	if err != nil {
		return nil, fmt.Errorf("runtime: restore nodes frame: %v", err)
	}
	if h.N != cfg.N || h.Lo != 0 || h.Hi != cfg.N {
		return nil, fmt.Errorf("runtime: checkpoint bank covers [%d, %d) of %d, want [0, %d)", h.Lo, h.Hi, h.N, cfg.N)
	}
	if h.EpsNum != tol.Num() {
		return nil, fmt.Errorf("runtime: checkpoint bank tolerance %d/2^20 differs from configured %d/2^20", h.EpsNum, tol.Num())
	}
	if h.Distinct != cfg.DistinctValues {
		return nil, fmt.Errorf("runtime: checkpoint distinct-values mode %v differs from configured %v", h.Distinct, cfg.DistinctValues)
	}
	mach, err := coord.RestoreMachine(machFrame)
	if err != nil {
		return nil, fmt.Errorf("runtime: restore machine: %v", err)
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
