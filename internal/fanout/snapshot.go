package fanout

import (
	"errors"
	"fmt"

	"repro/internal/coord"
	"repro/internal/wire"
)

// AppendCheckpoint and Resume give the link-backed engines coordinator-process
// checkpointing. The node banks live in the peers and are rebuilt from
// scratch by the Assign handshake at any time, so a checkpoint carries
// only the coordinator's own execution: the machine frame plus the
// last-value mirror. A restore is the engine New builds, whose handshake
// has just left every bank at zero, resuming the checkpointed machine
// over that mirror: Resume replays it and forces a FILTERRESET — the
// tail failover runs. The protocols are Las Vegas, so post-restore
// reports match the oracle immediately while the ledgers continue from
// the checkpoint plus the visible recovery cost (exactly as after a peer
// failover).

// AppendCheckpoint appends one sealed frame of the engine's checkpoint
// chain, of generation gen, to dst, under the fingerprint of the engine's
// shape — wire.EngineNet over a flat peer set, wire.EngineShard over a
// tree — encoded in place between steps: with base == 0 the base frame,
// the machine frame and the whole node-value mirror; otherwise a delta on
// the base of generation base, the machine frame and the mirror's values
// for the nodes of dirty (a bitset over the n nodes, nil for all of them).
// It fails on a closed or terminal engine and while recovery is pending —
// a checkpoint never captures a half-recovered execution.
func (e *Engine) AppendCheckpoint(dst []byte, gen, base uint64, dirty []uint64) ([]byte, error) {
	if e.closed {
		return nil, errors.New("fanout: snapshot after Close")
	}
	if e.err != nil {
		return nil, fmt.Errorf("fanout: snapshot of a terminal engine: %w", e.err)
	}
	if e.pendingRecovery {
		return nil, errors.New("fanout: snapshot with recovery pending")
	}
	kind := wire.EngineNet
	if e.cfg.Tree != (Tree{}) {
		kind = wire.EngineShard
	}
	var w wire.CheckpointWriter
	if base == 0 {
		w = wire.BeginCheckpoint(dst, gen, kind, e.cfg.Seed)
	} else {
		w = wire.BeginCheckpointDelta(dst, gen, base, kind, e.cfg.Seed)
	}
	var err error
	if w.Buf, err = e.mach.Snapshot(w.Buf); err != nil {
		return nil, err
	}
	w.EndSection()
	if base != 0 {
		return w.Values(e.cfg.N, dirty, e.last.Value), nil
	}
	w.Section(nil) // the node banks live in the peers
	return w.Seal(e.cfg.N, e.last.Value), nil
}

// Resume adopts a checkpointed coordinator — machine mach and value
// mirror last, taken under the same configuration and already held to it
// — into an engine New has just built, whose mirror it allocates at the
// width last needs, replays the mirror into the banks
// New's handshake left at zero, and forces a FILTERRESET. Call it once,
// before the first observation. A peer failing during the replay leaves
// recovery pending (or the engine cleanly terminal), exactly as a mid-run
// failure would: the next observation call retries through the regular
// failover path, and Health tells the story.
func (e *Engine) Resume(mach *coord.Machine, last []int64) {
	e.mach = mach
	e.last.Fit(last)
	e.last.Put(0, last)
	_ = e.replayReset()
}
