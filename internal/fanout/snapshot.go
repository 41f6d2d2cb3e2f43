package fanout

import (
	"errors"
	"fmt"

	"repro/internal/coord"
	"repro/internal/transport"
	"repro/internal/wire"
)

// AppendCheckpoint and Restore give the link-backed engines coordinator-process
// checkpointing. The node banks live in the peers and are rebuilt from
// scratch by the Assign handshake at any time, so a checkpoint carries
// only the coordinator's own execution: the machine frame plus the
// last-value mirror. Restore rebuilds the coordinator, replays the mirror
// through the same reassign/replay/reset cycle failover uses, and forces
// a FILTERRESET — the protocols are Las Vegas, so post-restore reports
// match the oracle immediately while the ledgers continue from the
// checkpoint plus the visible recovery cost (exactly as after a peer
// failover).

// AppendCheckpoint appends one sealed frame of the engine's checkpoint
// chain, of generation gen, to dst, under the fingerprint of the engine
// kind that wraps this core, encoded in place between steps: with
// base == 0 the base frame, the machine frame and the whole node-value
// mirror; otherwise a delta on the base of generation base, the machine
// frame and the mirror's values for the nodes of dirty (a bitset over the
// n nodes, nil for all of them). It fails on a closed or terminal engine
// and while recovery is pending — a checkpoint never captures a
// half-recovered execution.
func (e *Engine) AppendCheckpoint(dst []byte, kind uint8, gen, base uint64, dirty []uint64) ([]byte, error) {
	if e.closed {
		return nil, errors.New("fanout: snapshot after Close")
	}
	if e.err != nil {
		return nil, fmt.Errorf("fanout: snapshot of a terminal engine: %w", e.err)
	}
	if e.pendingRecovery {
		return nil, errors.New("fanout: snapshot with recovery pending")
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
		return w.Values(len(e.last), dirty, func(id int) int64 { return e.last[id] }), nil
	}
	w.Section(nil) // the node banks live in the peers
	return w.Seal(e.last), nil
}

// Restore rebuilds a coordinator over links from a checkpoint taken under
// the same configuration (including the same peer layout — the frame is
// agnostic, but the mirror replay fans out over whatever links are
// given). The frame is validated against cfg before any link is used;
// then the fresh engine handshakes as usual, adopts the restored machine
// and mirror, and runs the reassign/replay/reset cycle. A peer failing
// during that cycle leaves recovery pending (or the engine cleanly
// terminal), exactly as a mid-run failure would; the next observation
// call retries through the regular failover path.
func Restore(cfg Config, links []transport.Link, exec Exec, machFrame []byte, last []int64) (*Engine, error) {
	mach, err := coord.OpenMachine(cfg.N, cfg.K, cfg.Epsilon, machFrame)
	if err == nil && len(last) != cfg.N {
		err = fmt.Errorf("checkpoint mirror has %d values for n=%d", len(last), cfg.N)
	}
	if err != nil {
		closeAll(links)
		return nil, fmt.Errorf("fanout: restore: %w", err)
	}
	e, err := New(cfg, links, exec)
	if err != nil {
		return nil, err
	}
	e.mach = mach
	copy(e.last, last)
	// On failure the failing peer is marked dead and recovery is pending
	// (or the engine is already cleanly terminal): either way the caller
	// holds a usable engine whose Health tells the story.
	_ = e.reassignReplayReset()
	return e, nil
}
