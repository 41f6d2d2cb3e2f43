package topk

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/wire"
)

// CheckpointStore persists checkpoint frames by generation number. Save
// must make frame durable before returning — atomically, so a crash
// mid-write leaves either the previous state or the new one, never a
// torn frame a later Load would hand back. Load returns the newest frame
// that passes validation (every frame is CRC-sealed; torn, bit-rotted or
// misfiled frames must be skipped in favor of an older intact one, or
// rejected with an error wrapping ErrCorruptCheckpoint when nothing
// intact remains), or ErrNoCheckpoint when the store has never saved.
//
// FileCheckpoints (write-to-temp, fsync, rename) and MemCheckpoints
// provide ready-made stores; the interface is exported so deployments
// can persist frames in their own substrate (object store, replicated
// log). Implementations need not be safe for concurrent use — the
// monitor serializes its own calls. The frame passed to Save is valid
// only until Save returns (the monitor encodes every generation into one
// reused buffer), so a store that keeps frames keeps a copy.
type CheckpointStore interface {
	Save(gen uint64, frame []byte) error
	Load() (gen uint64, frame []byte, err error)
}

// Checkpoint configures durable checkpointing (Config.Checkpoint).
//
// A checkpoint captures the coordinator process's execution at an idle
// step boundary: for the in-process engines the machine plus every
// node's key, filter and generator state (restoring is bit-identical —
// same reports, same ledgers, same randomness as a monitor that never
// stopped); for the networked and sharded engines the machine plus the
// coordinator's last-value mirror (the node banks live in the peers and
// are rebuilt through the same reassign/replay/reset cycle peer
// failover uses, so a restored monitor re-converges to oracle-exact
// reports immediately — the protocols are Las Vegas — while the ledgers
// additionally carry the visible recovery cost). Frames are CRC-sealed
// and generation-numbered; a crash during Save is recovered by falling
// back to the previous intact generation, never by restoring a torn
// frame.
type Checkpoint struct {
	// Store receives the frames. Required when Every > 0; with a Store
	// and Every == 0 only manual Monitor.Checkpoint calls persist.
	Store CheckpointStore
	// Every takes an automatic checkpoint after every Every applied
	// steps (in asynchronous mode: applied coalesced batches). 0
	// disables automatic checkpointing. A failed automatic attempt is
	// recorded in CheckpointStats and retried at the next boundary;
	// it never fails the observation call itself.
	Every int
}

// ErrNoCheckpoint is returned (possibly wrapped) by Restore and by
// CheckpointStore.Load when the store holds no checkpoint at all; test
// with errors.Is.
var ErrNoCheckpoint = ckpt.ErrNoCheckpoint

// ErrCorruptCheckpoint is returned (possibly wrapped) when every stored
// frame fails validation — torn writes, bit rot, or a frame filed under
// the wrong generation; test with errors.Is. A store with at least one
// older intact frame falls back to it instead.
var ErrCorruptCheckpoint = ckpt.ErrCorrupt

// errNilStore rejects Restore without a store to load from.
var errNilStore = errors.New("topk: Restore requires a non-nil CheckpointStore")

// RestoreError is the typed error Restore returns when the loaded
// checkpoint cannot be restored under the given configuration — an
// engine/seed/shape mismatch, an undecodable embedded frame, or an
// engine-side rebuild failure. Reason describes the rejection; Err, when
// non-nil, is the underlying cause (Unwrap exposes it to errors.Is).
// Store-level failures (ErrNoCheckpoint, ErrCorruptCheckpoint) pass
// through un-wrapped.
type RestoreError struct {
	Reason string
	Err    error
}

// Error formats the failure as "topk: restore: <Reason>[: <cause>]".
func (e *RestoreError) Error() string {
	if e.Err != nil {
		return "topk: restore: " + e.Reason + ": " + e.Err.Error()
	}
	return "topk: restore: " + e.Reason
}

// Unwrap returns the underlying cause.
func (e *RestoreError) Unwrap() error { return e.Err }

// badRestore builds a typed *RestoreError (fmt.Sprintf, not fmt.Errorf:
// restore paths reject with typed errors only, like constructor paths).
func badRestore(cause error, format string, args ...any) error {
	return &RestoreError{Reason: fmt.Sprintf(format, args...), Err: cause}
}

// FileCheckpoints returns a CheckpointStore persisting each generation
// as its own file under dir (created if missing): frames are written to
// a temporary name, fsynced, and renamed into place, so a crash at any
// byte boundary leaves the previous generations intact. The store
// retains the last few generations and Load falls back across them,
// newest intact first. The returned store is safe for concurrent use.
func FileCheckpoints(dir string) (CheckpointStore, error) {
	return ckpt.NewFile(dir)
}

// MemCheckpoints returns an in-process CheckpointStore with the same
// retention and fallback semantics as FileCheckpoints but no durability
// across processes — the backend for tests and for Restore-from-memory
// hand-offs within one process.
func MemCheckpoints() CheckpointStore {
	return ckpt.NewMem()
}

// CheckpointStats summarizes a monitor's checkpoint activity.
type CheckpointStats struct {
	// Saves counts successfully persisted frames (automatic and manual).
	Saves int64
	// Failures counts attempts that failed — the engine was not at a
	// checkpointable boundary (degraded or terminal) or the store
	// rejected the write. Automatic attempts retry at the next boundary.
	Failures int64
	// LastGen is the generation of the newest persisted frame: the
	// count survives Restore, which resumes numbering from the loaded
	// generation. 0 means no frame was ever persisted.
	LastGen uint64
	// LastErr is the error of the most recent failed attempt, nil once
	// an attempt succeeds again.
	LastErr error
}

// CheckpointStats returns a snapshot of the checkpoint counters. In
// asynchronous mode it is safe concurrently with the background worker.
func (m *Monitor) CheckpointStats() CheckpointStats {
	m.lock()
	defer m.unlock()
	return m.ckptStats
}

// validateCheckpoint checks the Checkpoint sub-configuration.
func validateCheckpoint(cfg Config) error {
	if cfg.Checkpoint.Every < 0 {
		return badConfig(cfg, "Checkpoint.Every", "must be >= 0, got %d", cfg.Checkpoint.Every)
	}
	if cfg.Checkpoint.Every > 0 && cfg.Checkpoint.Store == nil {
		return badConfig(cfg, "Checkpoint.Store", "automatic checkpointing (Every=%d) requires a Store", cfg.Checkpoint.Every)
	}
	return nil
}

// engineName names an engine fingerprint for error messages.
func engineName(kind uint8) string {
	switch kind {
	case wire.EngineSeq:
		return "sequential"
	case wire.EngineConc:
		return "concurrent"
	case wire.EngineNet:
		return "networked"
	case wire.EngineShard:
		return "sharded"
	default:
		return "unknown"
	}
}

// maybeCheckpoint is the automatic-checkpoint hook, called after every
// applied step at an idle engine boundary (synchronous observation calls
// and the asynchronous worker under engineMu). A failure is recorded and
// retried at the next boundary; observation calls never fail because a
// checkpoint did.
func (m *Monitor) maybeCheckpoint() {
	if m.cfg.Checkpoint.Every <= 0 {
		return
	}
	m.ckptApplied++
	if m.ckptApplied < m.cfg.Checkpoint.Every {
		return
	}
	m.ckptApplied = 0
	m.checkpointLocked()
}

// checkpointLocked encodes the current state as generation ckptGen+1 —
// in place, into the one buffer the monitor reuses across saves, which is
// why a store may not keep the slice Save is handed — and saves it,
// updating the stats. Callers hold engineMu in asynchronous mode.
func (m *Monitor) checkpointLocked() (uint64, error) {
	gen := m.ckptGen + 1
	frame, err := m.eng.AppendCheckpoint(m.ckptBuf[:0], gen)
	if err == nil {
		m.ckptBuf = frame
		err = m.cfg.Checkpoint.Store.Save(gen, frame)
	}
	if err != nil {
		m.ckptStats.Failures++
		m.ckptStats.LastErr = err
		return 0, err
	}
	m.ckptGen = gen
	m.ckptStats.Saves++
	m.ckptStats.LastGen = gen
	m.ckptStats.LastErr = nil
	return gen, nil
}

// Checkpoint persists the monitor's current state to the configured
// Store and returns the generation written. It requires Config.
// Checkpoint.Store; Every may be 0 (manual-only checkpointing). On a
// synchronous monitor it runs immediately; in asynchronous mode it first
// drains the ingest queue (ctx bounds the wait, as in Drain) so the
// frame reflects every observation staged before the call. A networked
// or sharded monitor that is degraded or terminal cannot be
// checkpointed — the attempt fails, is counted in CheckpointStats, and
// the monitor stays usable.
func (m *Monitor) Checkpoint(ctx context.Context) (uint64, error) {
	if m.cfg.Checkpoint.Store == nil {
		return 0, errors.New("topk: no Config.Checkpoint.Store configured")
	}
	if m.drv != nil {
		if err := m.Drain(ctx); err != nil {
			return 0, err
		}
	}
	m.lock()
	defer m.unlock()
	return m.checkpointLocked()
}

// Restore rebuilds a Monitor from the newest valid checkpoint in store,
// taken by a monitor with this same configuration (engine selection,
// Nodes, K, Seed, DistinctValues and Epsilon must all match — a frame
// never silently restores into a configuration it was not taken under;
// mismatches yield a typed *RestoreError, store-level failures
// ErrNoCheckpoint or ErrCorruptCheckpoint, and an invalid cfg the same
// *ConfigError New returns).
//
// The in-process engines resume bit-identically to a monitor that never
// stopped. The networked and sharded engines handshake their peers from
// scratch (cfg.Transport must supply fresh links whose far ends run
// ServeNodes; in-process shard and tree monitors respawn their
// loopback peers), replay the checkpointed value mirror, and
// force a filter reset — reports are oracle-exact from the first
// post-restore step, with the recovery traffic visible in the ledgers,
// exactly as after a peer failover. A peer failing during the replay
// leaves the restored monitor degraded (or cleanly terminal), exactly
// as a mid-run failure would; Health tells the story.
//
// Checkpoint generation numbering continues from the restored frame
// when cfg.Checkpoint carries a store (typically the same one). As with
// New, Restore takes ownership of any cfg.Transport and closes it on
// every error path.
func Restore(store CheckpointStore, cfg Config) (*Monitor, error) {
	if store == nil {
		return nil, failNew(cfg, errNilStore)
	}
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	gen, frame, err := store.Load()
	if err != nil {
		return nil, failNew(cfg, err)
	}
	var c wire.Checkpoint
	if err := c.Decode(frame); err != nil {
		return nil, failNew(cfg, badRestore(err, "checkpoint generation %d", gen))
	}
	if c.Gen != gen {
		return nil, failNew(cfg, badRestore(nil, "frame filed as generation %d claims generation %d", gen, c.Gen))
	}
	if want := engineKind(cfg); c.Engine != want {
		return nil, failNew(cfg, badRestore(nil, "checkpoint was taken by the %s engine, config selects the %s engine", engineName(c.Engine), engineName(want)))
	}
	if c.Seed != cfg.Seed {
		return nil, failNew(cfg, badRestore(nil, "checkpoint seed %d differs from configured %d", c.Seed, cfg.Seed))
	}
	if c.Distinct != cfg.DistinctValues {
		return nil, failNew(cfg, badRestore(nil, "checkpoint distinct-values mode %v differs from configured %v", c.Distinct, cfg.DistinctValues))
	}
	eng, err := buildEngine(cfg, &c, false)
	if err != nil {
		return nil, failNew(cfg, badRestore(err, "%s engine", engineName(c.Engine)))
	}
	m := &Monitor{cfg: cfg, maxVal: maxValueFor(cfg.Nodes, cfg.DistinctValues), eng: eng, ckptGen: gen}
	m.ckptStats.LastGen = gen
	return startMonitor(m)
}
