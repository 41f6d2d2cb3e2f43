package topk

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/wire"
)

// CheckpointStore persists checkpoint frames by generation number.
//
// A monitor's checkpoint is a chain: one base frame holding its whole
// state, then delta frames holding what moved since the frame before, each
// saved under the next generation. A frame's first byte tells them apart
// (0x17 base, 0x19 delta); a store needs to know nothing else of them.
//
// Save must make frame durable before returning — atomically, so a crash
// mid-write leaves either the previous state or the new one, never a torn
// frame filed as whole. A store must keep the newest base and every frame
// saved after it; one that also keeps the chain before (as the two stores
// here do) survives a base torn at the crash.
//
// Load returns the newest state the store can vouch for, and the
// generation of the last frame of it: the newest base that passes
// validation, followed by the deltas saved after it for as long as they
// are intact and consecutive in generation. (Every frame is CRC-sealed;
// torn, bit-rotted or misfiled frames end the chain before them, and a
// torn base falls back to the chain before it — or to an error wrapping
// ErrCorruptCheckpoint when nothing intact remains.) A lone base is
// returned as saved; a base with deltas as one container: the byte 0x1a,
// then each frame behind its length as an unsigned varint. Restore checks
// every frame of a container against its chain again, so a store that
// hands over a delta of another chain yields a *RestoreError, never a
// wrong monitor. Load returns ErrNoCheckpoint when the store has never
// saved.
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
// node's key and filter (restoring is bit-identical — same reports, same
// ledgers, same coins, which are a function of the seed, as a monitor that
// never stopped); for the networked and sharded engines the machine plus the
// coordinator's last-value mirror (the node banks live in the peers and
// are rebuilt through the same reassign/replay/reset cycle peer
// failover uses, so a restored monitor re-converges to oracle-exact
// reports immediately — the protocols are Las Vegas — while the ledgers
// additionally carry the visible recovery cost).
//
// What a checkpoint costs is what changed. The first frame after New or
// Restore is a base, the whole state; a later frame is a delta — the
// coordinator's hundred bytes and the values of the nodes observed since
// the frame before — unless a message was charged since that frame (a
// protocol execution ran, and may have moved membership and bounds: the
// frame is a base again) or the chain's deltas would
// outgrow its base (the frame is a base: restoring never reads more than
// twice one). On the similar inputs the algorithm is built for, steps that
// charge nothing are the rule, and so are deltas. Frames are CRC-sealed
// and generation-numbered; a crash during Save is recovered by cutting the
// chain at its last intact frame, never by restoring a torn one.
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
// retains the two newest base frames and every frame after the older
// one; Load returns the newest intact base with its intact deltas and
// falls back to the chain before it. The returned store is safe for
// concurrent use.
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
	// Saves counts successfully persisted frames (automatic and manual):
	// Bases of them whole-state frames, Deltas frames of what changed,
	// Bytes their sizes summed.
	Saves  int64
	Bases  int64
	Deltas int64
	Bytes  int64
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

// ckptChain is what a monitor with a checkpoint store remembers of the
// chain it is writing: enough to decide whether the next frame can be a
// delta, and which nodes it would carry.
type ckptChain struct {
	base     uint64      // generation of the chain's base; 0 — after New and Restore — makes the next frame one
	ledger   comm.Counts // the model ledger when the last frame was saved
	baseLen  int         // bytes of the base frame
	deltaLen int         // bytes of the deltas saved on it
	dirty    []uint64    // the nodes observed since the last saved frame, a bit each
	all      bool        // every node was: dirty is not kept up
}

// observed marks the nodes a call is about to move, ids or (nil) all n of
// them. A call that carries half the nodes or more is as good as dense:
// the set is marked full in O(1), as it is while the next frame is a base
// anyway.
func (c *ckptChain) observed(ids []int, n int) {
	if c.all || c.base == 0 {
		return
	}
	if ids == nil || 2*len(ids) >= n {
		c.all = true
		return
	}
	for _, id := range ids {
		c.dirty[id>>6] |= 1 << (id & 63)
	}
}

// checkpointLocked encodes the next frame of the chain as generation
// ckptGen+1 — in place, into the one buffer the monitor reuses across
// saves, which is why a store may not keep the slice Save is handed — and
// saves it, updating the stats. The frame is a delta on the chain's base
// unless that cannot describe what happened or would outgrow what it
// extends:
//
//   - there is no chain yet (the first frame after New or Restore);
//   - the model ledger moved since the last saved frame. A step that
//     charges no message ran no protocol execution and installed no filter
//     (every execution over a non-empty cohort charges its winner's bid):
//     it moved the observed values and the step counters, which a delta
//     carries, and nothing else — no membership bit, bound, statistic or
//     ledger cell. Any charged message voids that argument,
//     so the frame is a base;
//   - the chain's deltas, with this one, would exceed its base in bytes:
//     the bound that keeps a restore under twice a lone base's work and a
//     store under four base frames.
//
// A failed attempt changes nothing: the same generation, the same dirty
// set and the same decision are tried again at the next boundary. Callers
// hold engineMu in asynchronous mode.
func (m *Monitor) checkpointLocked() (uint64, error) {
	c, gen := m.chain, m.ckptGen+1
	ledger := m.eng.Ledger().Total()
	base := c.base
	if ledger != c.ledger {
		base = 0
	}
	dirty := c.dirty
	if c.all {
		dirty = nil
		if c.deltaLen+2*m.cfg.Nodes > c.baseLen {
			base = 0 // a delta of every node, two bytes a node at the least: not worth encoding to find out
		}
	}
	frame, err := m.eng.AppendCheckpoint(m.ckptBuf[:0], gen, base, dirty)
	if err == nil && base != 0 && c.deltaLen+len(frame) > c.baseLen {
		base = 0
		frame, err = m.eng.AppendCheckpoint(frame[:0], gen, 0, nil)
	}
	if err == nil {
		m.ckptBuf = frame
		err = m.cfg.Checkpoint.Store.Save(gen, frame)
	}
	if err != nil {
		m.ckptStats.Failures++
		m.ckptStats.LastErr = err
		return 0, err
	}
	if base == 0 {
		c.base, c.baseLen, c.deltaLen = gen, len(frame), 0
		m.ckptStats.Bases++
	} else {
		c.deltaLen += len(frame)
		m.ckptStats.Deltas++
	}
	c.ledger, c.all = ledger, false
	clear(c.dirty)
	m.ckptGen = gen
	m.ckptStats.Saves++
	m.ckptStats.Bytes += int64(len(frame))
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

// Restore rebuilds a Monitor from the newest valid checkpoint in store —
// its newest intact base frame with the deltas saved after it folded in:
// each delta's values applied in order, the coordinator state the last of
// them carries adopted, and the whole held to the checks a lone frame
// passes — taken by a monitor with this same configuration (engine selection,
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
// when cfg.Checkpoint carries a store (typically the same one), and the
// first frame the restored monitor saves is a base. As with
// New, Restore takes ownership of any cfg.Transport and closes it on
// every error path.
func Restore(store CheckpointStore, cfg Config) (*Monitor, error) {
	if store == nil {
		return nil, failNew(cfg, errNilStore)
	}
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	gen, loaded, err := store.Load()
	if err != nil {
		return nil, failNew(cfg, err)
	}
	frames, err := wire.SplitCheckpointChain(loaded)
	if err != nil {
		return nil, failNew(cfg, badRestore(err, "checkpoint generation %d", gen))
	}
	if len(frames) == 0 {
		return nil, failNew(cfg, badRestore(nil, "checkpoint generation %d: the chain holds no frame", gen))
	}
	var c wire.Checkpoint
	if err := c.Decode(frames[0]); err != nil {
		return nil, failNew(cfg, badRestore(err, "checkpoint generation %d: base frame", gen))
	}
	if last := c.Gen + uint64(len(frames)-1); last != gen {
		return nil, failNew(cfg, badRestore(nil, "checkpoint filed as generation %d ends at generation %d", gen, last))
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
	eng, err := buildEngine(cfg, &c, frames[1:], false)
	if err != nil {
		return nil, failNew(cfg, badRestore(err, "%s engine", engineName(c.Engine)))
	}
	m := &Monitor{cfg: cfg, maxVal: maxValueFor(cfg.Nodes, cfg.DistinctValues), eng: eng, ckptGen: gen}
	m.ckptStats.LastGen = gen
	return startMonitor(m)
}
