// Package ckpt stores durable coordinator checkpoints: the sealed frames a
// monitor's checkpoint path writes and topk.Restore reads back after a
// coordinator process crash.
//
// # Chains
//
// A checkpoint is a chain: one base frame (a sealed wire.Checkpoint, the
// monitor's whole state) followed by delta frames (wire.CheckpointDelta:
// the machine frame and the values observed since the frame before), each
// saved under the next generation number and each naming its base's. A
// monitor cuts a new base only before a chain's deltas would outgrow its
// base — see topk's checkpoint path — so a chain is never more than twice
// its base.
//
// # Store contract
//
// Save files one frame under its generation, atomically at the frame
// level: a reader never observes a half-written generation as that
// generation's content. A store tells a base from a delta by the frame's
// first byte and nothing else; what it must retain is the newest base and
// every frame saved after it, and these backends retain the two newest
// bases and every frame after the older one, so that a base torn at the
// crash leaves the chain before it whole.
//
// Load returns the newest state the store can vouch for: the newest base
// that passes envelope validation (intact CRC-32, filed under the
// generation it claims), extended by the deltas that follow it for as long
// as they are intact, consecutive in generation and name that base — a
// torn tail is cut at the last valid CRC, a delta left over from an older
// chain is never applied to a newer base, and a torn base falls back to
// the chain before it. A lone base is returned as it was saved; a base
// with deltas as one wire.CheckpointChain container. The generation
// returned is that of the last frame returned. Load never returns bytes
// it has not validated.
//
// Torn, bit-rotted and misfiled frames surface as ErrCorrupt when nothing
// intact remains, never as a silent restore; a store with no frame at all
// reports ErrNoCheckpoint so callers can tell "fresh start" from
// "checkpoints exist but none are usable".
//
// Two backends ship here — Mem for tests and single-process use, File for
// crash-durable storage via write-temp + fsync + rename — plus Faulty, a
// fault-injecting wrapper that kills the store at a planned write to
// drive crash-restart chaos suites. The chain rules (entry, put,
// retainFrom, loadChain) are one implementation under all of them.
package ckpt

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/wire"
)

// Store is a durable checkpoint store. Implementations must be safe for
// concurrent use.
type Store interface {
	// Save files frame under generation gen, atomically and durably.
	// frame is the caller's and valid only until Save returns — a monitor
	// encodes every generation, base or delta, into one buffer it reuses,
	// which follows transport.Retention and so carries a base's frames
	// after it until two of them have needed under half of it — so a store
	// that keeps frames keeps a copy (Mem copies, File writes out, Faulty
	// forwards).
	Save(gen uint64, frame []byte) error
	// Load returns the newest intact base extended by its intact deltas
	// (see the package comment) and the generation of the last frame of
	// it. It returns ErrNoCheckpoint when the store holds no frame at
	// all, and an ErrCorrupt-wrapping error when frames exist but no
	// base among them validates.
	Load() (gen uint64, frame []byte, err error)
}

var (
	// ErrNoCheckpoint reports a store that holds no checkpoint frames.
	ErrNoCheckpoint = errors.New("ckpt: no checkpoint")
	// ErrCorrupt reports a checkpoint frame that failed validation: torn
	// mid-write, corrupted at rest, or filed under the wrong generation.
	// Corrupt frames are rejected, never restored.
	ErrCorrupt = errors.New("ckpt: corrupt checkpoint frame")
)

// entry is one stored frame as the chain rules see it: the generation it
// is filed under and whether it is known to be a base — by its first byte,
// when the store wrote or read it. A frame a store has only seen the name
// of (File, before a Load reads it) is not known to be one.
type entry struct {
	gen  uint64
	base bool
}

// isBase reports whether frame's first byte is the base envelope's tag.
// Validation is Load's; a torn base still counts as one here, so that it
// never hides among the deltas of the chain before it.
func isBase(frame []byte) bool {
	return len(frame) > 0 && frame[0] == wire.TypeCheckpoint
}

// put files e in the ascending index idx, replacing an entry of the same
// generation.
func put(idx []entry, e entry) []entry {
	i := len(idx)
	for i > 0 && idx[i-1].gen >= e.gen {
		i--
	}
	if i < len(idx) && idx[i].gen == e.gen {
		idx[i] = e
		return idx
	}
	idx = append(idx, entry{})
	copy(idx[i+1:], idx[i:])
	idx[i] = e
	return idx
}

// retainFrom is the retention rule: it returns how many of idx's oldest
// entries a store drops — everything before the second-newest base. The
// newest base's chain is what Load returns; the one before it is what
// Load falls back to when that base turns out torn; nothing older can be
// reached. Storage therefore stays under four base frames however long
// the run (a chain's deltas never outgrow its base).
func retainFrom(idx []entry) int {
	bases := 0
	for i := len(idx) - 1; i >= 0; i-- {
		if idx[i].base {
			if bases++; bases == 2 {
				return i
			}
		}
	}
	return 0
}

// validate decodes frame as a sealed base envelope filed under gen and
// reports an ErrCorrupt-wrapping error if anything is off.
func validate(gen uint64, frame []byte) error {
	var c wire.Checkpoint
	if err := c.Decode(frame); err != nil {
		return fmt.Errorf("%w: generation %d: %v", ErrCorrupt, gen, err)
	}
	if c.Gen != gen {
		return fmt.Errorf("%w: frame says generation %d, filed under %d", ErrCorrupt, c.Gen, gen)
	}
	return nil
}

// loadChain is Load over the frames filed under the ascending generations
// of idx, which read returns (an error reads as a corrupt frame): it reads
// from the newest frame down to the newest intact base, each frame once,
// and returns that base with the intact deltas of its chain and the
// generation of the last of them. The frames are read's, not copies.
func loadChain(idx []entry, read func(i int) ([]byte, error)) (uint64, [][]byte, error) {
	if len(idx) == 0 {
		return 0, nil, ErrNoCheckpoint
	}
	var firstErr error
	seen := make([][]byte, len(idx)) // the frames read so far: everything after b
	for b := len(idx) - 1; b >= 0; b-- {
		frame, err := read(b)
		if err == nil {
			if seen[b] = frame; !isBase(frame) {
				continue
			}
			err = validate(idx[b].gen, frame)
		} else {
			err = fmt.Errorf("%w: generation %d: %v", ErrCorrupt, idx[b].gen, err)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		gen, frames := idx[b].gen, [][]byte{frame}
		for j := b + 1; j < len(idx) && idx[j].gen == gen+1 && seen[j] != nil && !isBase(seen[j]); j++ {
			if g, of, err := wire.PeekCheckpointDelta(seen[j]); err != nil || g != idx[j].gen || of != idx[b].gen {
				break // torn, misfiled, or a leftover of an older chain: the chain ends before it
			}
			gen, frames = idx[j].gen, append(frames, seen[j])
		}
		return gen, frames, nil
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("%w: %d frames, no base among them", ErrCorrupt, len(idx))
	}
	return 0, nil, firstErr
}

// pack is the one byte string Load returns for loadChain's frames: a lone
// base as it is (the caller's to copy if it is not the caller's to give
// away), a base with deltas as a fresh container.
func pack(frames [][]byte) []byte {
	if len(frames) == 1 {
		return frames[0]
	}
	size := 1
	for _, f := range frames {
		size += len(f) + 5 // a length prefix: five bytes reach 32 GiB
	}
	return wire.CheckpointChain{Frames: frames}.Append(make([]byte, 0, size))
}

// Mem is an in-memory Store: copies on Save, validation on Load, the
// package's retention. It is the test backend and the natural choice when
// durability across process restarts is handled elsewhere.
//
// A chain's frames live in two buffers, its head's copy and one slab the
// frames after it are appended to, and the buffers of a chain retention
// drops serve the next base: once three bases have been saved a Save
// allocates only when a slab grows.
type Mem struct {
	mu     sync.Mutex
	idx    []entry     // every stored frame, ascending
	chains []*memChain // idx cut at its bases, in order
	spare  *memChain   // the chain retention dropped last
}

// memChain holds the frames from one base up to the next: the head — the
// base, or in a store's first chain whatever was saved before any — and
// the frames after it back to back.
type memChain struct {
	head []byte
	slab []byte
	ends []int // frame i > 0 of the chain is slab[ends[i-2]:ends[i-1]]
}

// frames returns how many frames the chain holds.
func (c *memChain) frames() int { return 1 + len(c.ends) }

// frame returns the chain's i-th frame.
func (c *memChain) frame(i int) []byte {
	switch i {
	case 0:
		return c.head
	case 1:
		return c.slab[:c.ends[0]]
	}
	return c.slab[c.ends[i-2]:c.ends[i-1]]
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{} }

// Save files a copy of frame under gen, replacing any frame already filed
// there, and applies the retention rule.
func (m *Mem) Save(gen uint64, frame []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.idx); n == 0 || gen > m.idx[n-1].gen {
		m.push(gen, frame)
		return nil
	}
	// Out of order, or over a generation already filed — nothing a
	// monitor does, so nothing worth doing in place: take every other
	// frame out and push them all back in order.
	type filed struct {
		gen   uint64
		frame []byte
	}
	all := []filed{{gen, frame}}
	for i, e := range m.idx {
		if e.gen != gen {
			all = append(all, filed{e.gen, append([]byte(nil), m.frame(i)...)})
		}
	}
	slices.SortFunc(all, func(a, b filed) int { return cmp.Compare(a.gen, b.gen) })
	m.idx, m.chains = m.idx[:0], m.chains[:0]
	for _, f := range all {
		m.push(f.gen, f.frame)
	}
	return nil
}

// push files a frame of a generation newer than every stored one.
func (m *Mem) push(gen uint64, frame []byte) {
	e := entry{gen: gen, base: isBase(frame)}
	m.idx = append(m.idx, e)
	if n := len(m.chains); n > 0 && !e.base {
		c := m.chains[n-1]
		if cap(c.slab)-len(c.slab) < len(frame) {
			// Half again what it holds, sized here rather than by append's
			// quarter steps and their rounding: a slab reaches its base's
			// size in a handful of allocations and holds at most half as
			// much again as its frames, where doubling held twice as much.
			grown := make([]byte, len(c.slab), len(c.slab)+max(len(frame), len(c.slab)/2))
			c.slab = grown[:copy(grown, c.slab)]
		}
		c.slab = append(c.slab, frame...)
		c.ends = append(c.ends, len(c.slab))
		return
	}
	c := m.spare
	if m.spare = nil; c == nil {
		c = new(memChain)
	}
	c.head, c.slab, c.ends = append(c.head[:0], frame...), c.slab[:0], c.ends[:0]
	m.chains = append(m.chains, c)
	// Everything before the second-newest base goes: whole chains, since
	// every chain but the first begins at a base.
	drop := retainFrom(m.idx)
	m.idx = append(m.idx[:0], m.idx[drop:]...)
	for drop > 0 {
		drop -= m.chains[0].frames()
		m.spare = m.chains[0]
		m.chains = append(m.chains[:0], m.chains[1:]...)
	}
}

// frame returns the i-th stored frame, in place.
func (m *Mem) frame(i int) []byte {
	for _, c := range m.chains {
		if i < c.frames() {
			return c.frame(i)
		}
		i -= c.frames()
	}
	panic("ckpt: frame index out of range")
}

// Load returns a copy of the newest intact chain (see the package
// comment).
func (m *Mem) Load() (uint64, []byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gen, frames, err := loadChain(m.idx, func(i int) ([]byte, error) { return m.frame(i), nil })
	if err != nil {
		return 0, nil, err
	}
	if len(frames) == 1 {
		frames[0] = append([]byte(nil), frames[0]...) // pack hands a lone base over as it is
	}
	return gen, pack(frames), nil
}
