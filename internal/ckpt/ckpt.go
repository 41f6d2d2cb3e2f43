// Package ckpt stores durable coordinator checkpoints: sealed
// wire.Checkpoint frames written by the engines' Snapshot paths and read
// back by topk.Restore after a coordinator process crash.
//
// # Store contract
//
// A Store holds generation-numbered frames. Save must be atomic at the
// frame level — a reader never observes a half-written generation as that
// generation's content — and should retain a few older generations so a
// frame torn exactly at the crash falls back instead of losing the
// execution. Load returns the newest frame that passes envelope
// validation (intact CRC-32, matching generation number); it never
// returns bytes it has not validated, so a restore can only ever start
// from a frame that was written completely.
//
// Frames are validated with the wire.Checkpoint decoder: the CRC-32
// trailer rejects torn and bit-rotted frames, and a frame whose embedded
// generation disagrees with the generation it is filed under is stale
// (renamed, copied, or replayed) and equally rejected. Both surface as
// ErrCorrupt, never as a silent restore; a store with no frame at all
// reports ErrNoCheckpoint so callers can tell "fresh start" from
// "checkpoints exist but none are usable".
//
// Two backends ship here — Mem for tests and single-process use, File for
// crash-durable storage via write-temp + fsync + rename — plus Faulty, a
// fault-injecting wrapper that kills the store at a planned write to
// drive crash-restart chaos suites.
package ckpt

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/wire"
)

// Store is a durable checkpoint store. Implementations must be safe for
// concurrent use.
type Store interface {
	// Save files frame under generation gen, atomically and durably.
	// frame is the caller's and valid only until Save returns — monitors
	// encode every generation into one reused buffer — so a store that
	// keeps frames keeps a copy (Mem copies, File writes out, Faulty
	// forwards).
	Save(gen uint64, frame []byte) error
	// Load returns the newest stored frame that validates, with its
	// generation. It returns ErrNoCheckpoint when the store holds no
	// frame at all, and an ErrCorrupt-wrapping error when frames exist
	// but none validates.
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

// keepGenerations bounds how many generations a backend retains: enough
// that a frame torn at the crash always leaves an intact predecessor,
// small enough that checkpoint storage stays O(1) over a long run.
const keepGenerations = 8

// validate decodes frame as a sealed checkpoint envelope filed under gen
// and reports an ErrCorrupt-wrapping error if anything is off.
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

// Mem is an in-memory Store: the newest keepGenerations frames, copied on
// Save and validated on Load. It is the test backend and the natural
// choice when durability across process restarts is handled elsewhere.
type Mem struct {
	mu     sync.Mutex
	gens   []uint64 // ascending
	frames [][]byte // parallel to gens
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{} }

// Save files a copy of frame under gen, replacing any frame already filed
// there and dropping generations beyond the retention bound.
func (m *Mem) Save(gen uint64, frame []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := append([]byte(nil), frame...)
	for i, g := range m.gens {
		if g == gen {
			m.frames[i] = cp
			return nil
		}
	}
	m.gens = append(m.gens, gen)
	m.frames = append(m.frames, cp)
	for i := len(m.gens) - 1; i > 0 && m.gens[i] < m.gens[i-1]; i-- {
		m.gens[i], m.gens[i-1] = m.gens[i-1], m.gens[i]
		m.frames[i], m.frames[i-1] = m.frames[i-1], m.frames[i]
	}
	if len(m.gens) > keepGenerations {
		drop := len(m.gens) - keepGenerations
		m.gens = append(m.gens[:0], m.gens[drop:]...)
		m.frames = append(m.frames[:0], m.frames[drop:]...)
	}
	return nil
}

// Load returns a copy of the newest frame that validates.
func (m *Mem) Load() (uint64, []byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.gens) == 0 {
		return 0, nil, ErrNoCheckpoint
	}
	var firstErr error
	for i := len(m.gens) - 1; i >= 0; i-- {
		if err := validate(m.gens[i], m.frames[i]); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return m.gens[i], append([]byte(nil), m.frames[i]...), nil
	}
	return 0, nil, firstErr
}
