package ckpt

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

// frameFor builds a minimal sealed checkpoint frame for generation gen.
func frameFor(gen uint64) []byte {
	return wire.Checkpoint{Gen: gen, Engine: wire.EngineSeq, Seed: 7, Machine: []byte{1, 2, 3}}.Append(nil)
}

func TestMemStore(t *testing.T) {
	s := NewMem()
	if _, _, err := s.Load(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty Load: %v, want ErrNoCheckpoint", err)
	}
	for gen := uint64(1); gen <= 3; gen++ {
		if err := s.Save(gen, frameFor(gen)); err != nil {
			t.Fatalf("Save(%d): %v", gen, err)
		}
	}
	gen, frame, err := s.Load()
	if err != nil || gen != 3 {
		t.Fatalf("Load = gen %d, err %v; want gen 3", gen, err)
	}
	if !bytes.Equal(frame, frameFor(3)) {
		t.Fatal("Load returned a different frame than saved")
	}
	// Saves arriving out of order still resolve to the numerically newest.
	if err := s.Save(2, frameFor(2)); err != nil {
		t.Fatalf("re-Save(2): %v", err)
	}
	if gen, _, _ := s.Load(); gen != 3 {
		t.Fatalf("after out-of-order save, Load = gen %d, want 3", gen)
	}
	// A corrupt newest frame falls back to the previous generation.
	if err := s.Save(4, frameFor(4)[:5]); err != nil {
		t.Fatalf("Save(torn): %v", err)
	}
	if gen, _, err := s.Load(); err != nil || gen != 3 {
		t.Fatalf("torn newest: Load = gen %d, err %v; want fallback to 3", gen, err)
	}
}

func TestMemStoreRetention(t *testing.T) {
	s := NewMem()
	for gen := uint64(1); gen <= 2*keepGenerations; gen++ {
		if err := s.Save(gen, frameFor(gen)); err != nil {
			t.Fatalf("Save(%d): %v", gen, err)
		}
	}
	if len(s.gens) != keepGenerations {
		t.Fatalf("retained %d generations, want %d", len(s.gens), keepGenerations)
	}
	if gen, _, err := s.Load(); err != nil || gen != 2*keepGenerations {
		t.Fatalf("Load = gen %d, err %v", gen, err)
	}
}

func TestFileStore(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFile(filepath.Join(dir, "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty Load: %v, want ErrNoCheckpoint", err)
	}
	for gen := uint64(1); gen <= 3; gen++ {
		if err := s.Save(gen, frameFor(gen)); err != nil {
			t.Fatalf("Save(%d): %v", gen, err)
		}
	}
	// A fresh store over the same directory — the crash-restart path —
	// sees the same newest frame.
	s2, err := NewFile(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	gen, frame, err := s2.Load()
	if err != nil || gen != 3 || !bytes.Equal(frame, frameFor(3)) {
		t.Fatalf("reopened Load = gen %d, err %v", gen, err)
	}
}

func TestFileStoreRetention(t *testing.T) {
	s, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for gen := uint64(1); gen <= keepGenerations+5; gen++ {
		if err := s.Save(gen, frameFor(gen)); err != nil {
			t.Fatalf("Save(%d): %v", gen, err)
		}
	}
	gens, err := s.generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != keepGenerations {
		t.Fatalf("retained %d generations, want %d", len(gens), keepGenerations)
	}
	if gens[len(gens)-1] != keepGenerations+5 {
		t.Fatalf("newest retained generation %d, want %d", gens[len(gens)-1], keepGenerations+5)
	}
}

// TestFileStorePrunesStrayTemp plants what a crash between a Save's create
// and its rename leaves behind — a frame-sized temp file under a
// generation that never landed — and requires the next Save to remove it,
// while the frames, and files that are not the store's, stay.
func TestFileStorePrunesStrayTemp(t *testing.T) {
	s, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(1, frameFor(1)); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(s.Dir(), frameName(2)+tmpSuffix)
	other := filepath.Join(s.Dir(), "notes.tmp")
	for _, name := range []string{stray, other} {
		if err := os.WriteFile(name, frameFor(2)[:10], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if gen, _, err := s.Load(); err != nil || gen != 1 {
		t.Fatalf("Load beside a stray temp file = gen %d, err %v", gen, err)
	}
	if err := s.Save(3, frameFor(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stray temp file survived a Save: stat error %v", err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("a file that is not the store's was removed: %v", err)
	}
	if gens, err := s.generations(); err != nil || len(gens) != 2 || gens[0] != 1 || gens[1] != 3 {
		t.Fatalf("generations after pruning = %v, %v", gens, err)
	}
}

func TestFileStoreTornAndStaleFrames(t *testing.T) {
	s, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(1, frameFor(1)); err != nil {
		t.Fatal(err)
	}
	// Generation 2 is torn mid-write: a truncated frame under the final
	// name (as a non-atomic filesystem could leave it).
	if err := os.WriteFile(filepath.Join(s.Dir(), frameName(2)), frameFor(2)[:4], 0o644); err != nil {
		t.Fatal(err)
	}
	// Generation 3 is stale: a valid frame misfiled from generation 1.
	if err := os.WriteFile(filepath.Join(s.Dir(), frameName(3)), frameFor(1), 0o644); err != nil {
		t.Fatal(err)
	}
	gen, frame, err := s.Load()
	if err != nil || gen != 1 || !bytes.Equal(frame, frameFor(1)) {
		t.Fatalf("Load = gen %d, err %v; want fallback to intact generation 1", gen, err)
	}
	// With the only intact frame gone, corruption surfaces as ErrCorrupt,
	// never a silent restore.
	if err := os.Remove(filepath.Join(s.Dir(), frameName(1))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("all-corrupt Load: %v, want ErrCorrupt", err)
	}
}

// TestFileStoreLatestValidProperty drives seeded random schedules of
// intact and torn writes and asserts Load always selects exactly the
// newest intact generation — the property the crash-restart path relies
// on.
func TestFileStoreLatestValidProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		wantGen := uint64(0)
		n := 3 + rng.Intn(keepGenerations-1) // stay within retention
		for gen := uint64(1); gen <= uint64(n); gen++ {
			frame := frameFor(gen)
			switch rng.Intn(3) {
			case 0: // intact write
				if err := s.Save(gen, frame); err != nil {
					t.Fatalf("seed %d: Save(%d): %v", seed, gen, err)
				}
				wantGen = gen
			case 1: // torn write under the final name
				if err := os.WriteFile(filepath.Join(s.Dir(), frameName(gen)), frame[:1+rng.Intn(len(frame)-1)], 0o644); err != nil {
					t.Fatal(err)
				}
			case 2: // bit flip at rest
				mut := append([]byte(nil), frame...)
				mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
				if err := os.WriteFile(filepath.Join(s.Dir(), frameName(gen)), mut, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		gen, frame, err := s.Load()
		switch {
		case wantGen == 0:
			if err == nil {
				t.Fatalf("seed %d: no intact generation, but Load returned gen %d", seed, gen)
			}
		case err != nil:
			t.Fatalf("seed %d: Load: %v (want gen %d)", seed, err, wantGen)
		case gen != wantGen || !bytes.Equal(frame, frameFor(wantGen)):
			t.Fatalf("seed %d: Load = gen %d, want newest intact %d", seed, gen, wantGen)
		}
	}
}

func TestFaultyStore(t *testing.T) {
	inner := NewMem()
	s := NewFaulty(inner, FaultPlan{KillAt: 2})
	if err := s.Save(1, frameFor(1)); err != nil {
		t.Fatalf("Save before the kill: %v", err)
	}
	if err := s.Save(2, frameFor(2)); !errors.Is(err, ErrKilled) {
		t.Fatalf("planned kill: %v, want ErrKilled", err)
	}
	if !s.Killed() {
		t.Fatal("Killed() = false after the planned kill")
	}
	// Fail-stop: later writes keep failing.
	if err := s.Save(3, frameFor(3)); !errors.Is(err, ErrKilled) {
		t.Fatalf("post-kill Save: %v, want ErrKilled", err)
	}
	// Nothing of generation 2 reached the medium.
	if gen, _, err := s.Load(); err != nil || gen != 1 {
		t.Fatalf("Load = gen %d, err %v; want 1", gen, err)
	}
}

func TestFaultyStoreTornWrite(t *testing.T) {
	inner := NewMem()
	s := NewFaulty(inner, FaultPlan{KillAt: 2, TornBytes: 6})
	if err := s.Save(1, frameFor(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(2, frameFor(2)); !errors.Is(err, ErrKilled) {
		t.Fatalf("planned kill: %v, want ErrKilled", err)
	}
	// The torn prefix reached the medium but must never be restored:
	// Load falls back to the intact generation 1.
	if gen, frame, err := s.Load(); err != nil || gen != 1 || !bytes.Equal(frame, frameFor(1)) {
		t.Fatalf("Load = gen %d, err %v; want intact generation 1", gen, err)
	}
}
