package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/wire"
)

// frameFor builds a minimal sealed base frame for generation gen.
func frameFor(gen uint64) []byte {
	return wire.Checkpoint{Gen: gen, Engine: wire.EngineSeq, Seed: 7, Machine: []byte{1, 2, 3}}.Append(nil)
}

// deltaFor builds a minimal sealed delta frame for generation gen on the
// base of generation base; the value it carries tells two deltas of one
// generation apart.
func deltaFor(gen, base uint64) []byte {
	return wire.CheckpointDelta{Gen: gen, Base: base, Engine: wire.EngineSeq, Seed: 7,
		Machine: []byte{1, 2, 3}, IDs: []int{int(gen)}, Vals: []int64{int64(base)}}.Append(nil)
}

// chainOf is what Load returns for the given frames: the lone frame, or
// the container of several.
func chainOf(frames ...[]byte) []byte {
	if len(frames) == 1 {
		return frames[0]
	}
	return wire.CheckpointChain{Frames: frames}.Append(nil)
}

// stores runs f against a fresh store of every backend.
func stores(t *testing.T, f func(t *testing.T, s Store, plant func(gen uint64, frame []byte))) {
	t.Run("mem", func(t *testing.T) {
		s := NewMem()
		f(t, s, func(gen uint64, frame []byte) {
			if err := s.Save(gen, frame); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("file", func(t *testing.T) {
		s, err := NewFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		// Planted behind the store's back, under the final name: what a
		// filesystem that does not honor the rename contract leaves.
		f(t, s, func(gen uint64, frame []byte) {
			if err := os.WriteFile(filepath.Join(s.Dir(), frameName(gen)), frame, 0o644); err != nil {
				t.Fatal(err)
			}
		})
	})
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

// generations lists the generations a file store has indexed, ascending.
func (f *File) generations() []uint64 {
	gens := make([]uint64, len(f.idx))
	for i, e := range f.idx {
		gens[i] = e.gen
	}
	return gens
}

// saveChains saves chains bases, each followed by deltas deltas, under
// consecutive generations from 1, and returns the last generation.
func saveChains(t *testing.T, s Store, chains, deltas int) uint64 {
	t.Helper()
	gen := uint64(0)
	for c := 0; c < chains; c++ {
		gen++
		base := gen
		if err := s.Save(gen, frameFor(gen)); err != nil {
			t.Fatalf("Save(%d): %v", gen, err)
		}
		for d := 0; d < deltas; d++ {
			gen++
			if err := s.Save(gen, deltaFor(gen, base)); err != nil {
				t.Fatalf("Save(%d): %v", gen, err)
			}
		}
	}
	return gen
}

// TestMemStoreRetention pins the two-bases rule on the in-memory store:
// whatever was saved, what stays is the two newest bases and every frame
// after the older one — and the buffers of what went are reused.
func TestMemStoreRetention(t *testing.T) {
	s := NewMem()
	last := saveChains(t, s, 5, 3) // bases at 1, 5, 9, 13, 17
	want := []entry{{13, true}, {14, false}, {15, false}, {16, false}, {17, true}, {18, false}, {19, false}, {20, false}}
	if !slices.Equal(s.idx, want) || len(s.chains) != 2 {
		t.Fatalf("retained %v in %d chains, want %v in 2", s.idx, len(s.chains), want)
	}
	if gen, frame, err := s.Load(); err != nil || gen != last ||
		!bytes.Equal(frame, chainOf(frameFor(17), deltaFor(18, 17), deltaFor(19, 17), deltaFor(20, 17))) {
		t.Fatalf("Load = gen %d, err %v; want the chain of base 17 through %d", gen, err, last)
	}
	// Only bases: the rule keeps two frames.
	s = NewMem()
	saveChains(t, s, 12, 0)
	if !slices.Equal(s.idx, []entry{{11, true}, {12, true}}) {
		t.Fatalf("retained %v of twelve bases, want 11 and 12", s.idx)
	}
	// Steady state allocates nothing: a base lands in the buffers of the
	// chain it pushes out, a delta in its chain's slab.
	s = NewMem()
	gen := saveChains(t, s, 4, 3)
	base, delta := frameFor(gen+1), deltaFor(gen+2, gen+1)
	if allocs := testing.AllocsPerRun(50, func() {
		gen++
		base[1], delta[1], delta[2] = byte(gen), byte(gen+1), byte(gen) // any bytes: Save does not validate
		if err := s.Save(gen, base); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 3; d++ {
			gen++
			if err := s.Save(gen, delta); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per steady-state chain of four saves, want 0", allocs)
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

// TestFileStoreRetention pins the two-bases rule on the directory: the
// files that stay are the two newest bases and every frame after the older
// one, in the store's index and on the medium alike — a store reopened
// over the directory indexes the same.
func TestFileStoreRetention(t *testing.T) {
	s, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	last := saveChains(t, s, 5, 3) // bases at 1, 5, 9, 13, 17
	want := []entry{{13, true}, {14, false}, {15, false}, {16, false}, {17, true}, {18, false}, {19, false}, {20, false}}
	if !slices.Equal(s.idx, want) {
		t.Fatalf("indexed %v, want %v", s.idx, want)
	}
	reopened, err := NewFile(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if gens := reopened.generations(); !slices.Equal(gens, []uint64{13, 14, 15, 16, 17, 18, 19, 20}) {
		t.Fatalf("the directory holds %v, want 13 through 20", gens)
	}
	if gen, frame, err := reopened.Load(); err != nil || gen != last ||
		!bytes.Equal(frame, chainOf(frameFor(17), deltaFor(18, 17), deltaFor(19, 17), deltaFor(20, 17))) {
		t.Fatalf("Load = gen %d, err %v; want the chain of base 17 through %d", gen, err, last)
	}
	// The store restarted over: what it knows to be a base is what it has
	// read — the chain it loaded. The first frame saved after a restart is
	// a base, and with it the directory is down to two chains again.
	if err := reopened.Save(21, frameFor(21)); err != nil {
		t.Fatal(err)
	}
	if gens := reopened.generations(); !slices.Equal(gens, []uint64{17, 18, 19, 20, 21}) {
		t.Fatalf("indexed %v after the restarted store's first base, want 17 through 21", gens)
	}
	if left, err := os.ReadDir(s.Dir()); err != nil || len(left) != 5 {
		t.Fatalf("the directory holds %d files (%v), want 5", len(left), err)
	}
}

// TestFileStoreSaveListsNothing pins that a Save works from the index the
// store keeps, not from a listing of the directory: a frame planted behind
// the store's back is not noticed by the saves that follow, retention
// included; a Load, which lists, sees it.
func TestFileStoreSaveListsNothing(t *testing.T) {
	s, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	saveChains(t, s, 2, 2) // bases at 1 and 4
	if err := os.WriteFile(filepath.Join(s.Dir(), frameName(100)), frameFor(100), 0o644); err != nil {
		t.Fatal(err)
	}
	for gen := uint64(7); gen <= 9; gen++ {
		if err := s.Save(gen, deltaFor(gen, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if gens := s.generations(); !slices.Equal(gens, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatalf("indexed %v after saves beside a planted frame, want 1 through 9", gens)
	}
	if gen, _, err := s.Load(); err != nil || gen != 100 {
		t.Fatalf("Load = gen %d, err %v; want the planted 100", gen, err)
	}
	if gens := s.generations(); !slices.Equal(gens, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}) {
		t.Fatalf("indexed %v after a Load, want the directory's", gens)
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
	if gens := s.generations(); !slices.Equal(gens, []uint64{1, 3}) {
		t.Fatalf("generations after pruning = %v", gens)
	}
	// A stray left by an earlier process is seen when the store is opened.
	if err := os.WriteFile(stray, frameFor(2)[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewFile(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if err := reopened.Save(4, frameFor(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stray temp file of an earlier process survived a Save: stat error %v", err)
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
// intact, torn and bit-flipped writes of bases and deltas behind the
// store's back — no retention interferes — and asserts that Load always
// returns exactly the chain a model walks out of what it wrote: the newest
// intact base and the intact, consecutive deltas on it — the property the
// crash-restart path relies on.
func TestFileStoreLatestValidProperty(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		type written struct {
			frame      []byte
			base       bool   // the frame's first byte says base (torn or not)
			intact     bool   // and the frame is whole
			of         uint64 // an intact delta's base
			overBroken bool
		}
		var log []written // log[g-1] is generation g
		lastBase := uint64(0)
		n := 3 + rng.Intn(10)
		for gen := uint64(1); gen <= uint64(n); gen++ {
			w := written{base: lastBase == 0 || rng.Intn(3) == 0}
			if w.base {
				w.frame, lastBase = frameFor(gen), gen
			} else {
				w.of = lastBase
				if rng.Intn(6) == 0 && lastBase > 1 {
					w.of = lastBase - 1 // a leftover of an older chain
				}
				w.frame = deltaFor(gen, w.of)
			}
			switch rng.Intn(4) {
			case 0: // torn write under the final name; the first byte survives
				w.frame = w.frame[:1+rng.Intn(len(w.frame)-1)]
			case 1: // bit flip at rest, past the type tag
				w.frame = append([]byte(nil), w.frame...)
				w.frame[1+rng.Intn(len(w.frame)-1)] ^= byte(1 << rng.Intn(8))
			default:
				w.intact = true
			}
			if err := os.WriteFile(filepath.Join(s.Dir(), frameName(gen)), w.frame, 0o644); err != nil {
				t.Fatal(err)
			}
			log = append(log, w)
		}
		// The model: newest intact base, then deltas while intact and its.
		var want [][]byte
		wantGen := uint64(0)
		for b := len(log); b >= 1 && want == nil; b-- {
			if !log[b-1].base || !log[b-1].intact {
				continue
			}
			want, wantGen = [][]byte{log[b-1].frame}, uint64(b)
			for g := b + 1; g <= len(log) && !log[g-1].base && log[g-1].intact && log[g-1].of == uint64(b); g++ {
				want, wantGen = append(want, log[g-1].frame), uint64(g)
			}
		}
		gen, frame, err := s.Load()
		switch {
		case want == nil:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("seed %d: no intact base, but Load returned gen %d, err %v", seed, gen, err)
			}
		case err != nil:
			t.Fatalf("seed %d: Load: %v (want gen %d)", seed, err, wantGen)
		case gen != wantGen || !bytes.Equal(frame, chainOf(want...)):
			t.Fatalf("seed %d: Load = gen %d, want the %d-frame chain ending at %d", seed, gen, len(want), wantGen)
		}
	}
}

// TestMemStoreChainTornTail is the exhaustive torn-tail check at small
// scope, on both backends: a chain of one base and three deltas cut at
// every byte offset — the frame the cut falls in saved as the prefix that
// reached the medium, the frames after it never — and then every byte of
// the last delta flipped at rest. Load yields exactly the longest intact
// prefix of the chain, every time.
func TestMemStoreChainTornTail(t *testing.T) {
	chain := [][]byte{frameFor(1), deltaFor(2, 1), deltaFor(3, 1), deltaFor(4, 1)}
	total := 0
	for _, f := range chain {
		total += len(f)
	}
	check := func(t *testing.T, what string, s Store, intact int) {
		t.Helper()
		gen, frame, err := s.Load()
		if intact == 0 {
			if err == nil {
				t.Fatalf("%s: nothing intact, but Load returned gen %d", what, gen)
			}
			return
		}
		if err != nil || gen != uint64(intact) || !bytes.Equal(frame, chainOf(chain[:intact]...)) {
			t.Fatalf("%s: Load = gen %d, err %v; want the first %d frames of the chain", what, gen, err, intact)
		}
	}
	for cut := 0; cut <= total; cut++ {
		stores(t, func(t *testing.T, s Store, plant func(uint64, []byte)) {
			intact, left := 0, cut
			for i, f := range chain {
				if left >= len(f) {
					plant(uint64(i+1), f)
					intact, left = i+1, left-len(f)
					continue
				}
				if left > 0 {
					plant(uint64(i+1), f[:left])
				}
				break
			}
			check(t, fmt.Sprintf("cut at byte %d of %d", cut, total), s, intact)
		})
	}
	last := chain[3]
	for at := range last {
		for _, bit := range []byte{0x01, 0x80} {
			stores(t, func(t *testing.T, s Store, plant func(uint64, []byte)) {
				for i, f := range chain[:3] {
					plant(uint64(i+1), f)
				}
				mut := append([]byte(nil), last...)
				mut[at] ^= bit
				plant(4, mut)
				check(t, fmt.Sprintf("bit 0x%02x of byte %d of the last delta flipped", bit, at), s, 3)
			})
		}
	}
}

// TestFileStoreStaleDeltaIgnored pins the fallback's aftermath, on both
// backends: a chain lost its middle, the restarted monitor saved a new
// base right after the last frame it could restore, and the old chain's
// tail still lies beside it under a higher generation. Load returns the
// new base alone — the leftover names another base — and once a delta of
// the new chain overwrites it, that one.
func TestFileStoreStaleDeltaIgnored(t *testing.T) {
	stores(t, func(t *testing.T, s Store, plant func(uint64, []byte)) {
		for _, f := range []struct {
			gen   uint64
			frame []byte
		}{{1, frameFor(1)}, {2, deltaFor(2, 1)}, {3, deltaFor(3, 1)}} {
			if err := s.Save(f.gen, f.frame); err != nil {
				t.Fatal(err)
			}
		}
		plant(2, deltaFor(2, 1)[:9]) // generation 2 rots
		if gen, frame, err := s.Load(); err != nil || gen != 1 || !bytes.Equal(frame, frameFor(1)) {
			t.Fatalf("Load past a rotten delta = gen %d, err %v; want the base alone", gen, err)
		}
		if err := s.Save(2, frameFor(2)); err != nil { // the restarted monitor's first frame
			t.Fatal(err)
		}
		if gen, frame, err := s.Load(); err != nil || gen != 2 || !bytes.Equal(frame, frameFor(2)) {
			t.Fatalf("Load beside a stale delta = gen %d, err %v; want the new base alone", gen, err)
		}
		if err := s.Save(3, deltaFor(3, 2)); err != nil {
			t.Fatal(err)
		}
		if gen, frame, err := s.Load(); err != nil || gen != 3 || !bytes.Equal(frame, chainOf(frameFor(2), deltaFor(3, 2))) {
			t.Fatalf("Load = gen %d, err %v; want the new base and its delta", gen, err)
		}
	})
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
