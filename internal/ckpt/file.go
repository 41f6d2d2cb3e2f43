package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// File is a crash-durable Store backed by one file per generation in a
// directory. Save writes a temporary file, fsyncs it, renames it to its
// generation-numbered name and fsyncs the directory, so a crash at any
// instant leaves either the complete new frame or the previous state —
// never a half-frame under a final name (on a filesystem that honors the
// rename contract; Load's validation catches the ones that don't). Older
// generations are retained up to the package retention bound, so a frame
// corrupted in place falls back instead of losing the run.
type File struct {
	mu  sync.Mutex
	dir string
}

// framePrefix/frameSuffix shape the per-generation file names:
// ckpt-<generation as 16 hex digits>.bin.
const (
	framePrefix = "ckpt-"
	frameSuffix = ".bin"
	genDigits   = 16
	tmpSuffix   = ".tmp" // after a frame name: the frame while it is written
)

// NewFile opens (creating if needed) a directory-backed store.
func NewFile(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &File{dir: dir}, nil
}

// Dir returns the backing directory.
func (f *File) Dir() string { return f.dir }

// frameName returns the final file name of generation gen.
func frameName(gen uint64) string {
	return framePrefix + fmt.Sprintf("%0*x", genDigits, gen) + frameSuffix
}

// parseFrameName extracts the generation from a frame file name.
func parseFrameName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, framePrefix) || !strings.HasSuffix(name, frameSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, framePrefix), frameSuffix)
	if len(hex) != genDigits {
		return 0, false
	}
	gen, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// Save writes frame under generation gen: temp file, fsync, rename,
// directory fsync, then best-effort pruning of generations beyond the
// retention bound.
func (f *File) Save(gen uint64, frame []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	final := filepath.Join(f.dir, frameName(gen))
	tmp := final + tmpSuffix
	w, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		w.Close()
		os.Remove(tmp)
		return err
	}
	if err := w.Sync(); err != nil {
		w.Close()
		os.Remove(tmp)
		return err
	}
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(f.dir); err == nil {
		_ = d.Sync() // directory entry durability; best effort on filesystems without it
		d.Close()
	}
	f.prune()
	return nil
}

// prune removes the oldest generations beyond the retention bound and
// every stray temp file: one is left behind by each crash between a Save's
// create and its rename, and nothing would ever read or replace it. Save
// calls prune under f.mu after its own rename, so no temp file in the
// directory belongs to a write still under way. Best effort: pruning
// failures never fail a Save.
func (f *File) prune() {
	gens, strays, _ := f.scan()
	for _, name := range strays {
		_ = os.Remove(filepath.Join(f.dir, name))
	}
	if len(gens) <= keepGenerations {
		return
	}
	for _, gen := range gens[:len(gens)-keepGenerations] {
		_ = os.Remove(filepath.Join(f.dir, frameName(gen)))
	}
}

// generations lists the stored generations in ascending order.
func (f *File) generations() ([]uint64, error) {
	gens, _, err := f.scan()
	return gens, err
}

// scan lists the stored generations in ascending order and the names of
// the temp files of frames that never reached their final name.
func (f *File) scan() (gens []uint64, strays []string, err error) {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if gen, ok := parseFrameName(name); ok {
			gens = append(gens, gen)
		} else if _, ok := parseFrameName(strings.TrimSuffix(name, tmpSuffix)); ok {
			strays = append(strays, name)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, strays, nil
}

// Load returns the newest stored frame that validates, skipping torn,
// corrupt, or misfiled frames. With frames present but none valid it
// reports the newest frame's validation error (wrapping ErrCorrupt);
// with no frames at all, ErrNoCheckpoint.
func (f *File) Load() (uint64, []byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	gens, err := f.generations()
	if err != nil {
		return 0, nil, err
	}
	if len(gens) == 0 {
		return 0, nil, ErrNoCheckpoint
	}
	var firstErr error
	for i := len(gens) - 1; i >= 0; i-- {
		frame, err := os.ReadFile(filepath.Join(f.dir, frameName(gens[i])))
		if err == nil {
			err = validate(gens[i], frame)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return gens[i], frame, nil
	}
	return 0, nil, firstErr
}
