package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// File is a crash-durable Store backed by one file per generation in a
// directory. Save writes a temporary file, fsyncs it, renames it to its
// generation-numbered name and fsyncs the directory, so a crash at any
// instant leaves either the complete new frame or the previous state —
// never a half-frame under a final name (on a filesystem that honors the
// rename contract; Load's validation catches the ones that don't). The
// package's retention applies: the two newest bases and every frame after
// the older one, so a frame corrupted in place falls back instead of
// losing the run.
//
// The store keeps the directory's index in memory — which generations are
// filed, and which of them it knows to be bases — so a Save, a delta every
// few steps, lists nothing: the directory is listed when the store is
// opened, by every Load (the restart path answers for what the medium
// holds, not for what this process remembers writing) and after a failed
// write. A listing gives names, not kinds: a frame is known to be a base
// once the store has written it or a Load has read it, and retention counts
// the bases it knows — which is every base that matters, since the first
// frame a restored monitor saves is a base and the chain it was restored
// from has just been read.
type File struct {
	mu     sync.Mutex
	dir    string
	idx    []entry  // the stored generations, ascending
	strays []string // temp files the last scan saw; the next Save removes them
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
	f := &File{dir: dir}
	if err := f.scan(); err != nil {
		return nil, err
	}
	return f, nil
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
// directory fsync, then best-effort removal of what retention drops and of
// stray temp files.
func (f *File) Save(gen uint64, frame []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	final := filepath.Join(f.dir, frameName(gen))
	if err := writeFrame(final, frame); err != nil {
		os.Remove(final + tmpSuffix)
		_ = f.scan() // whatever the failure left, the index is the directory's again
		return err
	}
	if d, err := os.Open(f.dir); err == nil {
		_ = d.Sync() // directory entry durability; best effort on filesystems without it
		d.Close()
	}
	f.idx = put(f.idx, entry{gen: gen, base: isBase(frame)})
	f.prune()
	return nil
}

// writeFrame makes frame the content of the file final, atomically: a
// temporary file beside it, fsynced, renamed into place.
func writeFrame(final string, frame []byte) error {
	tmp := final + tmpSuffix
	w, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		w.Close()
		return err
	}
	if err := w.Sync(); err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, final)
}

// prune removes the generations retention drops and every stray temp file
// the last scan saw: one is left behind by each crash between a Save's
// create and its rename, and nothing would ever read or replace it. Save
// calls prune under f.mu after its own rename, so no temp file in the
// directory belongs to a write still under way. Best effort: pruning
// failures never fail a Save.
func (f *File) prune() {
	for _, name := range f.strays {
		_ = os.Remove(filepath.Join(f.dir, name))
	}
	f.strays = f.strays[:0]
	drop := retainFrom(f.idx)
	for _, e := range f.idx[:drop] {
		_ = os.Remove(filepath.Join(f.dir, frameName(e.gen)))
	}
	f.idx = append(f.idx[:0], f.idx[drop:]...)
}

// scan rebuilds the index from the directory's listing: the stored
// generations, none of them known to be a base, and the names of the temp
// files of frames that never reached their final name.
func (f *File) scan() error {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return err
	}
	f.idx, f.strays = f.idx[:0], f.strays[:0]
	for _, e := range entries {
		name := e.Name()
		if gen, ok := parseFrameName(name); ok {
			f.idx = put(f.idx, entry{gen: gen})
		} else if _, ok := parseFrameName(strings.TrimSuffix(name, tmpSuffix)); ok {
			f.strays = append(f.strays, name)
		}
	}
	return nil
}

// Load returns the newest intact chain the directory holds (see the
// package comment), skipping torn, corrupt, or misfiled frames. With
// frames present but no valid base among them it reports the newest
// base's validation error (wrapping ErrCorrupt); with no frames at all,
// ErrNoCheckpoint.
func (f *File) Load() (uint64, []byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.scan(); err != nil {
		return 0, nil, err
	}
	gen, frames, err := loadChain(f.idx, func(i int) ([]byte, error) {
		frame, err := os.ReadFile(filepath.Join(f.dir, frameName(f.idx[i].gen)))
		f.idx[i].base = isBase(frame)
		return frame, err
	})
	if err != nil {
		return 0, nil, err
	}
	return gen, pack(frames), nil
}
