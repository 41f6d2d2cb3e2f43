package wire

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// Checkpoint envelope. A durable coordinator checkpoint is one
// self-describing frame: a generation number, the fingerprint of the
// engine that took it, the embedded MachineState (and, for the local
// engines, bank) snapshot frames, and the networked engines'
// last-value mirror — everything a dead coordinator process needs to be
// rebuilt by topk.Restore. Unlike the live protocol messages, a
// checkpoint's threat model includes the storage medium itself: the whole
// frame is sealed with a trailing CRC-32 (IEEE), and decoders verify the
// checksum before reading a single field, so a torn write or a flipped
// bit surfaces as ErrChecksum — never as a silently wrong restore.

// ErrChecksum reports a checkpoint frame whose trailing CRC-32 does not
// match its contents: the frame was torn mid-write or corrupted at rest.
// It is distinct from ErrTruncated/ErrMalformed so stores can tell
// storage corruption from framing bugs.
var ErrChecksum = errors.New("wire: checkpoint checksum mismatch")

// Engine fingerprints carried by Checkpoint.Engine. A checkpoint restores
// only into the engine kind that wrote it: the local engines persist a
// full Nodes bank, the networked engines persist the value mirror they
// replay through the Assign handshake instead.
const (
	EngineSeq   uint8 = 0 // sequential engine (internal/core)
	EngineConc  uint8 = 1 // sharded concurrent engine (internal/runtime)
	EngineNet   uint8 = 2 // networked engine (internal/netrun)
	EngineShard uint8 = 3 // multi-coordinator engine (internal/shardrun)
)

// Checkpoint is the wire form of one durable coordinator checkpoint.
// Machine always holds an embedded MachineState frame. Nodes holds the
// bank frame of the local engines' node bank — v2 (TypeBankState) from any
// monitor that writes today, v1 (TypeNodesState) in older stores; the
// envelope is the same — and is empty for the networked engines, whose
// node state lives in the peers. Last holds the
// networked engines' per-node last-value mirror (empty for the local
// engines, which restore exact node state instead of replaying).
type Checkpoint struct {
	Gen      uint64
	Engine   uint8
	Seed     uint64
	Distinct bool

	Machine []byte
	Nodes   []byte
	Last    []int64
}

// crcLen is the length of the little-endian CRC-32 trailer.
const crcLen = 4

// Append encodes c after dst, sealing the frame with its CRC-32 trailer.
// Engine must be a known fingerprint; Append panics otherwise.
func (c Checkpoint) Append(dst []byte) []byte {
	w := BeginCheckpoint(dst, c.Gen, c.Engine, c.Seed, c.Distinct)
	w.Section(c.Machine)
	w.Section(c.Nodes)
	return w.Seal(c.Last)
}

// CheckpointWriter assembles a sealed envelope in place, so that an engine
// encodes its frames straight into the buffer a store will be handed:
// BeginCheckpoint, the machine section, the nodes section, Seal. A section is either
// handed over whole (Section) or appended to Buf by the caller and closed
// with EndSection, which is how a frame whose length is only known once it
// is written gets its length prefix.
type CheckpointWriter struct {
	Buf      []byte // the envelope so far; append a section's bytes here
	start    int    // where the envelope begins in Buf
	mark     int    // where the open section begins
	sections int
}

// BeginCheckpoint appends the envelope's fixed fields (Checkpoint's Gen,
// Engine, Seed and Distinct) after dst. engine must be a known
// fingerprint; BeginCheckpoint panics otherwise.
func BeginCheckpoint(dst []byte, gen uint64, engine uint8, seed uint64, distinct bool) CheckpointWriter {
	if engine > EngineShard {
		panic("wire: unknown checkpoint engine fingerprint")
	}
	start := len(dst)
	dst = append(dst, TypeCheckpoint)
	dst = AppendUvarint(dst, gen)
	dst = AppendUvarint(dst, uint64(engine))
	dst = AppendUvarint(dst, seed)
	var flags byte
	if distinct {
		flags |= flagDistinct
	}
	dst = append(dst, flags)
	return CheckpointWriter{Buf: dst, start: start, mark: len(dst)}
}

// Section appends p as the next section.
func (w *CheckpointWriter) Section(p []byte) {
	w.Buf = AppendUvarint(w.Buf, uint64(len(p)))
	w.Buf = append(w.Buf, p...)
	w.mark = len(w.Buf)
	w.sections++
}

// EndSection closes the section the caller appended to Buf: the bytes
// move up by the width of their length prefix, which takes their place.
func (w *CheckpointWriter) EndSection() {
	n := len(w.Buf) - w.mark
	var prefix [maxUvarintLen]byte
	k := len(AppendUvarint(prefix[:0], uint64(n)))
	w.Buf = append(w.Buf, prefix[:k]...)
	copy(w.Buf[w.mark+k:], w.Buf[w.mark:w.mark+n])
	copy(w.Buf[w.mark:], prefix[:k])
	w.mark = len(w.Buf)
	w.sections++
}

// Seal appends the value mirror and the CRC-32 trailer and returns the
// extended slice. It panics unless exactly the machine and nodes sections
// were written.
func (w *CheckpointWriter) Seal(last []int64) []byte {
	if w.sections != 2 || w.mark != len(w.Buf) {
		panic("wire: checkpoint envelope needs its machine and nodes sections, closed")
	}
	dst := AppendUvarint(w.Buf, uint64(len(last)))
	for _, v := range last {
		dst = AppendVarint(dst, v)
	}
	sum := crc32.ChecksumIEEE(dst[w.start:])
	return append(dst, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
}

// Decode decodes a full Checkpoint frame into c, reusing Last's capacity.
// The CRC-32 trailer is verified over the whole frame before any field is
// read; a mismatch yields ErrChecksum. The embedded Machine/Nodes frames
// are carried opaquely — their own decoders validate them on restore —
// and alias p: they are valid only as long as p is.
func (c *Checkpoint) Decode(p []byte) error {
	if len(p) < 1+crcLen {
		return ErrTruncated
	}
	body, tail := p[:len(p)-crcLen], p[len(p)-crcLen:]
	want := uint32(tail[0]) | uint32(tail[1])<<8 | uint32(tail[2])<<16 | uint32(tail[3])<<24
	if sum := crc32.ChecksumIEEE(body); sum != want {
		return fmt.Errorf("%w: computed 0x%08x, frame says 0x%08x", ErrChecksum, sum, want)
	}
	p, err := header(body, TypeCheckpoint)
	if err != nil {
		return err
	}
	if c.Gen, p, err = uvarintField(p); err != nil {
		return err
	}
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	if u > uint64(EngineShard) {
		return fmt.Errorf("%w: unknown checkpoint engine fingerprint %d", ErrMalformed, u)
	}
	c.Engine = uint8(u)
	if c.Seed, p, err = uvarintField(p); err != nil {
		return err
	}
	if len(p) == 0 {
		return ErrTruncated
	}
	if p[0]&^flagDistinct != 0 {
		return fmt.Errorf("%w: unknown checkpoint flags 0x%02x", ErrMalformed, p[0])
	}
	c.Distinct = p[0]&flagDistinct != 0
	p = p[1:]
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	if u > uint64(len(p)) {
		return fmt.Errorf("%w: %d machine bytes in %d-byte frame", ErrMalformed, u, len(p))
	}
	c.Machine = p[:u:u]
	p = p[u:]
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	if u > uint64(len(p)) {
		return fmt.Errorf("%w: %d nodes bytes in %d-byte frame", ErrMalformed, u, len(p))
	}
	c.Nodes = p[:u:u]
	p = p[u:]
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	if u > uint64(len(p)) { // every value takes >= 1 byte
		return fmt.Errorf("%w: %d last values in %d bytes", ErrMalformed, u, len(p))
	}
	c.Last = c.Last[:0]
	for i := uint64(0); i < u; i++ {
		var v int64
		if v, p, err = varintField(p); err != nil {
			return err
		}
		c.Last = append(c.Last, v)
	}
	return fin(p)
}
