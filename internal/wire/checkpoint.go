package wire

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
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
//
// A checkpoint is one such base frame plus a chain of delta frames
// (CheckpointDelta) in the same envelope and under the same seal: a delta
// names its base's generation and carries the machine frame and the
// values of the nodes observed since the frame before it, which is all a
// span of steps that charged no message can have moved. A store's Load
// hands a base and its deltas over in one container (CheckpointChain).

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
// bank frame (TypeBankState) of the local engines' node bank and is empty
// for the networked engines, whose node state lives in the peers. Last
// holds the networked engines' per-node last-value mirror (empty for the
// local engines, which restore exact node state instead of replaying).
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
	prev     int // last id listed in a delta's value list
}

// BeginCheckpoint appends the envelope's fixed fields (Checkpoint's Gen,
// Engine, Seed and Distinct) after dst. engine must be a known
// fingerprint; BeginCheckpoint panics otherwise.
func BeginCheckpoint(dst []byte, gen uint64, engine uint8, seed uint64, distinct bool) CheckpointWriter {
	start := len(dst)
	dst = AppendUvarint(append(dst, TypeCheckpoint), gen)
	dst = fingerprint(dst, engine, seed, distinct)
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
	w.Buf = AppendUvarint(w.Buf, uint64(len(last)))
	for _, v := range last {
		w.Buf = AppendVarint(w.Buf, v)
	}
	return w.seal()
}

// seal appends the CRC-32 trailer over everything since the envelope began.
func (w *CheckpointWriter) seal() []byte {
	sum := crc32.ChecksumIEEE(w.Buf[w.start:])
	return append(w.Buf, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
}

// unseal verifies a sealed envelope's CRC-32 trailer — before any field is
// read — and returns the bytes it covers.
func unseal(p []byte) ([]byte, error) {
	if len(p) < 1+crcLen {
		return nil, ErrTruncated
	}
	body, tail := p[:len(p)-crcLen], p[len(p)-crcLen:]
	want := uint32(tail[0]) | uint32(tail[1])<<8 | uint32(tail[2])<<16 | uint32(tail[3])<<24
	if sum := crc32.ChecksumIEEE(body); sum != want {
		return nil, fmt.Errorf("%w: computed 0x%08x, frame says 0x%08x", ErrChecksum, sum, want)
	}
	return body, nil
}

// fingerprint appends the fields every envelope variant carries after its
// generation numbers: the engine kind, the seed and the tie-break mode.
func fingerprint(dst []byte, engine uint8, seed uint64, distinct bool) []byte {
	if engine > EngineShard {
		panic("wire: unknown checkpoint engine fingerprint")
	}
	dst = AppendUvarint(dst, uint64(engine))
	dst = AppendUvarint(dst, seed)
	var flags byte
	if distinct {
		flags |= flagDistinct
	}
	return append(dst, flags)
}

// readFingerprint decodes what fingerprint wrote.
func readFingerprint(p []byte) (engine uint8, seed uint64, distinct bool, rest []byte, err error) {
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return 0, 0, false, nil, err
	}
	if u > uint64(EngineShard) {
		return 0, 0, false, nil, fmt.Errorf("%w: unknown checkpoint engine fingerprint %d", ErrMalformed, u)
	}
	if seed, p, err = uvarintField(p); err != nil {
		return 0, 0, false, nil, err
	}
	if len(p) == 0 {
		return 0, 0, false, nil, ErrTruncated
	}
	if p[0]&^flagDistinct != 0 {
		return 0, 0, false, nil, fmt.Errorf("%w: unknown checkpoint flags 0x%02x", ErrMalformed, p[0])
	}
	return uint8(u), seed, p[0]&flagDistinct != 0, p[1:], nil
}

// readSection decodes one length-prefixed section; it aliases p.
func readSection(p []byte, what string) (section, rest []byte, err error) {
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return nil, nil, err
	}
	if u > uint64(len(p)) {
		return nil, nil, fmt.Errorf("%w: %d %s bytes in %d-byte frame", ErrMalformed, u, what, len(p))
	}
	return p[:u:u], p[u:], nil
}

// Decode decodes a full Checkpoint frame into c, reusing Last's capacity.
// The CRC-32 trailer is verified over the whole frame before any field is
// read; a mismatch yields ErrChecksum. The embedded Machine/Nodes frames
// are carried opaquely — their own decoders validate them on restore —
// and alias p: they are valid only as long as p is.
func (c *Checkpoint) Decode(p []byte) error {
	body, err := unseal(p)
	if err != nil {
		return err
	}
	if p, err = header(body, TypeCheckpoint); err != nil {
		return err
	}
	if c.Gen, p, err = uvarintField(p); err != nil {
		return err
	}
	if c.Engine, c.Seed, c.Distinct, p, err = readFingerprint(p); err != nil {
		return err
	}
	if c.Machine, p, err = readSection(p, "machine"); err != nil {
		return err
	}
	if c.Nodes, p, err = readSection(p, "nodes"); err != nil {
		return err
	}
	var u uint64
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

// CheckpointDelta is the wire form of one delta frame of a checkpoint
// chain: the state of a monitor whose last Base-generation frame is a full
// Checkpoint and which has charged no message since the frame before this
// one. Such a span moves nothing but the observed values and the step
// counters, so the delta carries the fingerprint (held against the
// base's on restore), the machine frame, and the value — not the key: keys
// re-derive — of every node observed since the previous frame, IDs
// strictly increasing. Restoring is the base, then every delta's values
// in generation order, under the last delta's machine frame.
//
//	TypeCheckpointDelta
//	Gen, Base, Engine, Seed   uvarint each
//	flags                     1 byte (flagDistinct)
//	machine                   uvarint length + MachineState frame
//	count                     uvarint
//	{ gap, value }*count      id = previous id + 1 + gap (from -1), value varint
//	CRC-32                    4 bytes little-endian, over all of the above
type CheckpointDelta struct {
	Gen, Base uint64
	Engine    uint8
	Seed      uint64
	Distinct  bool

	Machine []byte
	IDs     []int
	Vals    []int64
}

// BeginCheckpointDelta appends a delta envelope's fixed fields after dst.
// The machine section follows (Section or EndSection), then Values or
// ValueCount and Value, which seal the frame.
func BeginCheckpointDelta(dst []byte, gen, base uint64, engine uint8, seed uint64, distinct bool) CheckpointWriter {
	start := len(dst)
	dst = AppendUvarint(append(dst, TypeCheckpointDelta), gen)
	dst = AppendUvarint(dst, base)
	dst = fingerprint(dst, engine, seed, distinct)
	return CheckpointWriter{Buf: dst, start: start, mark: len(dst)}
}

// Values appends a delta's value list straight from an engine's arrays and
// seals the frame: value(id) for every id of set — a bitset over [0, n),
// bit id&63 of word id>>6; nil is every node — in increasing id order. It
// panics unless exactly the machine section was written.
func (w *CheckpointWriter) Values(n int, set []uint64, value func(id int) int64) []byte {
	if set == nil {
		w.valueCount(n)
		for id := 0; id < n; id++ {
			w.value(id, value(id))
		}
		return w.seal()
	}
	count := 0
	for _, word := range set {
		count += bits.OnesCount64(word)
	}
	w.valueCount(count)
	for i, word := range set {
		for ; word != 0; word &= word - 1 {
			id := i<<6 + bits.TrailingZeros64(word)
			w.value(id, value(id))
		}
	}
	return w.seal()
}

func (w *CheckpointWriter) valueCount(count int) {
	if w.sections != 1 || w.mark != len(w.Buf) {
		panic("wire: checkpoint delta needs its machine section, closed")
	}
	w.Buf, w.prev = AppendUvarint(w.Buf, uint64(count)), -1
}

func (w *CheckpointWriter) value(id int, v int64) {
	if id <= w.prev {
		panic("wire: checkpoint delta ids must be strictly increasing")
	}
	w.Buf = AppendVarint(AppendUvarint(w.Buf, uint64(id-w.prev-1)), v)
	w.prev = id
}

// Append encodes d after dst, sealed. IDs must be strictly increasing and
// non-negative, one value each; Append panics otherwise.
func (d CheckpointDelta) Append(dst []byte) []byte {
	if len(d.IDs) != len(d.Vals) {
		panic("wire: checkpoint delta needs one value per id")
	}
	w := BeginCheckpointDelta(dst, d.Gen, d.Base, d.Engine, d.Seed, d.Distinct)
	w.Section(d.Machine)
	w.valueCount(len(d.IDs))
	for j, id := range d.IDs {
		w.value(id, d.Vals[j])
	}
	return w.seal()
}

// Decode decodes a full delta frame into d, reusing the capacity of IDs
// and Vals. As with Checkpoint.Decode the seal is verified first and
// Machine aliases p.
func (d *CheckpointDelta) Decode(p []byte) error {
	body, err := unseal(p)
	if err != nil {
		return err
	}
	if p, err = header(body, TypeCheckpointDelta); err != nil {
		return err
	}
	if d.Gen, p, err = uvarintField(p); err != nil {
		return err
	}
	if d.Base, p, err = uvarintField(p); err != nil {
		return err
	}
	if d.Engine, d.Seed, d.Distinct, p, err = readFingerprint(p); err != nil {
		return err
	}
	if d.Machine, p, err = readSection(p, "machine"); err != nil {
		return err
	}
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return err
	}
	if u > uint64(len(p))/2 { // every entry takes >= 2 bytes
		return fmt.Errorf("%w: %d delta values in %d bytes", ErrMalformed, u, len(p))
	}
	d.IDs, d.Vals = d.IDs[:0], d.Vals[:0]
	prev := -1
	for i := uint64(0); i < u; i++ {
		var gap uint64
		if gap, p, err = uvarintField(p); err != nil {
			return err
		}
		id := prev + 1 + int(gap)
		if id <= prev { // gap overflowed int
			return fmt.Errorf("%w: delta node id overflow", ErrMalformed)
		}
		var v int64
		if v, p, err = varintField(p); err != nil {
			return err
		}
		d.IDs, d.Vals = append(d.IDs, id), append(d.Vals, v)
		prev = id
	}
	return fin(p)
}

// PeekCheckpointDelta verifies a delta frame's seal and decodes its two
// generation numbers and nothing else: what a store needs to place the
// frame in a chain, at the price of the checksum.
func PeekCheckpointDelta(p []byte) (gen, base uint64, err error) {
	body, err := unseal(p)
	if err != nil {
		return 0, 0, err
	}
	if p, err = header(body, TypeCheckpointDelta); err != nil {
		return 0, 0, err
	}
	if gen, p, err = uvarintField(p); err != nil {
		return 0, 0, err
	}
	base, _, err = uvarintField(p)
	return gen, base, err
}

// CheckpointChain is the container a chain-aware store's Load returns when
// deltas follow the newest intact base: the sealed base frame, then the
// sealed deltas in generation order, each behind its length. The frames
// keep their own seals, so the container adds none; a lone base frame is
// handed over as it is, outside any container (SplitCheckpointChain reads
// both).
//
//	TypeCheckpointChain
//	{ length uvarint, frame }*   until the container ends
type CheckpointChain struct {
	Frames [][]byte
}

// Append encodes c after dst. An empty frame has no encoding; Append
// panics on one.
func (c CheckpointChain) Append(dst []byte) []byte {
	dst = append(dst, TypeCheckpointChain)
	for _, f := range c.Frames {
		if len(f) == 0 {
			panic("wire: empty checkpoint chain frame")
		}
		dst = append(AppendUvarint(dst, uint64(len(f))), f...)
	}
	return dst
}

// Decode decodes a container into c, reusing Frames' capacity. The frames
// are carried opaquely — their own decoders verify their seals — and
// alias p.
func (c *CheckpointChain) Decode(p []byte) error {
	p, err := header(p, TypeCheckpointChain)
	if err != nil {
		return err
	}
	c.Frames = c.Frames[:0]
	for len(p) > 0 {
		var l uint64
		if l, p, err = uvarintField(p); err != nil {
			return err
		}
		if l == 0 {
			return fmt.Errorf("%w: empty checkpoint chain frame", ErrMalformed)
		}
		if l > uint64(len(p)) {
			return fmt.Errorf("%w: chain frame of %d bytes in %d", ErrMalformed, l, len(p))
		}
		c.Frames = append(c.Frames, p[:l:l])
		p = p[l:]
	}
	return nil
}

// SplitCheckpointChain returns the frames of what a checkpoint store's
// Load handed over: a container's, or the one frame that is not in a
// container. The frames alias p.
func SplitCheckpointChain(p []byte) ([][]byte, error) {
	if len(p) == 0 || p[0] != TypeCheckpointChain {
		return [][]byte{p}, nil
	}
	var c CheckpointChain
	if err := c.Decode(p); err != nil {
		return nil, err
	}
	return c.Frames, nil
}
