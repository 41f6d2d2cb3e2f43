package wire

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func sampleCheckpoint() Checkpoint {
	mach := MachineState{
		N: 8, K: 2, EpsNum: 52428, Step: 17, Init: true,
		Steps: 17, ViolationSteps: 4, HandlerCalls: 3, Resets: 2, TopChanges: 2,
		TPlus: 41, TMinus: 17, CurLo: 20, CurHi: 38,
		Top:    []int{1, 5},
		Counts: [MachineLedgerCells]int64{3, 0, 2, 5, 0, 1, 9, 0, 4},
		Bytes:  [MachineLedgerCells]int64{12, 0, 8, 20, 0, 4, 36, 0, 16},
	}
	return Checkpoint{
		Gen: 42, Engine: EngineSeq, Seed: 99,
		Machine: mach.Append(nil),
		Nodes:   sampleBank().Append(nil),
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cases := []Checkpoint{
		sampleCheckpoint(),
		{Gen: 0, Engine: EngineNet, Seed: 7, Machine: []byte{TypeMachineState}, Last: []int64{5, -5, 0, 1 << 40}},
		{Gen: 1 << 60, Engine: EngineShard, Machine: []byte{0xff, 0x00}, Last: []int64{}},
		{Engine: EngineSeq, Machine: []byte{}, Nodes: []byte{1, 2, 3}},
	}
	for i, c := range cases {
		frame := c.Append(nil)
		var got Checkpoint
		if err := got.Decode(frame); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.Gen != c.Gen || got.Engine != c.Engine || got.Seed != c.Seed {
			t.Fatalf("case %d: header fields differ: got %+v want %+v", i, got, c)
		}
		if !bytes.Equal(got.Machine, c.Machine) || !bytes.Equal(got.Nodes, c.Nodes) {
			t.Fatalf("case %d: embedded frames differ", i)
		}
		if len(got.Last) != len(c.Last) {
			t.Fatalf("case %d: last mirror length %d, want %d", i, len(got.Last), len(c.Last))
		}
		for j := range got.Last {
			if got.Last[j] != c.Last[j] {
				t.Fatalf("case %d: last[%d] = %d, want %d", i, j, got.Last[j], c.Last[j])
			}
		}
		if re := got.Append(nil); !bytes.Equal(re, frame) {
			t.Fatalf("case %d: re-encode mismatch:\n in %x\nout %x", i, frame, re)
		}
	}
}

// TestCheckpointBitFlips verifies that flipping any single bit of a sealed
// frame makes the decoder reject it — the corruption model a durable
// store has to survive. Flips in the CRC trailer or the body both count.
func TestCheckpointBitFlips(t *testing.T) {
	frame := sampleCheckpoint().Append(nil)
	for i := range frame {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), frame...)
			mut[i] ^= 1 << bit
			var c Checkpoint
			if err := c.Decode(mut); err == nil {
				t.Fatalf("flip byte %d bit %d: decode accepted a corrupted frame", i, bit)
			}
		}
	}
}

// TestCheckpointTruncation verifies every prefix of a valid frame is
// rejected, and that a clean CRC failure is reported as ErrChecksum.
func TestCheckpointTruncation(t *testing.T) {
	frame := sampleCheckpoint().Append(nil)
	for n := 0; n < len(frame); n++ {
		var c Checkpoint
		if err := c.Decode(frame[:n]); err == nil {
			t.Fatalf("decode accepted a %d/%d-byte prefix", n, len(frame))
		}
	}
	// A frame long enough to carry a trailer but with mangled contents
	// must fail the checksum, not mis-parse.
	mut := append([]byte(nil), frame...)
	mut[len(mut)/2] ^= 0x40
	var c Checkpoint
	if err := c.Decode(mut); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt body: err = %v, want ErrChecksum", err)
	}
}

func TestCheckpointMalformed(t *testing.T) {
	// reseal recomputes the CRC trailer so the mutation reaches the field
	// decoders instead of being caught by the checksum.
	reseal := func(mutate func(c *Checkpoint) []byte) []byte {
		c := sampleCheckpoint()
		return mutate(&c)
	}
	var c Checkpoint
	// An unknown fingerprint, and the retired concurrent engine's.
	for _, kind := range []uint64{9, uint64(EngineConc)} {
		engine := reseal(func(c *Checkpoint) []byte {
			frame := c.Append(nil)
			// Rebuild by hand with another engine byte: tag, gen, engine.
			body := []byte{TypeCheckpoint}
			body = AppendUvarint(body, c.Gen)
			body = AppendUvarint(body, kind)
			body = append(body, frame[1+SizeUvarint(c.Gen)+1:len(frame)-crcLen]...)
			return sealRaw(body)
		})
		if err := c.Decode(engine); !errors.Is(err, ErrMalformed) {
			t.Fatalf("engine %d: err = %v, want ErrMalformed", kind, err)
		}
	}
	if err := c.Decode(sealRaw([]byte{TypeAssign, 0})); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("wrong tag: err = %v, want ErrUnknownType", err)
	}
	// Machine-blob length pointing past the end of the frame.
	huge := []byte{TypeCheckpoint}
	huge = AppendUvarint(huge, 1)    // gen
	huge = AppendUvarint(huge, 0)    // engine
	huge = AppendUvarint(huge, 0)    // seed
	huge = append(huge, 0)           // flags
	huge = AppendUvarint(huge, 1000) // machine length far beyond the frame
	if err := c.Decode(sealRaw(huge)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized machine blob: err = %v, want ErrMalformed", err)
	}
	// The flags byte 0x01 of a monitor whose keys were raw values: refused,
	// not read as this build's keys.
	s := sampleCheckpoint()
	frame := s.Append(nil)
	body := append([]byte(nil), frame[:len(frame)-crcLen]...)
	body[1+SizeUvarint(s.Gen)+SizeUvarint(uint64(s.Engine))+SizeUvarint(s.Seed)] = 0x01
	if err := c.Decode(sealRaw(body)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("raw-value keyed envelope: err = %v, want ErrMalformed", err)
	}
}

// sealRaw appends a valid CRC-32 trailer to an arbitrary body, for
// building deliberately malformed-but-checksummed test frames.
func sealRaw(body []byte) []byte {
	sum := crc32.ChecksumIEEE(body)
	return append(append([]byte(nil), body...), byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
}

func sampleDelta() CheckpointDelta {
	c := sampleCheckpoint()
	return CheckpointDelta{
		Gen: 45, Base: 42, Engine: c.Engine, Seed: c.Seed,
		Machine: c.Machine,
		IDs:     []int{0, 3, 4, 7},
		Vals:    []int64{5, -5, 0, 1 << 40},
	}
}

// TestCheckpointDeltaRoundTrip holds the delta variant to what the base
// envelope is held to: decode gives back what was encoded, the encoding is
// the only one, the generation pair can be read without the rest, and the
// in-place writer — from a node set, or from every node — produces the
// frame Append does.
func TestCheckpointDeltaRoundTrip(t *testing.T) {
	cases := []CheckpointDelta{
		sampleDelta(),
		{Gen: 2, Base: 1, Engine: EngineNet, Seed: 7, Machine: []byte{TypeMachineState}},
		{Gen: 1 << 60, Base: 1<<60 - 1, Engine: EngineShard, Machine: []byte{}, IDs: []int{1 << 30}, Vals: []int64{-1 << 62}},
	}
	var got CheckpointDelta
	for i, d := range cases {
		frame := d.Append(nil)
		if err := got.Decode(frame); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.Gen != d.Gen || got.Base != d.Base || got.Engine != d.Engine || got.Seed != d.Seed ||
			!bytes.Equal(got.Machine, d.Machine) || !slices.Equal(got.IDs, d.IDs) || !slices.Equal(got.Vals, d.Vals) {
			t.Fatalf("case %d: decoded %+v, want %+v", i, got, d)
		}
		if re := got.Append(nil); !bytes.Equal(re, frame) {
			t.Fatalf("case %d: re-encode mismatch:\n in %x\nout %x", i, frame, re)
		}
		if gen, base, err := PeekCheckpointDelta(frame); err != nil || gen != d.Gen || base != d.Base {
			t.Fatalf("case %d: peeked generation %d on base %d, %v", i, gen, base, err)
		}
		var c Checkpoint
		if err := c.Decode(frame); !errors.Is(err, ErrUnknownType) {
			t.Fatalf("case %d: the base decoder took a delta: %v", i, err)
		}
	}
	d := sampleDelta()
	const n = 70 // two words of node set
	vals := make([]int64, n)
	set := make([]uint64, 2)
	d.IDs, d.Vals = []int{0, 63, 64, 69}, []int64{9, -9, 1 << 33, 0}
	for j, id := range d.IDs {
		vals[id] = d.Vals[j]
		set[id>>6] |= 1 << (id & 63)
	}
	value := func(id int) int64 { return vals[id] }
	w := BeginCheckpointDelta([]byte("pre"), d.Gen, d.Base, d.Engine, d.Seed)
	w.Section(d.Machine)
	if got := w.Values(n, set, value); !bytes.Equal(got, d.Append([]byte("pre"))) {
		t.Fatalf("in-place delta of a node set differs from Append:\n in %x\nout %x", got, d.Append([]byte("pre")))
	}
	d.IDs, d.Vals = d.IDs[:0], vals
	for id := range vals {
		d.IDs = append(d.IDs, id)
	}
	w = BeginCheckpointDelta(nil, d.Gen, d.Base, d.Engine, d.Seed)
	w.Buf = append(w.Buf, d.Machine...)
	w.EndSection()
	if got := w.Values(n, nil, value); !bytes.Equal(got, d.Append(nil)) {
		t.Fatal("in-place delta of every node differs from Append")
	}
}

// TestCheckpointDeltaCorruption: every single-bit flip and every proper
// prefix of a sealed delta is rejected by the decoder and by the peek a
// store places it with.
func TestCheckpointDeltaCorruption(t *testing.T) {
	frame := sampleDelta().Append(nil)
	var d CheckpointDelta
	reject := func(what string, p []byte) {
		t.Helper()
		if err := d.Decode(p); err == nil {
			t.Fatalf("%s: decode accepted a corrupted delta", what)
		}
		if _, _, err := PeekCheckpointDelta(p); err == nil {
			t.Fatalf("%s: peek accepted a corrupted delta", what)
		}
	}
	for i := range frame {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), frame...)
			mut[i] ^= 1 << bit
			reject(fmt.Sprintf("flip byte %d bit %d", i, bit), mut)
		}
	}
	for n := 0; n < len(frame); n++ {
		reject(fmt.Sprintf("%d/%d-byte prefix", n, len(frame)), frame[:n])
	}
	// Sealed, but more values claimed than the frame can hold.
	body := frame[:len(frame)-crcLen]
	cut := sealRaw(body[:len(body)-3])
	if err := d.Decode(cut); err == nil || errors.Is(err, ErrChecksum) {
		t.Fatalf("a resealed delta short of its values: err = %v, want a framing error", err)
	}
}

// TestCheckpointChainRoundTrip: the container carries its frames opaquely
// and in order, a frame outside a container splits to itself, and the
// framing errors are errors.
func TestCheckpointChainRoundTrip(t *testing.T) {
	base, d1, d2 := sampleCheckpoint().Append(nil), sampleDelta().Append(nil), []byte{0xff}
	packed := CheckpointChain{Frames: [][]byte{base, d1, d2}}.Append(nil)
	var c CheckpointChain
	if err := c.Decode(packed); err != nil {
		t.Fatal(err)
	}
	if len(c.Frames) != 3 || !bytes.Equal(c.Frames[0], base) || !bytes.Equal(c.Frames[1], d1) || !bytes.Equal(c.Frames[2], d2) {
		t.Fatalf("decoded %d frames, or not the ones packed", len(c.Frames))
	}
	if re := c.Append(nil); !bytes.Equal(re, packed) {
		t.Fatal("re-encode mismatch")
	}
	if frames, err := SplitCheckpointChain(packed); err != nil || len(frames) != 3 {
		t.Fatalf("split a container into %d frames, %v", len(frames), err)
	}
	if frames, err := SplitCheckpointChain(base); err != nil || len(frames) != 1 || !bytes.Equal(frames[0], base) {
		t.Fatalf("a lone frame split into %d frames, %v", len(frames), err)
	}
	if frames, err := SplitCheckpointChain([]byte{TypeCheckpointChain}); err != nil || len(frames) != 0 {
		t.Fatalf("an empty container split into %d frames, %v", len(frames), err)
	}
	for name, bad := range map[string][]byte{
		"frame longer than the container": append([]byte{TypeCheckpointChain}, 9, 1, 2),
		"empty frame":                     append([]byte{TypeCheckpointChain}, 0),
		"length cut short":                append([]byte{TypeCheckpointChain}, 0x80),
	} {
		if _, err := SplitCheckpointChain(bad); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	for n := 1; n < len(packed); n++ {
		if err := c.Decode(packed[:n]); err == nil {
			// A cut between frames is a shorter container, and a valid one:
			// the frames in it are whole.
			if re := c.Append(nil); !bytes.Equal(re, packed[:n]) {
				t.Fatalf("%d-byte prefix decoded to something else", n)
			}
		}
	}
}

// FuzzCheckpointDecode fuzzes the decoders of everything a checkpoint
// store hands over — the base envelope with its bank section, its delta
// variant and the chain container: no input may panic, and any accepted
// input must re-encode to the identical frame (canonical codec), which also
// pins that truncation, garbage, and bit flips can never round-trip. Each
// input is also tried with its last four bytes replaced by the checksum of
// the rest, so that mutations reach the field decoders behind the seal.
// The seeds hold what monitors write — topk's recorded fixtures among them:
// an exact and an ε base, and a chain of a base and deltas, whole and
// frame by frame — and what they must refuse: topk's fixtures of the two
// dialects before it (v3_*; v4_*, the bank frame of keys) and, in
// testdata/fuzz, envelopes whose bank sections are of a retired dialect
// (v1-envelope, v2-envelope-generator-column, envelope-no-generator-column;
// TestBankRefusesRetiredDialects) or hold a value no key can carry
// (envelope-value-out-of-domain, which the codec accepts and a restore
// refuses; topk's TestRestoreRefusesAValueOutsideTheDomain).
func FuzzCheckpointDecode(f *testing.F) {
	for _, fixture := range []string{"seq.ckpt", "seq_eps.ckpt", "seq_chain.ckpt", "v3_seq.ckpt", "v3_conc.ckpt", "v3_seq_chain.ckpt", "v4_seq.ckpt", "v4_seq_chain.ckpt"} {
		frame, err := os.ReadFile(filepath.Join("..", "..", "topk", "testdata", fixture))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		if fixture == "seq_chain.ckpt" {
			frames, err := SplitCheckpointChain(frame)
			if err != nil || len(frames) < 2 {
				f.Fatalf("%s: %d frames, %v", fixture, len(frames), err)
			}
			for _, fr := range frames {
				f.Add(fr)
			}
		}
	}
	f.Add(sampleCheckpoint().Append(nil))
	f.Add(Checkpoint{Gen: 3, Engine: EngineNet, Seed: 1, Last: []int64{9, -9}}.Append(nil))
	f.Add(Checkpoint{Engine: EngineShard, Machine: []byte{0x13}}.Append(nil))
	f.Add([]byte{TypeCheckpoint})
	f.Add(sampleDelta().Append(nil))
	f.Add(CheckpointDelta{Gen: 2, Base: 1, Engine: EngineShard, Machine: []byte{0x13}}.Append(nil))
	f.Add([]byte{TypeCheckpointDelta})
	f.Add(CheckpointChain{Frames: [][]byte{sampleCheckpoint().Append(nil), sampleDelta().Append(nil)}}.Append(nil))
	f.Add([]byte{TypeCheckpointChain, 1, TypeCheckpoint})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) > crcLen {
			inputs = append(inputs, sealRaw(data[:len(data)-crcLen]))
		}
		for _, in := range inputs {
			var c Checkpoint
			if err := c.Decode(in); err == nil {
				roundTrip(t, in, c.Append(nil))
				var b BankState
				if b.Decode(c.Nodes) == nil {
					roundTrip(t, c.Nodes, b.Append(nil))
				}
			}
			var d CheckpointDelta
			if err := d.Decode(in); err == nil {
				roundTrip(t, in, d.Append(nil))
				if gen, base, err := PeekCheckpointDelta(in); err != nil || gen != d.Gen || base != d.Base {
					t.Fatalf("peek disagrees with decode: generation %d on %d, %v", gen, base, err)
				}
			}
			var ch CheckpointChain
			if err := ch.Decode(in); err == nil {
				roundTrip(t, in, ch.Append(nil))
			}
		}
	})
}
