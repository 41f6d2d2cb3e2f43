package wire

import (
	"bytes"
	"errors"
	"hash/crc32"
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
		Gen: 42, Engine: EngineSeq, Seed: 99, Distinct: true,
		Machine: mach.Append(nil),
		Nodes:   sampleBank().Append(nil),
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cases := []Checkpoint{
		sampleCheckpoint(),
		{Gen: 0, Engine: EngineNet, Seed: 7, Machine: []byte{TypeMachineState}, Last: []int64{5, -5, 0, 1 << 40}},
		{Gen: 1 << 60, Engine: EngineShard, Machine: []byte{0xff, 0x00}, Last: []int64{}},
		{Engine: EngineConc, Machine: []byte{}, Nodes: []byte{1, 2, 3}},
	}
	for i, c := range cases {
		frame := c.Append(nil)
		var got Checkpoint
		if err := got.Decode(frame); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.Gen != c.Gen || got.Engine != c.Engine || got.Seed != c.Seed || got.Distinct != c.Distinct {
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
	engine := reseal(func(c *Checkpoint) []byte {
		frame := c.Append(nil)
		// Rebuild by hand with a bogus engine byte: tag, gen, engine.
		body := []byte{TypeCheckpoint}
		body = AppendUvarint(body, c.Gen)
		body = AppendUvarint(body, 9) // unknown fingerprint
		body = append(body, frame[1+SizeUvarint(c.Gen)+1:len(frame)-crcLen]...)
		return sealRaw(body)
	})
	var c Checkpoint
	if err := c.Decode(engine); !errors.Is(err, ErrMalformed) {
		t.Fatalf("unknown engine: err = %v, want ErrMalformed", err)
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
}

// sealRaw appends a valid CRC-32 trailer to an arbitrary body, for
// building deliberately malformed-but-checksummed test frames.
func sealRaw(body []byte) []byte {
	sum := crc32.ChecksumIEEE(body)
	return append(append([]byte(nil), body...), byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
}

// FuzzCheckpointDecode fuzzes the checkpoint envelope decoder: no input
// may panic, and any accepted input must re-encode to the identical frame
// (canonical codec), which also pins that truncation, garbage, and bit
// flips can never round-trip.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(sampleCheckpoint().Append(nil))
	f.Add(Checkpoint{Gen: 3, Engine: EngineNet, Seed: 1, Last: []int64{9, -9}}.Append(nil))
	f.Add(Checkpoint{Engine: EngineShard, Machine: []byte{0x13}}.Append(nil))
	f.Add([]byte{TypeCheckpoint})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Checkpoint
		if err := c.Decode(data); err == nil {
			roundTrip(t, data, c.Append(nil))
		}
	})
}
