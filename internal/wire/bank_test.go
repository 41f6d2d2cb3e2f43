package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// sampleBank is a four-node bank of a [2, 6) range.
func sampleBank() BankState {
	return BankState{
		BankHeader: BankHeader{N: 8, Lo: 2, Hi: 6, EpsNum: 52428},
		Vals:       []int64{7, -3, 1 << 40, 6},
	}
}

// plainBank is a bank of n nodes over the whole range.
func plainBank(n int) BankState {
	s := BankState{BankHeader: BankHeader{N: n, Lo: 0, Hi: n}, Vals: make([]int64, n)}
	for i := 0; i < n; i++ {
		s.Vals[i] = int64(i)*1000 - 500
	}
	return s
}

func sameBank(a, b BankState) bool {
	return a.BankHeader == b.BankHeader && slices.Equal(a.Vals, b.Vals)
}

// TestBankStateRoundTrip pins decode(encode(s)) == s and the re-encode
// identity over the shapes a bank takes — a range, one node, many, the
// extreme values, no nodes — and a decode into a BankState that already
// holds another bank.
func TestBankStateRoundTrip(t *testing.T) {
	extreme := plainBank(3)
	extreme.Vals[0], extreme.Vals[2] = math.MinInt64, math.MaxInt64
	empty := BankState{BankHeader: BankHeader{N: 8, Lo: 3, Hi: 3}}
	var got BankState
	for i, s := range []BankState{sampleBank(), plainBank(1), plainBank(300), extreme, empty} {
		frame := s.Append(nil)
		if err := got.Decode(frame); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !sameBank(got, s) {
			t.Fatalf("case %d: decoded %+v, want %+v", i, got, s)
		}
		if re := got.Append(nil); !bytes.Equal(re, frame) {
			t.Fatalf("case %d: re-encode mismatch:\n in %x\nout %x", i, frame, re)
		}
		if pre := []byte{1, 2, 3}; !bytes.Equal(s.Append(pre)[3:], frame) {
			t.Fatalf("case %d: Append after a prefix wrote a different frame", i)
		}
	}
}

// flagAt returns where a bank frame's header flag byte sits.
func flagAt(frame []byte) int {
	at := 1
	for i := 0; i < 4; i++ { // Lo, Hi, N, EpsNum
		_, n, _ := Uvarint(frame[at:])
		at += n
	}
	return at
}

// withGens returns frame, which this build wrote, as a monitor whose nodes
// carried generators wrote it: none of the flags, no bounds, and eight
// bytes of generator state a node after the column — a retired dialect.
func withGens(t testing.TB, frame []byte, states ...uint64) []byte {
	t.Helper()
	old := bytes.Clone(frame)
	old[flagAt(old)] = 0
	for _, state := range states {
		old = binary.LittleEndian.AppendUint64(old, state)
	}
	return old
}

// previousDialect returns frame, which this build wrote, as the monitors
// before it wrote it: flag byte 0x02, the installed bounds lo and hi after
// the header, and after the keys the sections given — the member section
// (gap, flag)*, the violation section and the order section, each ended by
// a zero byte.
func previousDialect(frame []byte, lo, hi int64, sections ...byte) []byte {
	at := flagAt(frame)
	old := append(bytes.Clone(frame[:at]), flagNoGens)
	old = AppendVarint(AppendVarint(old, lo), hi)
	return append(append(old, frame[at+1:]...), sections...)
}

// TestBankFrameSize pins what the frame is for: a bank costs its values
// and a constant, whoever is a member and whatever is installed.
func TestBankFrameSize(t *testing.T) {
	const n = 4096
	s := plainBank(n)
	valueBytes := 0
	for i := range s.Vals {
		s.Vals[i] = int64(i)<<20 + 12345
		valueBytes += SizeVarint(s.Vals[i])
	}
	hdr := len(s.BankHeader.Append(nil))
	if got, want := len(s.Append(nil)), hdr+valueBytes; got != want {
		t.Fatalf("frame of %d nodes: %d bytes, want %d", n, got, want)
	}
	if hdr != 4+2*SizeUvarint(uint64(n)) { // tag, Lo, Hi, N, EpsNum, flags
		t.Fatalf("a header of %d bytes", hdr)
	}
}

// TestBankRejectsNonCanonical pins that exactly one byte string encodes a
// bank: a value spelled long, a value column of another length than the
// header's range, an undefined flag bit and a range outside [0, N) are
// malformed — never normalised.
func TestBankRejectsNonCanonical(t *testing.T) {
	frame := sampleBank().Append(nil)
	var b BankState
	for _, tc := range []struct {
		name  string
		frame []byte
		want  error
	}{
		{"bytes after the values", append(bytes.Clone(frame), 0), ErrTrailingBytes},
		{"a value short", frame[:len(frame)-1], ErrTruncated},
		{"a non-canonical value varint", append(append(bytes.Clone(frame[:flagAt(frame)+1]), 0x8e, 0x00), frame[flagAt(frame)+2:]...), ErrNonCanonical}, // value 7, two bytes long
	} {
		if err := b.Decode(tc.frame); !errors.Is(err, tc.want) {
			t.Errorf("%s: decode returned %v, want %v", tc.name, err, tc.want)
		}
	}
	unknown := bytes.Clone(frame)
	unknown[flagAt(unknown)] |= 0x10
	if err := b.Decode(unknown); !errors.Is(err, ErrMalformed) {
		t.Errorf("an undefined header flag bit: decode returned %v, want ErrMalformed", err)
	}
	huge := BankHeader{N: 1 << 40, Lo: 0, Hi: 1 << 40}.Append(nil)
	if err := b.Decode(append(huge, 0, 0, 0)); !errors.Is(err, ErrMalformed) {
		t.Errorf("2^40 nodes in three bytes: decode returned %v, want ErrMalformed", err)
	}
	for _, h := range [][3]uint64{{3, 2, 4}, {0, 5, 4}} { // Lo > Hi, Hi > N
		p := []byte{TypeBankState}
		for _, u := range h {
			p = AppendUvarint(p, u)
		}
		p = append(AppendUvarint(p, 0), flagNoGens|flagColumnOnly|flagValues, 0, 0, 0, 0, 0)
		if err := b.Decode(p); !errors.Is(err, ErrMalformed) {
			t.Errorf("range [%d, %d) of %d: decode returned %v, want ErrMalformed", h[0], h[1], h[2], err)
		}
	}
}

// TestBankRefusesRetiredDialects pins that the bank frame reader reads the
// one dialect this build writes and refuses every older one with a typed
// error instead of upgrading it: the v1 frame (tag 0x14, nine fields a
// node) is ErrUnknownType; a generator column, the header bit 0x01 of a
// bank whose keys were raw values, the dialect of PRs 27–48 — the
// installed bounds after the header and the member, violation and order
// sections after the keys, without the flagColumnOnly bit — whatever those
// sections hold, and the key column of the dialect after it, without the
// flagValues bit, are ErrMalformed. The legacy seeds of the fuzz corpora
// are held to the same: their bank frames are refused.
func TestBankRefusesRetiredDialects(t *testing.T) {
	// A v1 frame of a [2, 4) bank of 8 nodes: Lo, Hi, N, EpsNum, flags, and
	// a node's key, filter, order filter, flags, violation step, generator
	// state and increment, twice.
	v1 := []byte{0x14, 2, 4, 8, 0, 0}
	for range 2 {
		for _, v := range []int64{7, 5, math.MaxInt64, math.MinInt64, math.MaxInt64} {
			v1 = AppendVarint(v1, v)
		}
		v1 = append(v1, 1)
		v1 = AppendUvarint(AppendUvarint(AppendVarint(v1, -1), 0xdeadbeef), 3)
	}
	frame := sampleBank().Append(nil)
	rawKeyed := bytes.Clone(frame)
	rawKeyed[flagAt(rawKeyed)] |= 0x01 // beside the three bits this build sets: 0x0f
	keyed := bytes.Clone(frame)
	keyed[flagAt(keyed)] &^= flagValues // the keys dialect's flags, 0x06, over this column
	type refusal struct {
		name  string
		frame []byte
		want  error
	}
	cases := []refusal{
		{"a v1 frame", v1, ErrUnknownType},
		{"raw-value keys", rawKeyed, ErrMalformed},
		{"a key column", keyed, ErrMalformed},
		{"a generator column", withGens(t, frame, 0xdeadbeef, 1, 0, 1<<64-1), ErrMalformed},
		{"a generator column on an empty range", withGens(t, BankState{BankHeader: BankHeader{N: 8, Lo: 3, Hi: 3}}.Append(nil)), ErrMalformed},
		{"the previous dialect, empty sections", previousDialect(frame, math.MinInt64, math.MaxInt64, 0, 0, 0), ErrMalformed},
		{"the previous dialect, members", previousDialect(frame, 5, 9, 1, 1, 2, 1, 0, 0, 0), ErrMalformed},
		{"the previous dialect, an order filter", previousDialect(frame, 5, 9, 1, 1, 0, 0, 1, 4, 6, 0), ErrMalformed},
		{"the previous dialect's layout under flagColumnOnly", append(previousDialect(frame, 5, 9)[:flagAt(frame)], frame[flagAt(frame):]...), ErrMalformed},
	}
	cases[len(cases)-1].frame[flagAt(frame)] = flagColumnOnly
	for _, seed := range []refusal{ // the legacy seeds of the fuzz corpora
		{"FuzzCheckpointDecode/v1-envelope", nil, ErrUnknownType},
		{"FuzzCheckpointDecode/v2-envelope-generator-column", nil, ErrMalformed},
		{"FuzzCheckpointDecode/envelope-no-generator-column", nil, ErrMalformed},
		{"FuzzDecode/v1-envelope", nil, ErrUnknownType},
		{"FuzzDecode/v1-nodes-state", nil, ErrUnknownType},
	} {
		seed.frame = corpusSeed(t, filepath.Join("testdata", "fuzz", seed.name))
		if seed.frame[0] == TypeCheckpoint {
			var c Checkpoint
			if err := c.Decode(seed.frame); err != nil {
				t.Fatalf("%s: the envelope does not decode: %v", seed.name, err)
			}
			seed.frame = c.Nodes
		}
		cases = append(cases, seed)
	}
	for _, tc := range cases {
		var b BankState
		if err := b.Decode(tc.frame); !errors.Is(err, tc.want) {
			t.Errorf("%s: decode returned %v, want %v", tc.name, err, tc.want)
		}
	}
}

// corpusSeed reads the one []byte value of a fuzz corpus file.
func corpusSeed(t *testing.T, file string) []byte {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	_, val, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
	val, ok := strings.CutPrefix(val, "[]byte(")
	if q, err := strconv.Unquote(strings.TrimSuffix(val, ")")); ok && err == nil && len(q) > 0 {
		return []byte(q)
	}
	t.Fatalf("%s: not a corpus file of one []byte", file)
	return nil
}

// TestBankTruncationAndBitFlips: no prefix of a frame decodes, and a
// flipped bit either fails or decodes to a bank that re-encodes to exactly
// the flipped frame — the decoder never repairs.
func TestBankTruncationAndBitFlips(t *testing.T) {
	frame := sampleBank().Append(nil)
	var b BankState
	for n := 0; n < len(frame); n++ {
		if err := b.Decode(frame[:n]); err == nil {
			t.Fatalf("decode accepted a %d/%d-byte prefix", n, len(frame))
		}
	}
	for i := range frame {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), frame...)
			mut[i] ^= 1 << bit
			if err := b.Decode(mut); err == nil {
				roundTrip(t, mut, b.Append(nil))
			}
		}
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	f()
}

// TestBankWriterRefusesAShapeItCannotHold pins that a caller cannot write
// a frame the reader would refuse: a value column of another length than
// the header's range, or a range outside [0, N).
func TestBankWriterRefusesAShapeItCannotHold(t *testing.T) {
	h := BankHeader{N: 4, Lo: 0, Hi: 2}
	for name, f := range map[string]func(){
		"too few values":             func() { BankState{BankHeader: h, Vals: []int64{1}}.Append(nil) },
		"too many values":            func() { BankState{BankHeader: h, Vals: []int64{1, 2, 3}}.Append(nil) },
		"bank range outside [0, N)":  func() { BankState{BankHeader: BankHeader{N: 4, Lo: 3, Hi: 5}, Vals: []int64{1, 2}}.Append(nil) },
		"a column short of its size": func() { w := BeginBank(nil, h, 3); w.Put(1); w.Put(2); w.End() },
		"a value short":              func() { w := BeginBank(nil, h, 1); w.Put(1); w.End() },
	} {
		mustPanic(t, name, f)
	}
}

// TestCheckpointWriterMatchesAppend pins the in-place envelope against the
// field-by-field one: sections closed after the fact, at the lengths where
// the prefix changes width, give the bytes Append gives, after whatever
// already sits in the buffer.
func TestCheckpointWriterMatchesAppend(t *testing.T) {
	for _, sizes := range [][2]int{{0, 0}, {1, 127}, {127, 128}, {128, 16383}, {16384, 5}, {300, 1 << 15}} {
		c := Checkpoint{Gen: 9, Engine: EngineShard, Seed: 77,
			Machine: bytes.Repeat([]byte{0xa5}, sizes[0]), Nodes: bytes.Repeat([]byte{0x5a}, sizes[1]), Last: []int64{3, -3}}
		want := c.Append([]byte("pre"))
		w := BeginCheckpoint([]byte("pre"), c.Gen, c.Engine, c.Seed)
		w.Buf = append(w.Buf, c.Machine...)
		w.EndSection()
		w.Buf = append(w.Buf, c.Nodes...)
		w.EndSection()
		if got := w.Seal(len(c.Last), func(id int) int64 { return c.Last[id] }); !bytes.Equal(got, want) {
			t.Fatalf("sections of %v bytes: in-place envelope differs from Append", sizes)
		}
		var back Checkpoint
		if err := back.Decode(want[3:]); err != nil || !bytes.Equal(back.Nodes, c.Nodes) {
			t.Fatalf("sections of %v bytes: decode: %v", sizes, err)
		}
	}
	for name, f := range map[string]func(){
		"one section": func() { w := BeginCheckpoint(nil, 0, 0, 0); w.Section(nil); w.Seal(0, nil) },
		"three sections": func() {
			w := BeginCheckpoint(nil, 0, 0, 0)
			w.Section(nil)
			w.Section(nil)
			w.EndSection()
			w.Seal(0, nil)
		},
		"an unclosed section": func() {
			w := BeginCheckpoint(nil, 0, 0, 0)
			w.Section(nil)
			w.Section(nil)
			w.Buf = append(w.Buf, 1)
			w.Seal(0, nil)
		},
		"an unknown fingerprint": func() { BeginCheckpoint(nil, 0, 9, 0) },
	} {
		mustPanic(t, name, f)
	}
}
