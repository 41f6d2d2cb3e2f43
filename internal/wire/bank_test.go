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

// sampleBank is a four-node bank with an entry in every sparse section.
func sampleBank() BankState {
	return BankState{
		BankHeader: BankHeader{N: 8, Lo: 2, Hi: 6, EpsNum: 52428, BoundLo: 5, BoundHi: 9},
		Keys:       []int64{7, -3, 1 << 40, 6},
		InTop:      []bool{true, false, true, false},
		OrdLo:      []int64{math.MinInt64, math.MinInt64, -1 << 40, math.MinInt64},
		OrdHi:      []int64{math.MaxInt64, 12, 1 << 40, math.MaxInt64},
	}
}

// plainBank is a bank of n nodes with nothing in its sparse sections.
func plainBank(n int) BankState {
	s := BankState{
		BankHeader: BankHeader{N: n, Lo: 0, Hi: n, BoundLo: math.MinInt64, BoundHi: math.MaxInt64},
		Keys:       make([]int64, n), InTop: make([]bool, n),
		OrdLo: make([]int64, n), OrdHi: make([]int64, n),
	}
	for i := 0; i < n; i++ {
		s.Keys[i] = int64(i)*1000 - 500
		s.OrdLo[i], s.OrdHi[i] = math.MinInt64, math.MaxInt64
	}
	return s
}

func sameBank(a, b BankState) bool {
	return a.BankHeader == b.BankHeader && slices.Equal(a.Keys, b.Keys) && slices.Equal(a.InTop, b.InTop) &&
		slices.Equal(a.OrdLo, b.OrdLo) && slices.Equal(a.OrdHi, b.OrdHi)
}

// TestBankStateRoundTrip pins decode(encode(s)) == s and the re-encode
// identity over the shapes the sections can take: all empty, all
// populated, the last index listed, a bank of no nodes, and a decode into
// a BankState that already holds another bank.
func TestBankStateRoundTrip(t *testing.T) {
	last := plainBank(5)
	last.InTop[4], last.OrdHi[4] = true, 3
	first := plainBank(5)
	first.InTop[0], first.OrdLo[0] = true, math.MinInt64+1
	empty := BankState{BankHeader: BankHeader{N: 8, Lo: 3, Hi: 3}}
	var got BankState
	for i, s := range []BankState{sampleBank(), plainBank(1), plainBank(300), last, first, empty} {
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

// gensColumn returns where the generator column of a bank frame would
// sit: the end of its key column. The frame's header flag byte is at
// flagAt.
func gensColumn(t testing.TB, frame []byte) (flagAt, at int) {
	t.Helper()
	h, rest, err := DecodeBankHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	flagAt = 1
	for i := 0; i < 4; i++ { // Lo, Hi, N, EpsNum
		_, n, _ := Uvarint(frame[flagAt:])
		flagAt += n
	}
	for i := h.Lo; i < h.Hi; i++ {
		_, n, err := Varint(rest)
		if err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	return flagAt, len(frame) - len(rest)
}

// withGens returns frame, which this build wrote, as a monitor whose nodes
// carried generators wrote it: no flagNoGens, and eight bytes of generator
// state a node after the keys — a retired dialect.
func withGens(t testing.TB, frame []byte, states ...uint64) []byte {
	t.Helper()
	flagAt, at := gensColumn(t, frame)
	old := append([]byte(nil), frame[:at]...)
	old[flagAt] &^= flagNoGens
	for _, state := range states {
		old = binary.LittleEndian.AppendUint64(old, state)
	}
	return append(old, frame[at:]...)
}

// TestBankFrameSize pins what the frame is for: a bank with k members and
// nothing else out of the ordinary costs its keys and a constant.
func TestBankFrameSize(t *testing.T) {
	const n, k = 4096, 16
	s := plainBank(n)
	keyBytes := 0
	for i := range s.Keys {
		s.Keys[i] = int64(i)<<20 + 12345
		keyBytes += SizeVarint(s.Keys[i])
		if i < k {
			s.InTop[i*7] = true
		}
	}
	hdr := len(s.BankHeader.Append(nil))
	if got, want := len(s.Append(nil)), hdr+keyBytes+2*k+3; got != want {
		t.Fatalf("frame of %d nodes, %d members: %d bytes, want %d", n, k, got, want)
	}
}

// bankParts forges a frame from raw parts: the header and key column of a
// two-node bank, then whatever section bytes the case supplies.
func bankParts(sections ...byte) []byte {
	p := BankHeader{N: 4, Lo: 1, Hi: 3, BoundLo: 10, BoundHi: 10}.Append(nil)
	p = AppendVarint(p, 20)
	p = AppendVarint(p, 5)
	return append(p, sections...)
}

// TestBankRejectsNonCanonical pins that exactly one byte string encodes a
// bank: every way of spelling a default, listing an index twice or out of
// the bank, or padding the frame is malformed — never normalised. (A
// sparse index cannot go backwards: a gap is unsigned, and 0 ends the
// section.)
func TestBankRejectsNonCanonical(t *testing.T) {
	minI, maxI := AppendVarint(nil, math.MinInt64), AppendVarint(nil, math.MaxInt64)
	fullOrd := append(append([]byte{0, 0, 1}, minI...), maxI...)
	var b BankState
	if err := b.Decode(bankParts(1, FlagNodeInTop, 0, 0, 2, 3, 5, 0)); err != nil {
		t.Fatalf("well-formed forged frame rejected: %v", err)
	}
	if !b.InTop[0] || b.InTop[1] || b.OrdLo[1] != -2 || b.OrdHi[1] != -3 || b.Keys[0] != 20 || b.Keys[1] != 5 {
		t.Fatalf("forged frame decoded as %+v", b)
	}
	for _, tc := range []struct {
		name     string
		sections []byte
		want     error
	}{
		{"zero flag byte listed", []byte{1, 0, 0, 0, 0}, ErrMalformed},
		{"unknown flag bit listed", []byte{1, 0x08, 0, 0, 0}, ErrMalformed},
		{"full order filter listed", append(fullOrd, 0), ErrMalformed},
		{"index past the bank", []byte{3, FlagNodeInTop, 0, 0, 0}, ErrMalformed},
		{"second index past the bank", []byte{2, FlagNodeInTop, 1, FlagNodeInTop, 0, 0, 0}, ErrMalformed},
		{"gap that overflows int", append(append([]byte{}, AppendUvarint(nil, math.MaxUint64)...), FlagNodeInTop, 0, 0, 0), ErrMalformed},
		{"non-canonical gap varint", []byte{0x81, 0x00, FlagNodeInTop, 0, 0, 0}, ErrNonCanonical},
		{"flag byte missing", []byte{1}, ErrTruncated},
		{"violation section missing", []byte{0}, ErrTruncated},
		{"order section missing", []byte{0, 0}, ErrTruncated},
		{"bytes after the last section", []byte{0, 0, 0, 0}, ErrTrailingBytes},
	} {
		if err := b.Decode(bankParts(tc.sections...)); !errors.Is(err, tc.want) {
			t.Errorf("%s: decode returned %v, want %v", tc.name, err, tc.want)
		}
	}
	unknown := bankParts(0, 0, 0)
	flagAt, _ := gensColumn(t, unknown)
	unknown[flagAt] |= 0x04
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
		p = append(AppendUvarint(p, 0), flagNoGens, 0, 0, 0, 0, 0)
		if err := b.Decode(p); !errors.Is(err, ErrMalformed) {
			t.Errorf("range [%d, %d) of %d: decode returned %v, want ErrMalformed", h[0], h[1], h[2], err)
		}
	}
}

// TestBankRefusesRetiredDialects pins that the bank frame reader reads the
// one dialect this build writes and refuses every older one with a typed
// error instead of upgrading it: the v1 frame (tag 0x14, nine fields a
// node) is ErrUnknownType; a generator column, the header bit 0x01 of a
// bank whose keys were raw values, an entry in the violation section and a
// flag bit beside membership (the WasTop and Extracted bits banks once
// persisted) are ErrMalformed. The legacy seeds of the fuzz
// corpora are held to the same: their bank frames are refused.
func TestBankRefusesRetiredDialects(t *testing.T) {
	// A v1 frame of a [2, 4) bank of 8 nodes: Lo, Hi, N, EpsNum, flags, and
	// a node's key, filter, order filter, flags, violation step, generator
	// state and increment, twice.
	v1 := []byte{0x14, 2, 4, 8, 0, 0}
	for range 2 {
		for _, v := range []int64{7, 5, math.MaxInt64, math.MinInt64, math.MaxInt64} {
			v1 = AppendVarint(v1, v)
		}
		v1 = append(v1, FlagNodeInTop)
		v1 = AppendUvarint(AppendUvarint(AppendVarint(v1, -1), 0xdeadbeef), 3)
	}
	rawKeyed := sampleBank().Append(nil)
	flagAt, _ := gensColumn(t, rawKeyed)
	rawKeyed[flagAt] |= 0x01 // beside flagNoGens: 0x03
	type refusal struct {
		name  string
		frame []byte
		want  error
	}
	cases := []refusal{
		{"a v1 frame", v1, ErrUnknownType},
		{"raw-value keys", rawKeyed, ErrMalformed},
		{"a generator column", withGens(t, sampleBank().Append(nil), 0xdeadbeef, 1, 0, 1<<64-1), ErrMalformed},
		{"a generator column on an empty range", withGens(t, BankState{BankHeader: BankHeader{N: 8, Lo: 3, Hi: 3}}.Append(nil)), ErrMalformed},
		{"a violation stamp", bankParts(0, 2, 32, 0, 0), ErrMalformed},
		{"a violation stamp beside a member", bankParts(1, FlagNodeInTop, 0, 1, 1, 0, 0), ErrMalformed},
		{"the WasTop bit", bankParts(1, 0x02, 0, 0, 0), ErrMalformed},
		{"the Extracted bit beside membership", bankParts(2, FlagNodeInTop|0x04, 0, 0, 0), ErrMalformed},
	}
	for _, seed := range []refusal{ // the legacy seeds of the fuzz corpora
		{"FuzzCheckpointDecode/v1-envelope", nil, ErrUnknownType},
		{"FuzzCheckpointDecode/v2-envelope-generator-column", nil, ErrMalformed},
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

// TestBankWriterEnforcesFrameOrder pins that a caller cannot write a frame
// the reader would refuse, or one that means something else: columns out
// of order, a default or unknown value, an index that does not increase.
func TestBankWriterEnforcesFrameOrder(t *testing.T) {
	h := BankHeader{N: 4, Lo: 0, Hi: 2}
	keys := []int64{1, 2}
	dense := func() *BankWriter {
		w := BeginBank(nil, h)
		BankKeys(&w, keys)
		return &w
	}
	for name, f := range map[string]func(){
		"section before keys":       func() { w := BeginBank(nil, h); w.Member(0) },
		"end before keys":           func() { w := BeginBank(nil, h); w.End() },
		"keys twice":                func() { w := BeginBank(nil, h); BankKeys(&w, keys); BankKeys(&w, keys) },
		"too few keys":              func() { w := BeginBank(nil, h); BankKeys(&w, keys[:1]) },
		"member after order":        func() { w := dense(); w.Ord(0, 1, 2); w.Member(1) },
		"index repeated":            func() { w := dense(); w.Member(1); w.Member(1) },
		"index past the bank":       func() { dense().Member(2) },
		"negative index":            func() { dense().Ord(-1, 1, 2) },
		"full order filter":         func() { dense().Ord(0, math.MinInt64, math.MaxInt64) },
		"anything after End":        func() { w := dense(); w.End(); w.Ord(0, 1, 2) },
		"bank range outside [0, N)": func() { BeginBank(nil, BankHeader{N: 4, Lo: 3, Hi: 5}) },
	} {
		mustPanic(t, name, f)
	}
	w := dense()
	w.Ord(1, 7, 8)
	var b BankState
	if err := b.Decode(w.End()); err != nil || b.OrdLo[1] != 7 || b.InTop[0] {
		t.Fatalf("frame with a skipped section: %+v, %v", b, err)
	}
}

// TestBankReaderEnforcesFrameOrder pins the reader's half of the contract:
// a column taken out of order is the caller's bug, not a decode error.
func TestBankReaderEnforcesFrameOrder(t *testing.T) {
	frame := sampleBank().Append(nil)
	open := func() *BankReader {
		_, r, err := OpenBank(frame)
		if err != nil {
			t.Fatal(err)
		}
		return &r
	}
	keyed := func() *BankReader {
		r := open()
		if err := BankReadKeys(r, make([]int64, 4)); err != nil {
			t.Fatal(err)
		}
		return r
	}
	for name, f := range map[string]func(){
		"too few key slots":         func() { _ = BankReadKeys(open(), make([]int64, 3)) },
		"members before keys":       func() { _, _, _ = open().Member() },
		"keys twice":                func() { _ = BankReadKeys(keyed(), make([]int64, 4)) },
		"orders before members":     func() { _, _, _, _, _ = keyed().Ord() },
		"close before the sections": func() { _ = keyed().Close() },
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
		c := Checkpoint{Gen: 9, Engine: EngineConc, Seed: 77,
			Machine: bytes.Repeat([]byte{0xa5}, sizes[0]), Nodes: bytes.Repeat([]byte{0x5a}, sizes[1]), Last: []int64{3, -3}}
		want := c.Append([]byte("pre"))
		w := BeginCheckpoint([]byte("pre"), c.Gen, c.Engine, c.Seed)
		w.Buf = append(w.Buf, c.Machine...)
		w.EndSection()
		w.Buf = append(w.Buf, c.Nodes...)
		w.EndSection()
		if got := w.Seal(c.Last); !bytes.Equal(got, want) {
			t.Fatalf("sections of %v bytes: in-place envelope differs from Append", sizes)
		}
		var back Checkpoint
		if err := back.Decode(want[3:]); err != nil || !bytes.Equal(back.Nodes, c.Nodes) {
			t.Fatalf("sections of %v bytes: decode: %v", sizes, err)
		}
	}
	for name, f := range map[string]func(){
		"one section": func() { w := BeginCheckpoint(nil, 0, 0, 0); w.Section(nil); w.Seal(nil) },
		"three sections": func() {
			w := BeginCheckpoint(nil, 0, 0, 0)
			w.Section(nil)
			w.Section(nil)
			w.EndSection()
			w.Seal(nil)
		},
		"an unclosed section": func() {
			w := BeginCheckpoint(nil, 0, 0, 0)
			w.Section(nil)
			w.Section(nil)
			w.Buf = append(w.Buf, 1)
			w.Seal(nil)
		},
		"an unknown fingerprint": func() { BeginCheckpoint(nil, 0, 9, 0) },
	} {
		mustPanic(t, name, f)
	}
}
