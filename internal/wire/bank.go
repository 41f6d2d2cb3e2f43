package wire

import (
	"fmt"
	"slices"
)

// The bank frame. A node bank's own state is a value per node, from which
// it derives the node's key with the tie-break injection, v·n + (n−1−id),
// whose id is the entry's position in the column: so its checkpoint
// persists the values, O(log max v) bits a node (the paper's message
// size, §2), and a restore reads them into a column as wide as they need. A
// node's membership bit and the filter bounds it has installed are the
// coordinator's decisions, which the machine frame beside the bank frame
// records (the membership, and T+/T− or the ε band the bounds are a
// function of), and a node's coins are a function of the seed the
// envelope carries.
//
//	TypeBankState
//	Lo, Hi, N, EpsNum    uvarint each
//	flags                1 byte: flagNoGens|flagColumnOnly|flagValues, always
//	value column         Hi-Lo zigzag varints, in id order
//
// This is the one dialect written and the one read. The frames older
// monitors wrote are refused, not upgraded: the v1 frame (tag 0x14) is
// ErrUnknownType; a header without flagValues (a column of keys, log₂ n
// bits a node longer), without flagColumnOnly (the installed bounds, and
// member, violation and order sections after the column), without
// flagNoGens (a generator column after it) or with 0x01 (keys that are raw
// values, not the tie-break injection) is ErrMalformed.
//
// BankWriter and OpenBank with ReadBankValues move the frame straight from
// and into a bank's value column; BankState is the materialised form, for
// tools and tests.

// BankHeader is the fixed part of a bank frame: the bank's shape.
type BankHeader struct {
	N, Lo, Hi int
	EpsNum    uint64
}

// Append encodes the type tag and header after dst. The range must
// satisfy 0 <= Lo <= Hi <= N; Append panics otherwise.
func (h BankHeader) Append(dst []byte) []byte {
	if h.Lo < 0 || h.Hi < h.Lo || h.Hi > h.N {
		panic(fmt.Sprintf("wire: bank range [%d, %d) of %d", h.Lo, h.Hi, h.N))
	}
	dst = append(dst, TypeBankState)
	dst = AppendUvarint(dst, uint64(h.Lo))
	dst = AppendUvarint(dst, uint64(h.Hi))
	dst = AppendUvarint(dst, uint64(h.N))
	dst = AppendUvarint(dst, h.EpsNum)
	return append(dst, flagNoGens|flagColumnOnly|flagValues)
}

// bankTailRoom is what BeginBank reserves past the value column: the
// envelope's section length prefix, mirror count and CRC.
const bankTailRoom = 16

// BankWriter writes a bank frame straight from a caller's arrays, as
// CheckpointWriter does an envelope: BeginBank appends the header and
// grows the buffer once, for the value column the caller has sized — the
// sum of SizeVarint over its values — and an envelope's tail, so a reused
// buffer settles at about the frame's size, not at what append's doubling
// would leave; Put appends the Hi-Lo values in id order, and End returns
// the frame.
type BankWriter struct {
	buf      []byte // the header; the column follows it
	col      []byte
	at, n, m int // bytes and values put, values due
}

// BeginBank appends the tag and header h after dst and makes room for a
// value column of size bytes. The range must satisfy 0 <= Lo <= Hi <= N;
// BeginBank panics otherwise.
func BeginBank(dst []byte, h BankHeader, size int) BankWriter {
	dst = slices.Grow(h.Append(dst), size+bankTailRoom)
	return BankWriter{buf: dst, col: dst[len(dst) : len(dst)+size], m: h.Hi - h.Lo}
}

// Put appends the next node's value.
func (w *BankWriter) Put(v int64) {
	w.at = putUvarint(w.col, w.at, zigzag(v))
	w.n++
}

// End returns the frame. It panics unless Hi-Lo values filled the column
// BeginBank sized, exactly.
func (w *BankWriter) End() []byte {
	if w.n != w.m || w.at != len(w.col) {
		panic(fmt.Sprintf("wire: %d values in %d bytes for a bank of %d nodes and a column of %d bytes", w.n, w.at, w.m, len(w.col)))
	}
	return w.buf[:len(w.buf)+len(w.col)]
}

// OpenBank decodes the tag and header at the front of a bank frame and
// returns the value column that follows it. A frame too short for the bank
// it claims is rejected here, before a caller sizes anything by the
// header.
func OpenBank(p []byte) (h BankHeader, col []byte, err error) {
	if p, err = header(p, TypeBankState); err != nil {
		return h, nil, err
	}
	var u uint64
	if u, p, err = uvarintField(p); err != nil {
		return h, nil, err
	}
	h.Lo = int(u)
	if u, p, err = uvarintField(p); err != nil {
		return h, nil, err
	}
	h.Hi = int(u)
	if u, p, err = uvarintField(p); err != nil {
		return h, nil, err
	}
	h.N = int(u)
	if h.EpsNum, p, err = uvarintField(p); err != nil {
		return h, nil, err
	}
	if h.EpsNum >= MaxTolNum {
		return h, nil, fmt.Errorf("%w: bank tolerance numerator %d out of range", ErrMalformed, h.EpsNum)
	}
	if len(p) == 0 {
		return h, nil, ErrTruncated
	}
	switch {
	case p[0]&^(flagNoGens|flagColumnOnly|flagValues) != 0:
		return h, nil, fmt.Errorf("%w: unknown bank flags 0x%02x", ErrMalformed, p[0])
	case p[0]&flagNoGens == 0:
		return h, nil, fmt.Errorf("%w: a bank frame with a generator column, which no bank persists any more", ErrMalformed)
	case p[0]&flagColumnOnly == 0:
		return h, nil, fmt.Errorf("%w: a bank frame with bounds and membership, which the machine frame records", ErrMalformed)
	case p[0]&flagValues == 0:
		return h, nil, fmt.Errorf("%w: a bank frame of keys, which the bank re-derives from values", ErrMalformed)
	}
	p = p[1:]
	if h.Lo < 0 || h.Hi < h.Lo || h.Hi > h.N {
		return h, nil, fmt.Errorf("%w: bank range [%d, %d) of %d", ErrMalformed, h.Lo, h.Hi, h.N)
	}
	if n := uint64(h.Hi - h.Lo); n > uint64(len(p)) { // every node takes >= 1 value byte
		return h, nil, fmt.Errorf("%w: %d bank nodes in %d bytes", ErrMalformed, n, len(p))
	}
	return h, p, nil
}

// ReadBankValues decodes a value column OpenBank returned into dst, which
// must have one slot per hosted node, and checks that the frame ends with
// it. dst may be a bank's column of any width, whose caller has checked
// that every value fits it.
func ReadBankValues[V Value](col []byte, dst []V) error {
	for i := range dst {
		v, n, err := Varint(col)
		if err != nil {
			return err
		}
		Store(dst, i, v)
		col = col[n:]
	}
	return fin(col)
}

// BankState is the materialised form of a bank frame: the header plus the
// value column as a slice of length Hi-Lo in id order. The engines stream
// their value columns through BankWriter and ReadBankValues and never build
// one.
type BankState struct {
	BankHeader

	Vals []int64
}

// Append encodes m after dst. Vals must have length Hi-Lo and the range
// must satisfy 0 <= Lo <= Hi <= N; Append panics otherwise.
func (m BankState) Append(dst []byte) []byte {
	size := 0
	for _, v := range m.Vals {
		size += SizeVarint(v)
	}
	w := BeginBank(dst, m.BankHeader, size)
	for _, v := range m.Vals {
		w.Put(v)
	}
	return w.End()
}

// Decode decodes a full bank frame into m, reusing Vals' capacity.
func (m *BankState) Decode(p []byte) error {
	h, col, err := OpenBank(p)
	if err != nil {
		return err
	}
	n := h.Hi - h.Lo
	m.BankHeader = h
	m.Vals = slices.Grow(m.Vals[:0], n)[:n]
	return ReadBankValues(col, m.Vals)
}
