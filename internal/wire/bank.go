package wire

import (
	"fmt"
	"slices"
)

// The bank frame. A node bank's own state is a key per node, so its
// checkpoint persists exactly that: a node's membership bit and the filter
// bounds it has installed are the coordinator's decisions, which the
// machine frame beside the bank frame records (the membership, and T+/T−
// or the ε band the bounds are a function of), and a node's coins are a
// function of the seed the envelope carries.
//
//	TypeBankState
//	Lo, Hi, N, EpsNum    uvarint each
//	flags                1 byte: flagNoGens|flagKeysOnly, always
//	key column           Hi-Lo varints, in id order
//
// This is the one dialect written and the one read. The frames older
// monitors wrote are refused, not upgraded: the v1 frame (tag 0x14) is
// ErrUnknownType; a header without flagKeysOnly (the installed bounds, and
// member, violation and order sections after the keys), without flagNoGens
// (a generator column after the keys) or with 0x01 (keys that are raw
// values, not the tie-break injection) is ErrMalformed.
//
// AppendBank and OpenBank with ReadBankKeys move the frame straight from
// and into a bank's key array; BankState is the materialised form, for
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
	return append(dst, flagNoGens|flagKeysOnly)
}

// bankTailRoom is what AppendBank reserves past the key column: the
// envelope's section length prefix, mirror count and CRC.
const bankTailRoom = 16

// AppendBank appends a bank frame after dst: header h and the key column,
// one key per hosted node in id order. It sizes the column first and
// grows the buffer once — with room for an envelope's tail — so a reused
// buffer settles at about the frame's size, not at what append's doubling
// would leave. It panics unless there are Hi-Lo keys.
func AppendBank[K ~int64](dst []byte, h BankHeader, keys []K) []byte {
	if len(keys) != h.Hi-h.Lo {
		panic(fmt.Sprintf("wire: %d keys for a bank of %d nodes", len(keys), h.Hi-h.Lo))
	}
	dst = h.Append(dst)
	size := 0
	for _, k := range keys {
		size += SizeVarint(int64(k))
	}
	dst = slices.Grow(dst, size+bankTailRoom)
	col := dst[len(dst) : len(dst)+size]
	i := 0
	for _, k := range keys {
		i = putUvarint(col, i, zigzag(int64(k)))
	}
	return dst[:len(dst)+size]
}

// OpenBank decodes the tag and header at the front of a bank frame and
// returns the key column that follows it. A frame too short for the bank
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
	case p[0]&^(flagNoGens|flagKeysOnly) != 0:
		return h, nil, fmt.Errorf("%w: unknown bank flags 0x%02x", ErrMalformed, p[0])
	case p[0]&flagNoGens == 0:
		return h, nil, fmt.Errorf("%w: a bank frame with a generator column, which no bank persists any more", ErrMalformed)
	case p[0]&flagKeysOnly == 0:
		return h, nil, fmt.Errorf("%w: a bank frame with bounds and membership, which the machine frame records", ErrMalformed)
	}
	p = p[1:]
	if h.Lo < 0 || h.Hi < h.Lo || h.Hi > h.N {
		return h, nil, fmt.Errorf("%w: bank range [%d, %d) of %d", ErrMalformed, h.Lo, h.Hi, h.N)
	}
	if n := uint64(h.Hi - h.Lo); n > uint64(len(p)) { // every node takes >= 1 key byte
		return h, nil, fmt.Errorf("%w: %d bank nodes in %d bytes", ErrMalformed, n, len(p))
	}
	return h, p, nil
}

// ReadBankKeys decodes a key column OpenBank returned into dst, which must
// have one slot per hosted node, and checks that the frame ends with it.
func ReadBankKeys[K ~int64](col []byte, dst []K) error {
	for i := range dst {
		v, n, err := Varint(col)
		if err != nil {
			return err
		}
		dst[i], col = K(v), col[n:]
	}
	return fin(col)
}

// BankState is the materialised form of a bank frame: the header plus the
// key column as a slice of length Hi-Lo in id order. The engines stream
// their key arrays through AppendBank and ReadBankKeys and never build
// one.
type BankState struct {
	BankHeader

	Keys []int64
}

// Append encodes m after dst. Keys must have length Hi-Lo; Append panics
// otherwise.
func (m BankState) Append(dst []byte) []byte { return AppendBank(dst, m.BankHeader, m.Keys) }

// Decode decodes a full bank frame into m, reusing Keys' capacity.
func (m *BankState) Decode(p []byte) error {
	h, col, err := OpenBank(p)
	if err != nil {
		return err
	}
	n := h.Hi - h.Lo
	m.BankHeader = h
	m.Keys = slices.Grow(m.Keys[:0], n)[:n]
	return ReadBankKeys(col, m.Keys)
}
