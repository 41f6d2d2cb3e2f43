package wire

import (
	"fmt"
	"math"
	"slices"
)

// The bank frame. A node bank stores one broadcast pair of filter bounds,
// a key and a membership bit per node, so its checkpoint persists exactly
// that and nothing a restore can derive: no per-node interval, no
// generator — a node's coins are a function of the seed the envelope
// carries — and the per-node fields that are almost always at their
// default — membership, order filters — only where they are not.
//
//	TypeBankState
//	Lo, Hi, N, EpsNum    uvarint each
//	flags                1 byte: flagNoGens, always
//	BoundLo, BoundHi     varint each: the installed filter bounds, once
//	key column           Hi-Lo varints, in id order
//	member section       { gap, FlagNodeInTop }*          0x00
//	violation section                                     0x00
//	order section        { gap, lo varint, hi varint }*   0x00
//
// This is the one dialect written and the one read. The frames older
// monitors wrote are refused, not upgraded: the v1 frame (tag 0x14) is
// ErrUnknownType; a header without flagNoGens (a generator column follows
// the keys) or with 0x01 (keys that are raw values, not the tie-break
// injection), an entry in the violation section and a flag byte other than
// FlagNodeInTop are ErrMalformed. The violation section is empty, and is
// written so that the frames of this build stay byte-identical to those of
// the builds before it.
//
// A sparse section lists hosted indices (id − Lo) in strictly increasing
// order as uvarint gaps from the previous listed index (from −1 at the
// start, so a gap is never 0) and ends with a zero byte. An entry holding
// the default — the order filter [−∞, +∞] — is malformed, so exactly one
// byte string encodes a bank.
//
// BankWriter and BankReader stream the frame straight from and into a
// bank's arrays; BankState is the materialised form, for tools and tests.

// FlagNodeInTop is the flag byte of a member section entry: the node is a
// top-k member.
const FlagNodeInTop = 1 << 0

// BankHeader is the fixed part of a bank frame: the bank's shape and the
// one pair of filter bounds it has installed (both infinite before the
// first install and when k == n).
type BankHeader struct {
	N, Lo, Hi        int
	EpsNum           uint64
	BoundLo, BoundHi int64
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
	dst = append(dst, flagNoGens)
	dst = AppendVarint(dst, h.BoundLo)
	return AppendVarint(dst, h.BoundHi)
}

// DecodeBankHeader decodes the tag and header at the front of a bank frame
// and returns the columns that follow it.
func DecodeBankHeader(p []byte) (h BankHeader, rest []byte, err error) {
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
	case p[0]&^flagNoGens != 0:
		return h, nil, fmt.Errorf("%w: unknown bank flags 0x%02x", ErrMalformed, p[0])
	case p[0]&flagNoGens == 0:
		return h, nil, fmt.Errorf("%w: a bank frame with a generator column, which no bank persists any more", ErrMalformed)
	}
	p = p[1:]
	if h.Lo < 0 || h.Hi < h.Lo || h.Hi > h.N {
		return h, nil, fmt.Errorf("%w: bank range [%d, %d) of %d", ErrMalformed, h.Lo, h.Hi, h.N)
	}
	if h.BoundLo, p, err = varintField(p); err != nil {
		return h, nil, err
	}
	if h.BoundHi, p, err = varintField(p); err != nil {
		return h, nil, err
	}
	return h, p, nil
}

// Columns of a bank frame in frame order, the stages a BankWriter or
// BankReader moves through. The empty violation section is part of the
// member section's end.
const (
	bankKeys uint8 = iota
	bankMembers
	bankOrd
	bankDone
)

const bankOrder = "wire: bank columns taken out of frame order"

// bankTailRoom is what BankKeys reserves past the dense columns: the
// three section ends, some k membership entries and the envelope's mirror
// count and CRC. Longer sections just grow the buffer.
const bankTailRoom = 256

// BankWriter appends one bank frame column by column, in frame order:
// BeginBank, BankKeys, then Member and Ord for the nodes that need an
// entry — each section in increasing index order, either of them possibly
// empty — and End. It panics on any other order and on an entry the frame
// cannot hold, like every encoder here.
type BankWriter struct {
	buf   []byte
	n     int
	stage uint8
	prev  int // last index listed in the open sparse section
}

// BeginBank appends the tag and header of a bank frame after dst.
func BeginBank(dst []byte, h BankHeader) BankWriter {
	return BankWriter{buf: h.Append(dst), n: h.Hi - h.Lo}
}

// BankKeys appends the key column, one key per hosted node in id order.
// It sizes the column first and grows the buffer once — with room for a
// few sparse entries and an envelope's tail — so a reused buffer settles
// at about the frame's size, not at what append's doubling would leave.
func BankKeys[K ~int64](w *BankWriter, keys []K) {
	if w.stage != bankKeys {
		panic(bankOrder)
	}
	if len(keys) != w.n {
		panic(fmt.Sprintf("wire: %d keys for a bank of %d nodes", len(keys), w.n))
	}
	size := 0
	for _, k := range keys {
		size += SizeVarint(int64(k))
	}
	w.buf = slices.Grow(w.buf, size+bankTailRoom)
	col := w.buf[len(w.buf) : len(w.buf)+size]
	i := 0
	for _, k := range keys {
		i = putUvarint(col, i, zigzag(int64(k)))
	}
	w.buf = w.buf[:len(w.buf)+size]
	w.stage, w.prev = bankMembers, -1
}

// section moves the writer to sparse section s, closing those before it.
func (w *BankWriter) section(s uint8) {
	if w.stage < bankMembers || w.stage > s {
		panic(bankOrder)
	}
	for ; w.stage < s; w.stage++ {
		w.buf = append(w.buf, 0)
		if w.stage == bankMembers {
			w.buf = append(w.buf, 0) // the violation section
		}
		w.prev = -1
	}
}

// entry opens an entry for hosted index i in sparse section s.
func (w *BankWriter) entry(s uint8, i int) {
	w.section(s)
	if i <= w.prev || i >= w.n {
		panic(fmt.Sprintf("wire: sparse bank entry %d after %d in a bank of %d nodes", i, w.prev, w.n))
	}
	w.buf = AppendUvarint(w.buf, uint64(i-w.prev))
	w.prev = i
}

// Member lists hosted index i as a top-k member.
func (w *BankWriter) Member(i int) {
	w.entry(bankMembers, i)
	w.buf = append(w.buf, FlagNodeInTop)
}

// Ord lists the order filter of hosted index i, which is not [-inf, +inf].
func (w *BankWriter) Ord(i int, lo, hi int64) {
	if lo == math.MinInt64 && hi == math.MaxInt64 {
		panic("wire: bank order entry without a bound")
	}
	w.entry(bankOrd, i)
	w.buf = AppendVarint(w.buf, lo)
	w.buf = AppendVarint(w.buf, hi)
}

// End closes the remaining sections and returns the extended slice.
func (w *BankWriter) End() []byte {
	w.section(bankDone)
	return w.buf
}

// BankReader decodes one bank frame column by column, in the order a
// BankWriter wrote it: OpenBank, BankReadKeys, Member and Ord each until
// it reports no further entry, and Close. Malformed input yields an error
// from the call that met it; calls out of order are the caller's bug and
// panic.
type BankReader struct {
	p     []byte
	n     int
	stage uint8
	prev  int
}

// OpenBank decodes the header of a bank frame. A frame too short for the
// bank it claims is rejected here, before a caller sizes anything by the
// header.
func OpenBank(p []byte) (BankHeader, BankReader, error) {
	h, p, err := DecodeBankHeader(p)
	if err != nil {
		return h, BankReader{}, err
	}
	n := uint64(h.Hi - h.Lo)
	if n > uint64(len(p)) { // every node takes >= 1 key byte
		return h, BankReader{}, fmt.Errorf("%w: %d bank nodes in %d bytes", ErrMalformed, n, len(p))
	}
	return h, BankReader{p: p, n: int(n)}, nil
}

// BankReadKeys decodes the key column into dst, which must have one slot
// per hosted node.
func BankReadKeys[K ~int64](r *BankReader, dst []K) error {
	if r.stage != bankKeys {
		panic(bankOrder)
	}
	if len(dst) != r.n {
		panic(fmt.Sprintf("wire: %d key slots for a bank of %d nodes", len(dst), r.n))
	}
	p := r.p
	for i := range dst {
		v, n, err := Varint(p)
		if err != nil {
			return err
		}
		dst[i], p = K(v), p[n:]
	}
	r.p, r.stage, r.prev = p, bankMembers, -1
	return nil
}

// next reads the index of sparse section s's next entry; ok is false at
// the section's end.
func (r *BankReader) next(s uint8) (i int, ok bool, err error) {
	if r.stage != s {
		panic(bankOrder)
	}
	var gap uint64
	if gap, r.p, err = uvarintField(r.p); err != nil {
		return 0, false, err
	}
	if gap == 0 {
		r.stage, r.prev = s+1, -1
		if s != bankMembers {
			return 0, false, nil
		}
		switch { // the violation section, which lists nobody
		case len(r.p) == 0:
			return 0, false, ErrTruncated
		case r.p[0] != 0:
			return 0, false, fmt.Errorf("%w: an entry in the bank frame's violation section, which no bank persists any more", ErrMalformed)
		}
		r.p = r.p[1:]
		return 0, false, nil
	}
	if gap > uint64(r.n-1-r.prev) {
		return 0, false, fmt.Errorf("%w: sparse bank entry %d past index %d in a bank of %d nodes", ErrMalformed, gap, r.prev, r.n)
	}
	r.prev += int(gap)
	return r.prev, true, nil
}

// Member returns the member section's next entry.
func (r *BankReader) Member() (i int, ok bool, err error) {
	if i, ok, err = r.next(bankMembers); !ok {
		return 0, false, err
	}
	if len(r.p) == 0 {
		return 0, false, ErrTruncated
	}
	if r.p[0] != FlagNodeInTop {
		return 0, false, fmt.Errorf("%w: bank flag byte 0x%02x listed for index %d", ErrMalformed, r.p[0], i)
	}
	r.p = r.p[1:]
	return i, true, nil
}

// Ord returns the order section's next entry.
func (r *BankReader) Ord() (i int, lo, hi int64, ok bool, err error) {
	if i, ok, err = r.next(bankOrd); !ok {
		return 0, 0, 0, false, err
	}
	if lo, r.p, err = varintField(r.p); err != nil {
		return 0, 0, 0, false, err
	}
	if hi, r.p, err = varintField(r.p); err != nil {
		return 0, 0, 0, false, err
	}
	if lo == math.MinInt64 && hi == math.MaxInt64 {
		return 0, 0, 0, false, fmt.Errorf("%w: bank index %d listed with the full order filter", ErrMalformed, i)
	}
	return i, lo, hi, true, nil
}

// Close checks that the frame ends with its last section.
func (r *BankReader) Close() error {
	if r.stage != bankDone {
		panic(bankOrder)
	}
	return fin(r.p)
}

// BankState is the materialised form of a bank frame: the header plus
// every per-node field as a slice of length Hi-Lo in id order, the sparse
// sections filled out with their defaults (not a member, order filter
// [math.MinInt64, math.MaxInt64]). The engines stream their arrays
// through BankWriter and BankReader and never build one.
type BankState struct {
	BankHeader

	Keys         []int64
	InTop        []bool
	OrdLo, OrdHi []int64
}

// Append encodes m after dst. All per-node slices must have length Hi-Lo;
// Append panics otherwise.
func (m BankState) Append(dst []byte) []byte {
	n := m.Hi - m.Lo
	if len(m.Keys) != n || len(m.InTop) != n || len(m.OrdLo) != n || len(m.OrdHi) != n {
		panic("wire: BankState per-node slices must all have length Hi-Lo")
	}
	w := BeginBank(dst, m.BankHeader)
	BankKeys(&w, m.Keys)
	for i, in := range m.InTop {
		if in {
			w.Member(i)
		}
	}
	for i, lo := range m.OrdLo {
		if hi := m.OrdHi[i]; lo != math.MinInt64 || hi != math.MaxInt64 {
			w.Ord(i, lo, hi)
		}
	}
	return w.End()
}

// Decode decodes a full bank frame into m, reusing slice capacity.
func (m *BankState) Decode(p []byte) error {
	h, r, err := OpenBank(p)
	if err != nil {
		return err
	}
	n := h.Hi - h.Lo
	m.BankHeader = h
	m.Keys = slices.Grow(m.Keys[:0], n)[:n]
	m.InTop = slices.Grow(m.InTop[:0], n)[:n]
	m.OrdLo = slices.Grow(m.OrdLo[:0], n)[:n]
	m.OrdHi = slices.Grow(m.OrdHi[:0], n)[:n]
	if err := BankReadKeys(&r, m.Keys); err != nil {
		return err
	}
	for i := range m.InTop {
		m.InTop[i] = false
		m.OrdLo[i], m.OrdHi[i] = math.MinInt64, math.MaxInt64
	}
	for {
		i, ok, err := r.Member()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		m.InTop[i] = true
	}
	for {
		i, lo, hi, ok, err := r.Ord()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		m.OrdLo[i], m.OrdHi[i] = lo, hi
	}
	return r.Close()
}
