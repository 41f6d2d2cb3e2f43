package wire

import (
	"fmt"
	"math"
	"slices"
)

// The v2 bank frame. A node bank stores one broadcast pair of filter
// bounds, a key and a membership byte per node, so its checkpoint persists
// exactly that and nothing a restore can derive: no per-node interval, no
// generator — a node's coins are a function of the seed the envelope
// carries — and the per-node fields that are almost always at their
// default — flag bytes, violation steps, order filters — only where they
// are not.
//
//	TypeBankState
//	Lo, Hi, N, EpsNum    uvarint each
//	flags                1 byte (flagDistinct, flagNoGens)
//	BoundLo, BoundHi     varint each: the installed filter bounds, once
//	key column           Hi-Lo varints, in id order
//	generator column     (Hi-Lo) × 8 bytes — only without flagNoGens
//	flag section         { gap, flag byte ≠ 0 }*          0x00
//	violation section    { gap, step varint ≠ -1 }*       0x00
//	order section        { gap, lo varint, hi varint }*   0x00
//
// Every frame written today sets flagNoGens. A frame without it is from a
// monitor whose nodes each carried a generator and persisted its state:
// the column is dead state, checked to be all there and read past, as the
// violation section is.
//
// A sparse section lists hosted indices (id − Lo) in strictly increasing
// order as uvarint gaps from the previous listed index (from −1 at the
// start, so a gap is never 0) and ends with a zero byte. An entry holding
// the default — a zero flag byte, step −1, the order filter [−∞, +∞] —
// is malformed, so exactly one byte string encodes a bank.
//
// BankWriter and BankReader stream the frame straight from and into a
// bank's arrays; BankState is the materialised form, for tools and tests
// and for re-encoding v1 payloads.

// BankHeader is the fixed part of a v2 bank frame: the bank's shape and
// the one pair of filter bounds it has installed (both infinite before
// the first install and when k == n).
type BankHeader struct {
	N, Lo, Hi        int
	EpsNum           uint64
	Distinct         bool
	BoundLo, BoundHi int64
	// Gens is set by the decoder on a frame that carries the generator
	// column; nothing writes one.
	Gens bool
}

// Append encodes the type tag and header after dst. The range must
// satisfy 0 <= Lo <= Hi <= N, and Gens must be clear; Append panics
// otherwise.
func (h BankHeader) Append(dst []byte) []byte {
	if h.Lo < 0 || h.Hi < h.Lo || h.Hi > h.N {
		panic(fmt.Sprintf("wire: bank range [%d, %d) of %d", h.Lo, h.Hi, h.N))
	}
	if h.Gens {
		panic("wire: a bank frame is written without a generator column")
	}
	dst = append(dst, TypeBankState)
	dst = AppendUvarint(dst, uint64(h.Lo))
	dst = AppendUvarint(dst, uint64(h.Hi))
	dst = AppendUvarint(dst, uint64(h.N))
	dst = AppendUvarint(dst, h.EpsNum)
	flags := byte(flagNoGens)
	if h.Distinct {
		flags |= flagDistinct
	}
	dst = append(dst, flags)
	dst = AppendVarint(dst, h.BoundLo)
	return AppendVarint(dst, h.BoundHi)
}

// DecodeBankHeader decodes the tag and header at the front of a v2 bank
// frame and returns the columns that follow it.
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
	if p[0]&^(flagDistinct|flagNoGens) != 0 {
		return h, nil, fmt.Errorf("%w: unknown bank flags 0x%02x", ErrMalformed, p[0])
	}
	h.Distinct, h.Gens = p[0]&flagDistinct != 0, p[0]&flagNoGens == 0
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
// BankReader moves through.
const (
	bankKeys uint8 = iota
	bankFlags
	bankViol
	bankOrd
	bankDone
)

const bankOrder = "wire: bank columns taken out of frame order"

// bankTailRoom is what BankKeys reserves past the dense columns: the
// three section ends, some k membership entries and the envelope's mirror
// count and CRC. Longer sections just grow the buffer.
const bankTailRoom = 256

// BankWriter appends one v2 bank frame column by column, in frame order:
// BeginBank, BankKeys, then Flag, Viol and Ord for the nodes that need an
// entry — each section in increasing index order, any of them possibly
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
		u := zigzag(int64(k))
		for u >= 0x80 {
			col[i] = byte(u) | 0x80
			u >>= 7
			i++
		}
		col[i] = byte(u)
		i++
	}
	w.buf = w.buf[:len(w.buf)+size]
	w.stage, w.prev = bankFlags, -1
}

// section moves the writer to sparse section s, closing those before it.
func (w *BankWriter) section(s uint8) {
	if w.stage < bankFlags || w.stage > s {
		panic(bankOrder)
	}
	for ; w.stage < s; w.stage++ {
		w.buf = append(w.buf, 0)
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

// Flag lists the non-zero flag byte of hosted index i.
func (w *BankWriter) Flag(i int, f byte) {
	if f == 0 || f&^byte(nodeFlagMask) != 0 {
		panic(fmt.Sprintf("wire: bank flag byte 0x%02x", f))
	}
	w.entry(bankFlags, i)
	w.buf = append(w.buf, f)
}

// Viol lists the last violation step of hosted index i, which has one.
func (w *BankWriter) Viol(i int, step int64) {
	if step == noViolStep {
		panic("wire: bank violation entry without a step")
	}
	w.entry(bankViol, i)
	w.buf = AppendVarint(w.buf, step)
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

// noViolStep is the violation step of a node that never violated, the
// default the violation section leaves out.
const noViolStep = -1

// BankReader decodes one v2 bank frame column by column, in the order a
// BankWriter wrote it: OpenBank, BankReadKeys, Flag, Viol and Ord each
// until it reports no further entry, and Close. Malformed input yields an
// error from the call that met it; calls out of order are the caller's bug
// and panic.
type BankReader struct {
	p     []byte
	n     int
	gens  bool // a generator column follows the keys
	stage uint8
	prev  int
}

// OpenBank decodes the header of a v2 bank frame. A frame too short for
// the bank it claims is rejected here, before a caller sizes anything by
// the header.
func OpenBank(p []byte) (BankHeader, BankReader, error) {
	h, p, err := DecodeBankHeader(p)
	if err != nil {
		return h, BankReader{}, err
	}
	n := uint64(h.Hi - h.Lo)
	if n > uint64(len(p)) { // every node takes >= 1 key byte
		return h, BankReader{}, fmt.Errorf("%w: %d bank nodes in %d bytes", ErrMalformed, n, len(p))
	}
	return h, BankReader{p: p, n: int(n), gens: h.Gens}, nil
}

// BankReadKeys decodes the key column into dst, which must have one slot
// per hosted node, and reads past the generator column of a frame that
// has one.
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
	if r.gens {
		if len(p) < 8*r.n {
			return ErrTruncated
		}
		p = p[8*r.n:]
	}
	r.p, r.stage, r.prev = p, bankFlags, -1
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
		return 0, false, nil
	}
	if gap > uint64(r.n-1-r.prev) {
		return 0, false, fmt.Errorf("%w: sparse bank entry %d past index %d in a bank of %d nodes", ErrMalformed, gap, r.prev, r.n)
	}
	r.prev += int(gap)
	return r.prev, true, nil
}

// Flag returns the flag section's next entry.
func (r *BankReader) Flag() (i int, f byte, ok bool, err error) {
	if i, ok, err = r.next(bankFlags); !ok {
		return 0, 0, false, err
	}
	if len(r.p) == 0 {
		return 0, 0, false, ErrTruncated
	}
	f, r.p = r.p[0], r.p[1:]
	if f == 0 || f&^byte(nodeFlagMask) != 0 {
		return 0, 0, false, fmt.Errorf("%w: bank flag byte 0x%02x listed for index %d", ErrMalformed, f, i)
	}
	return i, f, true, nil
}

// Viol returns the violation section's next entry.
func (r *BankReader) Viol() (i int, step int64, ok bool, err error) {
	if i, ok, err = r.next(bankViol); !ok {
		return 0, 0, false, err
	}
	if step, r.p, err = varintField(r.p); err != nil {
		return 0, 0, false, err
	}
	if step == noViolStep {
		return 0, 0, false, fmt.Errorf("%w: bank index %d listed without a violation step", ErrMalformed, i)
	}
	return i, step, true, nil
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

// BankState is the materialised form of a v2 bank frame: the header plus
// every per-node field as a slice of length Hi-Lo in id order, the sparse
// sections filled out with their defaults (flag byte 0, violation step
// -1, order filter [math.MinInt64, math.MaxInt64]). The engines stream
// their arrays through BankWriter and BankReader and never build one.
type BankState struct {
	BankHeader

	Keys         []int64
	Flags        []byte // FlagNodeInTop | FlagNodeWasTop | FlagNodeExtracted
	ViolStep     []int64
	OrdLo, OrdHi []int64
}

// Append encodes m after dst. All per-node slices must have length Hi-Lo;
// Append panics otherwise.
func (m BankState) Append(dst []byte) []byte {
	n := m.Hi - m.Lo
	if len(m.Keys) != n || len(m.Flags) != n ||
		len(m.ViolStep) != n || len(m.OrdLo) != n || len(m.OrdHi) != n {
		panic("wire: BankState per-node slices must all have length Hi-Lo")
	}
	w := BeginBank(dst, m.BankHeader)
	BankKeys(&w, m.Keys)
	for i, f := range m.Flags {
		if f != 0 {
			w.Flag(i, f)
		}
	}
	for i, s := range m.ViolStep {
		if s != noViolStep {
			w.Viol(i, s)
		}
	}
	for i, lo := range m.OrdLo {
		if hi := m.OrdHi[i]; lo != math.MinInt64 || hi != math.MaxInt64 {
			w.Ord(i, lo, hi)
		}
	}
	return w.End()
}

// Decode decodes a full v2 bank frame into m, reusing slice capacity. A
// generator column is read past: m.Gens says the frame had one.
func (m *BankState) Decode(p []byte) error {
	h, r, err := OpenBank(p)
	if err != nil {
		return err
	}
	n := h.Hi - h.Lo
	m.BankHeader = h
	m.Keys = slices.Grow(m.Keys[:0], n)[:n]
	m.Flags = slices.Grow(m.Flags[:0], n)[:n]
	m.ViolStep = slices.Grow(m.ViolStep[:0], n)[:n]
	m.OrdLo = slices.Grow(m.OrdLo[:0], n)[:n]
	m.OrdHi = slices.Grow(m.OrdHi[:0], n)[:n]
	if err := BankReadKeys(&r, m.Keys); err != nil {
		return err
	}
	for i := range m.Flags {
		m.Flags[i], m.ViolStep[i] = 0, noViolStep
		m.OrdLo[i], m.OrdHi[i] = math.MinInt64, math.MaxInt64
	}
	for {
		i, f, ok, err := r.Flag()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		m.Flags[i] = f
	}
	for {
		i, step, ok, err := r.Viol()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		m.ViolStep[i] = step
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
