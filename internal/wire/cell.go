package wire

import "unsafe"

// Int24 is a value column's entry of the narrowest width: a value that fits
// 24 bits, packed into 3 bytes, little-endian, two's complement. A column
// holds its values in them while every one fits, a quarter less than int32
// entries.
type Int24 [3]byte

// Int48 is a value column's entry of the width above int32: a value that
// fits 48 bits, packed into 6 bytes, little-endian, two's complement. A
// column of them holds any value the tie-break injection admits from n =
// 2¹⁶ nodes on (order.MaxValueFor(n) < 2⁴⁷), where an int64 entry carries 2
// bytes of sign extension.
type Int48 [6]byte

// Value is the entry type of a column an observation frame's values are
// read from or coded against: a host's bank and a coordinator's mirror
// keep Int24 entries while every value they hold fits 24 bits, int32
// entries while every one fits int32, Int48 entries while every one fits
// 48 bits, and int64 entries from the first that does not. Every loop over
// a column is one generic implementation over the four, reading and
// writing entries through Load and Store.
type Value interface{ Int24 | int32 | Int48 | int64 }

// Load returns entry i of c.
//
// It dispatches on the entry's size, a constant of each instantiation, so
// a loop over Load compiles to the loop written for its width. A type
// switch on any(&c[i]) would say the same, but under go 1.24's shape
// stenciling it is resolved at run time, a dictionary load and a chain of
// compares per entry: 3× the time of a sequential sum over an int64 column,
// on a 2-core Xeon. A size names one type of Value.
//
// A packed entry is read and written with the machine's own loads and
// stores, of the widths that make it up, which lay it out little-endian on
// a little-endian machine (amd64, arm64); the wide stores of StoreRun
// assume one too. Each case is a few instructions, so Load inlines into
// every loop over a column (go build -gcflags=-m: cost 59 of 80; spelled
// through encoding/binary the cases cost 91, and every Load is a call).
// A 24-bit entry is read with one 4-byte load that ends at its last byte,
// its first byte the last of the entry before, and sign-extended with one
// shift; entry 0 of c, which has no entry before it in c, is read with two
// narrower loads. So a load reads nothing outside c — a column has no pad
// entry after its last, and parts of one may be read and written at once
// by different goroutines — and needs no check of c's capacity.
func Load[V Value](c []V, i int) int64 {
	p := unsafe.Pointer(&c[i])
	switch unsafe.Sizeof(c[i]) {
	case 3:
		if i > 0 {
			return int64(*(*int32)(unsafe.Add(p, -1))) >> 8
		}
		return int64(*(*int8)(unsafe.Add(p, 2)))<<16 | int64(*(*uint16)(p))
	case 4:
		return int64(*(*int32)(p))
	case 6:
		return int64(*(*int16)(unsafe.Add(p, 4)))<<32 | int64(*(*uint32)(p))
	}
	return *(*int64)(p)
}

// Store sets entry i of c to v, which fits it: a value wider than the entry
// is truncated. It writes entry i's bytes alone.
func Store[V Value](c []V, i int, v int64) {
	p := unsafe.Pointer(&c[i])
	switch unsafe.Sizeof(c[i]) {
	case 3:
		*(*uint16)(p) = uint16(v)
		*(*int8)(unsafe.Add(p, 2)) = int8(v >> 16)
	case 4:
		*(*int32)(p) = int32(v)
	case 6:
		*(*uint32)(p) = uint32(v)
		*(*int16)(unsafe.Add(p, 4)) = int16(v >> 32)
	default:
		*(*int64)(p) = v
	}
}

// Copy copies the entries of src to the front of dst, whose entries are at
// least as wide: a column widening. It writes 48-bit entries as StoreRun
// does, one 8-byte store each and the last as Store does; on a 2-core Xeon
// that copies 2²⁰ entries from int32 or 24-bit ones in ≈ 1.1 and 1.3 ms,
// against ≈ 1.3 and 1.9 with Store's 4-byte and 2-byte stores and ≈ 2.6
// and 2.3 through StoreRun a block of 256 at a time.
func Copy[V, W Value](dst []W, src []V) {
	dst = dst[:len(src)]
	i := 0
	if unsafe.Sizeof(dst[0]) == 6 {
		for ; i+1 < len(src); i++ {
			*(*uint64)(unsafe.Pointer(&dst[i])) = uint64(Load(src, i))
		}
	}
	for ; i < len(src); i++ {
		Store(dst, i, Load(src, i))
	}
}

// StoreRun stores vals at the front of c, in order, ahead of the first
// whose magnitude bits — v for v ≥ 0, −v−1 below — reach lim, and returns
// how many it stored. A run of packed entries is written one store an
// entry, 4 bytes for a 24-bit entry and 8 for a 48-bit one, each store's
// top bytes overwritten by the next entry's, and its last entry as Store
// writes it, so it writes nothing past the run.
func StoreRun[V Value](c []V, vals []int64, lim uint64) int {
	c = c[:len(vals)]
	j := 0
	if size := unsafe.Sizeof(c[0]); size == 3 || size == 6 {
		for ; j+1 < len(vals); j++ {
			v := vals[j]
			if uint64(v^v>>63) >= lim {
				return j
			}
			if p := unsafe.Pointer(&c[j]); size == 3 {
				*(*uint32)(p) = uint32(v)
			} else {
				*(*uint64)(p) = uint64(v)
			}
		}
	}
	for ; j < len(vals); j++ {
		v := vals[j]
		if uint64(v^v>>63) >= lim {
			return j
		}
		Store(c, j, v)
	}
	return len(vals)
}
