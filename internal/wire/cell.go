package wire

import (
	"encoding/binary"
	"unsafe"
)

// Int48 is a value column's entry of the middle width: a value that fits
// 48 bits, packed into 6 bytes, little-endian, two's complement. A column of
// them holds any value the tie-break injection admits from n = 2¹⁶ nodes on
// (order.MaxValueFor(n) < 2⁴⁷), where an int64 entry carries 2 bytes of sign
// extension.
type Int48 [6]byte

// Value is the entry type of a column an observation frame's values are
// read from or coded against: a host's bank and a coordinator's mirror
// keep int32 entries while every value they hold fits, Int48 entries while
// every one fits 48 bits, and int64 entries from the first that does not.
// Every loop over a column is one generic implementation over the three,
// reading and writing entries through Load and Store.
type Value interface{ int32 | Int48 | int64 }

// Load returns entry i of c.
//
// It dispatches on the entry's size, a constant of each instantiation, so
// a loop over Load compiles to the loop written for its width. A type
// switch on any(&c[i]) would say the same, but under go 1.24's shape
// stenciling it is resolved at run time, a dictionary load and a chain of
// compares per entry: 3× the time of a sequential sum over an int64 column,
// on a 2-core Xeon. A size names one type of Value, so every conversion
// below is of a pointer to the type it points to.
func Load[V Value](c []V, i int) int64 {
	p := unsafe.Pointer(&c[i])
	switch unsafe.Sizeof(c[i]) {
	case 4:
		return int64(*(*int32)(p))
	case 6:
		q := (*Int48)(p)
		return int64(uint64(binary.LittleEndian.Uint32(q[:4]))|uint64(binary.LittleEndian.Uint16(q[4:]))<<32) << 16 >> 16
	}
	return *(*int64)(p)
}

// Store sets entry i of c to v, which fits it: a value wider than the entry
// is truncated.
func Store[V Value](c []V, i int, v int64) {
	p := unsafe.Pointer(&c[i])
	switch unsafe.Sizeof(c[i]) {
	case 4:
		*(*int32)(p) = int32(v)
	case 6:
		q := (*Int48)(p)
		binary.LittleEndian.PutUint32(q[:4], uint32(v))
		binary.LittleEndian.PutUint16(q[4:], uint16(v>>32))
	default:
		*(*int64)(p) = v
	}
}

// StoreRun stores vals at the front of c, in order, ahead of the first
// whose magnitude bits — v for v ≥ 0, −v−1 below — reach lim, and returns
// how many it stored. A run of 48-bit entries is written 8 bytes at a time,
// each store's top two bytes overwritten by the next entry's, and its last
// entry as Store writes it, so it writes nothing past the run.
func StoreRun[V Value](c []V, vals []int64, lim uint64) int {
	c = c[:len(vals)]
	j := 0
	if unsafe.Sizeof(c[0]) == 6 {
		for ; j+1 < len(vals); j++ {
			v := vals[j]
			if uint64(v^v>>63) >= lim {
				return j
			}
			*(*uint64)(unsafe.Pointer(&c[j])) = uint64(v)
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
