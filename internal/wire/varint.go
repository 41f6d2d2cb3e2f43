// Package wire defines the binary wire format of the monitoring protocol:
// a compact varint codec plus one encoding per protocol message —
// observation delivery, sampler rounds and bids, winner assignment, filter
// (midpoint) broadcasts, and the join handshake. The link engine in
// internal/fanout exchanges exactly these encodings over a
// transport.Link; the in-process engines use the same encodings to charge
// model bytes, so all three engines report identical byte ledgers.
//
// # Charged versus carried messages
//
// The paper's model (§2) charges a message O(log n + log ∆) bits: a node
// id plus one value. A small set of canonical messages carries exactly
// that content; they are the ones the comm ledgers charge, via the Size
// helpers:
//
//   - Bid: a node's protocol send — its id and key (TypeBid).
//   - Best: the coordinator's end-of-round broadcast of the running best
//     (TypeBest).
//   - Midpoint: the coordinator's filter-bound broadcast (TypeMidpoint).
//   - Bounds: a per-node interval assignment (TypeBounds; ordered
//     variant and interval baselines only), plus Query/Presence for the
//     gather and domain-search baselines.
//
// The remaining messages (Assign, Observe, Round, Reply, ...) are the
// engine's control plane: scheduling information a synchronized deployment
// has anyway (round numbers, population bounds, batched framing). The
// transport accounts their frame bytes separately (transport.LinkStats),
// which keeps the model's byte ledger comparable across engines while
// still measuring what actually crossed the wire.
//
// # Encoding
//
// All integers use LEB128 varints; signed values are zigzag-folded first
// so small magnitudes of either sign stay short. Every message starts with
// a one-byte type tag. Decoders never panic on malformed input: truncated
// or overlong frames yield ErrTruncated/ErrOverflow, unknown tags
// ErrUnknownType, and trailing garbage ErrTrailingBytes. Link frames carry
// no version: all peers of a monitor are one build, and the Assign
// handshake, which rejects flag bits it does not know and requires the
// ones this build always sets, is the gate.
//
// An observation frame (Observe, ObserveDelta) carries each value as its
// change from the value the receiving bank already holds — the
// coordinator's last-value mirror is what it holds — so a value that moved
// by less than 64 costs one byte whatever its magnitude. The baseline is
// zero after an Assign, which builds every bank afresh at zero: the first
// frame after any handshake (a monitor's first step, a failover's replay,
// a Join, a Restore) is coded against zero and carries the values
// themselves, through the same codec. Peers are fail-stop, so a bank never
// runs on out of step with the mirror: a frame lost, duplicated or applied
// in part cuts its link, and recovery re-Assigns every bank before the
// next change-coded frame.
package wire

import (
	"errors"
	"math/bits"
)

// Decode errors. Decoders return these (possibly wrapped) and never panic
// on malformed input.
var (
	// ErrTruncated reports a frame that ends mid-field.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrOverflow reports a varint longer than 64 bits.
	ErrOverflow = errors.New("wire: varint overflows 64 bits")
	// ErrUnknownType reports an unrecognized message type byte.
	ErrUnknownType = errors.New("wire: unknown message type")
	// ErrTrailingBytes reports well-formed fields followed by extra bytes.
	ErrTrailingBytes = errors.New("wire: trailing bytes after message")
	// ErrMalformed reports a structurally invalid message (e.g. an element
	// count that cannot fit in the remaining frame).
	ErrMalformed = errors.New("wire: malformed message")
	// ErrNonCanonical reports a varint with redundant continuation bytes.
	// The codec admits exactly one encoding per value so that frames can
	// be compared and charged byte-for-byte.
	ErrNonCanonical = errors.New("wire: non-canonical varint")
)

// maxUvarintLen is the longest LEB128 encoding of a uint64 (10 bytes).
const maxUvarintLen = 10

// AppendUvarint appends the LEB128 encoding of x to dst and returns the
// extended slice.
func AppendUvarint(dst []byte, x uint64) []byte {
	for x >= 0x80 {
		dst = append(dst, byte(x)|0x80)
		x >>= 7
	}
	return append(dst, byte(x))
}

// Uvarint decodes a LEB128 value from the front of p, returning the value
// and the number of bytes consumed. It fails with ErrTruncated when p ends
// mid-varint, ErrOverflow when the encoding exceeds 64 bits (including
// overflowing bits in the tenth byte), and ErrNonCanonical when the final
// byte is a redundant zero (AppendUvarint never emits one).
func Uvarint(p []byte) (uint64, int, error) {
	var x uint64
	var shift uint
	for i, b := range p {
		if i >= maxUvarintLen {
			return 0, 0, ErrOverflow
		}
		if b < 0x80 {
			if i == maxUvarintLen-1 && b > 1 {
				return 0, 0, ErrOverflow
			}
			if b == 0 && i > 0 {
				return 0, 0, ErrNonCanonical
			}
			return x | uint64(b)<<shift, i + 1, nil
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, 0, ErrTruncated
}

// SizeUvarint returns len(AppendUvarint(nil, x)) without encoding.
func SizeUvarint(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// zigzag folds a signed value into an unsigned one with small magnitudes
// mapping to small values: 0,-1,1,-2,2,... -> 0,1,2,3,4,...
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendVarint appends the zigzag-LEB128 encoding of x to dst.
func AppendVarint(dst []byte, x int64) []byte {
	return AppendUvarint(dst, zigzag(x))
}

// Varint decodes a zigzag-LEB128 value from the front of p.
func Varint(p []byte) (int64, int, error) {
	u, n, err := Uvarint(p)
	if err != nil {
		return 0, 0, err
	}
	return unzigzag(u), n, nil
}

// SizeVarint returns len(AppendVarint(nil, x)) without encoding.
func SizeVarint(x int64) int { return SizeUvarint(zigzag(x)) }
