package wire

// The Size functions return the exact encoded length of the canonical
// charged messages without encoding them. The engines call these on their
// hot paths to fill the comm ledgers' bytes column, so they must stay
// allocation-free; the wire tests pin each one to len(Append(nil)).

// SizeBid returns the encoded size of Bid{id, key}.
func SizeBid(id int, key int64) int64 {
	return int64(1 + SizeUvarint(uint64(id)) + SizeVarint(key))
}

// SizeBest returns the encoded size of Best{round, key}.
func SizeBest(round int, key int64) int64 {
	return int64(1 + SizeUvarint(uint64(round)) + SizeVarint(key))
}

// SizeMidpoint returns the encoded size of Midpoint{mid, false}.
func SizeMidpoint(mid int64) int64 {
	return int64(2 + SizeVarint(mid))
}

// SizeApproxBounds returns the encoded size of ApproxBounds{lo, hi} —
// what the ε-approximate mode's band broadcast charges in place of a
// midpoint broadcast.
func SizeApproxBounds(lo, hi int64) int64 {
	return int64(1 + SizeVarint(lo) + SizeVarint(hi))
}

// SizeQuery returns the encoded size of the bare gather-all query
// broadcast (TypeQuery).
func SizeQuery() int64 { return 1 }

// SizePresence returns the encoded size of Presence{id}.
func SizePresence(id int) int64 {
	return int64(1 + SizeUvarint(uint64(id)))
}

// SizeBounds returns the encoded size of Bounds{target, lo, hi}.
func SizeBounds(target int, lo, hi int64) int64 {
	return int64(1 + SizeUvarint(uint64(target)) + SizeVarint(lo) + SizeVarint(hi))
}
