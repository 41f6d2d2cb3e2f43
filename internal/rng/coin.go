package rng

// Coin is the paper's coin of one protocol round — success probability
// min(1, 2^round/n) for a population bound n — as a function, not a
// generator: the trial of node id in round `round` of the execution
// (step, tag) of a monitor seeded seed is read off a 64-bit mix of those
// five values, so a node carries no generator state, any host that knows
// the seed flips exactly what any other would, and the trials are
// independent across all five. Everything that depends on the round alone
// is decided in NewCoin, once; a round then pays one mix per node it asks
// (Hit, or HitMasked inlined where the coin reports Masked).
//
// The mix is splitmix64's: key, itself three mixes deep in (seed, step,
// tag, round), is the state a splitmix64 stream starts from, and node id
// reads that stream's id-th output. The output function is a bijection of
// 64-bit words, so over the ids a value is exactly uniform, and the trial
// on it is Uint64n's: a mask when n is a power of two, else rejection of
// the values below 2^64 mod n — over re-mixed attempts — and a remainder.
type Coin struct {
	key uint64
	// limit == 0: n is a power of two (or the probability is 1: mask 0) and
	// the trial is v&mask == 0 — bits round..log2(n)-1 of the value are zero.
	mask uint64
	// limit != 0: Uint64n's rejection limit 2^64 mod n, and a hit is
	// v%n < p.
	n, p, limit uint64
}

// gamma is splitmix64's stream increment (the golden ratio, odd).
const gamma = 0x9e3779b97f4a7c15

// mix is splitmix64's output function.
func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// NewCoin returns the coin of the given round of execution (step, tag)
// under seed, for population bound n. It panics if n == 0.
func NewCoin(seed uint64, step int64, tag uint8, round uint, n uint64) Coin {
	if n == 0 {
		panic("rng: coin with zero population")
	}
	if round >= 64 || uint64(1)<<round >= n {
		return Coin{} // probability 1: the empty mask, which every id passes
	}
	c := Coin{key: mix(mix(mix(seed+gamma)+uint64(step)) + uint64(tag)<<32 + uint64(round))}
	if p := uint64(1) << round; n&(n-1) == 0 {
		c.mask = (n - 1) &^ (p - 1)
	} else {
		c.n, c.p, c.limit = n, p, -n%n
	}
	return c
}

// Hit reports the outcome of node id's trial.
func (c *Coin) Hit(id uint64) bool {
	if c.limit == 0 {
		return c.HitMasked(id)
	}
	v := mix(c.key + id*gamma)
	for s := v; v < c.limit; v = mix(s) { // rejected: the stream v seeds
		s += gamma
	}
	return v%c.n < c.p
}

// Masked reports whether HitMasked may stand in for Hit: the trial is a
// mask test, with no rejection loop.
func (c *Coin) Masked() bool { return c.limit == 0 }

// HitMasked is Hit for a coin that reports Masked, small enough to inline
// into a round's per-node loop (Hit, with its loop, is not).
func (c *Coin) HitMasked(id uint64) bool { return mix(c.key+id*gamma)&c.mask == 0 }
