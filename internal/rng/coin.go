package rng

import "math/bits"

// Coin is the paper's coin of one protocol round — success probability
// p = min(1, 2^round/n) for a population bound n — as a function, not a
// generator: the trial of node id in round `round` of the execution
// (step, tag) of a monitor seeded seed is read off 64-bit mixes of those
// five values, so a node carries no generator state, any host that knows
// the seed flips exactly what any other would, and the trials are
// independent across all five. Everything that depends on the round alone
// is decided in NewCoin, once; a round then draws the trials of 64 ids at
// a time (Word), and Hit is one bit of that word.
//
// The mix is splitmix64's: key, itself three mixes deep in (seed, step,
// tag, round), is the state a splitmix64 stream starts from, and position
// s of the stream is mix(key + s·γ). Let p' = 2^-j be the smallest power
// of two at least p. The trials of ids 64w … 64w+63 are the AND of the
// stream's outputs at positions 64w … 64w+j-1: each bit of an output is a
// fair coin, so each bit of the AND is Bernoulli(2^-j), and the loop stops
// at the first zero word (about seven mixes for 64 ids once p is small).
// When n is not a power of two, every surviving bit is thinned by an
// exact Bernoulli(p/p') = Bernoulli(2^⌊log2 n⌋/n), drawn from a second
// stream by Uint64n's rule: rejection of the values below 2^64 mod n —
// over re-mixed attempts — and a remainder. Every id thus hits
// Bernoulli(p), independently of every other.
type Coin struct {
	key uint64
	// and is j, the number of stream words ANDed: p' = 2^-and. 0 with n ==
	// 0 is the probability-1 coin (the zero Coin), whose words are all ones.
	and uint
	// sparse: p < 2^-6, under one expected hit per 64-id word.
	sparse bool
	// n != 0: n is not a power of two, and a surviving bit of id is kept
	// when Uint64n's draw on mix(thin + id·γ) — rejection limit 2^64 mod
	// n — falls below p = 2^⌊log2 n⌋.
	thin, n, p, limit uint64
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
		return Coin{} // probability 1: no word to AND, nothing to thin
	}
	log := uint(bits.Len64(n)) - 1 // 2^log <= n < 2^(log+1), and round < log or n is no power of two
	c := Coin{
		key:    mix(mix(mix(seed+gamma)+uint64(step)) + uint64(tag)<<32 + uint64(round)),
		and:    log - round,
		sparse: round+6 < 64 && uint64(1)<<(round+6) < n,
	}
	if n&(n-1) != 0 {
		c.thin, c.n, c.p, c.limit = mix(c.key^gamma), n, uint64(1)<<log, -n%n
	}
	return c
}

// Sparse reports whether p < 2^-6: a 64-id word holds under one expected
// hit.
func (c *Coin) Sparse() bool { return c.sparse }

// Word returns the trials of ids 64w … 64w+63: bit b is id 64w+b's.
func (c *Coin) Word(w uint64) uint64 {
	word, s := ^uint64(0), c.key+w*64*gamma
	for t := uint(0); t < c.and && word != 0; t++ {
		word &= mix(s)
		s += gamma
	}
	if c.n != 0 {
		for rest := word; rest != 0; rest &= rest - 1 {
			b := bits.TrailingZeros64(rest)
			if !c.keep(w<<6 | uint64(b)) {
				word &^= 1 << b
			}
		}
	}
	return word
}

// Hit reports the outcome of node id's trial: bit id&63 of Word(id>>6),
// evaluated for that bit alone.
func (c *Coin) Hit(id uint64) bool {
	s, b := c.key+(id&^63)*gamma, id&63
	for t := uint(0); t < c.and; t++ {
		if mix(s)>>b&1 == 0 {
			return false
		}
		s += gamma
	}
	return c.n == 0 || c.keep(id)
}

// keep is the thinning trial of id, whose AND bit survived.
func (c *Coin) keep(id uint64) bool {
	v := mix(c.thin + id*gamma)
	for s := v; v < c.limit; v = mix(s) { // rejected: the stream v seeds
		s += gamma
	}
	return v%c.n < c.p
}
