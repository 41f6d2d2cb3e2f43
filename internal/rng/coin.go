package rng

// Coin is the paper's coin of one protocol round: success probability
// min(1, 2^round/n) for a population bound n. Everything about the trial
// that depends on (round, n) alone is decided here, once, so that a round
// over many generators pays per generator only for the draw. It is the one
// definition of the trial: RNG.BernoulliPow2 flips a fresh Coin, and a
// Flip consumes exactly the randomness Bernoulli(2^round, n) would — none
// when the probability is 1, one Uint64 per attempt of Uint64n(n)
// otherwise.
type Coin struct {
	kind uint8
	// coinMask: n is a power of two <= 2^32, so Uint64n(n) < 2^round reads
	// "the draw's bits round..log2(n)-1 are zero" — bits of the low output
	// word only, which is the second of the Uint64's two draws.
	mask uint32
	// coinGeneral: Uint64n's rejection sampling, its limit 2^64 mod n
	// hoisted out of the per-generator draw. A power of two above 2^32
	// lands here too: its limit is 0 and v % n is the mask.
	n, p, limit uint64
}

const (
	coinAlways uint8 = iota
	coinMask
	coinGeneral
)

// NewCoin returns the coin of the given round for population bound n. It
// panics if n == 0.
func NewCoin(round uint, n uint64) Coin {
	if n == 0 {
		panic("rng: BernoulliPow2 with zero population")
	}
	if round >= 64 || uint64(1)<<round >= n {
		return Coin{kind: coinAlways}
	}
	p := uint64(1) << round
	if n&(n-1) == 0 && n <= 1<<32 {
		return Coin{kind: coinMask, mask: uint32((n - 1) &^ (p - 1))}
	}
	return Coin{kind: coinGeneral, n: n, p: p, limit: -n % n}
}

// Fast reports whether FlipFast may stand in for Flip: the coin is a mask
// over the low output word.
func (c *Coin) Fast() bool { return c.kind == coinMask }

// FlipFast is Flip for a coin that reports Fast, small enough to inline
// into a round's per-node loop (Flip, with its rejection loop, is not).
func (c *Coin) FlipFast(state, inc uint64) (next uint64, hit bool) {
	low := state*pcgMultiplier + inc // the Uint64's second draw permutes this
	return low*pcgMultiplier + inc, output(low)&c.mask == 0
}

// Flip performs the trial on the generator (state, inc) and returns the
// generator's next state with the outcome.
func (c *Coin) Flip(state, inc uint64) (next uint64, hit bool) {
	switch c.kind {
	case coinAlways:
		return state, true
	case coinMask:
		return c.FlipFast(state, inc)
	}
	for {
		low := state*pcgMultiplier + inc
		v := uint64(output(state))<<32 | uint64(output(low))
		state = low*pcgMultiplier + inc
		if v >= c.limit {
			return state, v%c.n < c.p
		}
	}
}
