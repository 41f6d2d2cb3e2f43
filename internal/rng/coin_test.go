package rng

import (
	"math"
	"math/bits"
	"testing"
)

// refMix is splitmix64's output function, written out a second time.
func refMix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// refHit is the keyed trial spelled out per id, with no round's worth of
// hoisting and no word at a time: the key, the smallest power of two 2^-j
// at least p = 2^round/n, id's bit of the j stream outputs at positions
// 64⌊id/64⌋ … 64⌊id/64⌋+j-1 ANDed, then — n no power of two — Uint64n's
// rejection rule on the thinning stream's output for id, kept below the
// largest power of two at most n, and whether any attempt was rejected.
// It is the reference Coin is checked against.
func refHit(seed uint64, step int64, tag uint8, round uint, n, id uint64) (hit, redrew bool) {
	if n == 0 {
		panic("rng: coin with zero population")
	}
	if round >= 64 || uint64(1)<<round >= n {
		return true, false
	}
	key := refMix(refMix(refMix(seed+0x9e3779b97f4a7c15)+uint64(step)) + (uint64(tag)<<32 + uint64(round)))
	j := uint(0)
	for round+j+1 < 64 && uint64(1)<<(round+j+1) <= n {
		j++
	}
	for t := uint64(0); t < uint64(j); t++ {
		if refMix(key+(id/64*64+t)*0x9e3779b97f4a7c15)>>(id%64)&1 == 0 {
			return false, false
		}
	}
	if n&(n-1) == 0 {
		return true, false
	}
	state := refMix(key^0x9e3779b97f4a7c15) + id*0x9e3779b97f4a7c15
	v := refMix(state)
	if limit := -n % n; v < limit { // 2^64 mod n: the values past the last whole multiple of n
		redrew = true
		for state = v; v < limit; v = refMix(state) {
			state += 0x9e3779b97f4a7c15
		}
	}
	return v%n < uint64(1)<<(round+j), redrew
}

var (
	coinBounds = []uint64{1, 2, 3, 4, 5, 7, 8, 1000, 1024, 4080, 4096, 1<<20 - 16, 1 << 20, 1<<31 - 1, 1 << 31,
		1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<33 + 5, 1 << 34, 1<<63 - 25, 1 << 63, 1<<63 + 1, 1<<64 - 1}
	coinRounds = []uint{0, 1, 2, 3, 9, 10, 11, 12, 19, 20, 30, 31, 32, 33, 34, 62, 63, 64, 65, 1 << 20}
)

// TestCoinIsBernoulliPow2 is the coin's property. For every round and
// bound — 1, powers of two up to and past 2^32, non-powers, bounds above
// 2^32, rounds at and past 64 — a hit is the reference trial's, through Hit
// and through the bit of Word; a probability-1 coin is the zero Coin, whose
// words are all ones. And the trial is Bernoulli(2^round/n): over 2^18 ids
// the hit count of a power-of-two coin and of a thinned one is within five
// standard deviations of its mean, for every probability from 1/2 down to
// 2^-10.
func TestCoinIsBernoulliPow2(t *testing.T) {
	for _, n := range coinBounds {
		for _, round := range coinRounds {
			seed, step, tag := n^0xabc, int64(round)-3, uint8(round%5)
			coin := NewCoin(seed, step, tag, round, n)
			always := round >= 64 || uint64(1)<<round >= n
			if always != (coin == Coin{}) {
				t.Fatalf("n=%d round=%d: probability 1 is %v, the coin is %+v", n, round, always, coin)
			}
			for i := uint64(0); i < 400; i++ {
				id := i * (1 + n>>3)
				want, _ := refHit(seed, step, tag, round, n, id)
				if got := coin.Hit(id); got != want || always && !got {
					t.Fatalf("n=%d round=%d id=%d: Hit %v, reference %v", n, round, id, got, want)
				}
				if got := coin.Word(id>>6)>>(id&63)&1 != 0; got != want {
					t.Fatalf("n=%d round=%d id=%d: Word bit %v, reference %v", n, round, id, got, want)
				}
			}
		}
	}
	const ids = 1 << 18
	for _, n := range []uint64{1 << 10, 1 << 20, 1 << 40, 1000, 1<<20 - 16, 3 << 40} {
		for round := uint(0); round < 64 && uint64(1)<<round < n; round++ {
			p := float64(uint64(1)<<round) / float64(n)
			if p < 1.0/1024 {
				continue
			}
			coin := NewCoin(5, 9, 2, round, n)
			hits := 0
			for id := uint64(0); id < ids; id++ {
				if coin.Hit(id) {
					hits++
				}
			}
			if mean, sd := ids*p, math.Sqrt(ids*p*(1-p)); math.Abs(float64(hits)-mean) > 5*sd {
				t.Fatalf("n=%d round=%d: %d hits over %d ids, want %.0f ± %.0f", n, round, hits, ids, mean, 5*sd)
			}
		}
	}
}

// TestCoinWordStatistics holds the word coin to what Theorem 4.2 assumes
// of a round's trials, over many keys, for power-of-two and thinned bounds
// at probabilities on both sides of the sparse switch: at every bit
// position the hit frequency is within four binomial standard errors of
// 2^round/n; two adjacent bits of a word — and bit 63 of word w with bit 0
// of word w+1, the pair a field split off the word boundary reads across
// two coin words — hit together at p² within four standard errors; Hit
// agrees with the Word bit for every id of a range; and Word is a pure
// function of (seed, step, tag, round, bound, w): a second coin built from
// the same six draws the same word, and changing any one of them changes
// the words.
func TestCoinWordStatistics(t *testing.T) {
	const keys, words = 64, 512
	within := func(hits, trials, p float64) bool {
		return math.Abs(hits-trials*p) <= 4*math.Sqrt(trials*p*(1-p))
	}
	for _, n := range []uint64{1 << 12, 5000, 3 << 10, 1<<20 - 16} {
		for _, round := range []uint{0, 3, 6, 9, 10, 11} {
			if uint64(1)<<round >= n {
				continue
			}
			p := float64(uint64(1)<<round) / float64(n)
			if p < 1.0/512 {
				continue
			}
			var bit, pair [64]float64
			wrap := 0.0
			for k := uint64(0); k < keys; k++ {
				coin := NewCoin(k*7919+n, int64(k), uint8(k%3), round, n)
				prev := uint64(0)
				for w := uint64(0); w < words; w++ {
					word := coin.Word(w)
					for b := 0; b < 64; b++ {
						bit[b] += float64(word >> b & 1)
						if b < 63 {
							pair[b] += float64(word >> b & (word >> (b + 1)) & 1)
						}
					}
					if w > 0 {
						wrap += float64(prev >> 63 & (word & 1))
					}
					prev = word
				}
			}
			trials := float64(keys * words)
			for b := 0; b < 64; b++ {
				if !within(bit[b], trials, p) {
					t.Errorf("n=%d round=%d: bit %d hit %.0f of %.0f times, want p=%.5f", n, round, b, bit[b], trials, p)
				}
				if b < 63 && !within(pair[b], trials, p*p) {
					t.Errorf("n=%d round=%d: bits %d and %d hit together %.0f of %.0f times, want p²=%.6f", n, round, b, b+1, pair[b], trials, p*p)
				}
			}
			if !within(wrap, keys*(words-1), p*p) {
				t.Errorf("n=%d round=%d: bit 63 of a word and bit 0 of the next hit together %.0f of %d times, want p²=%.6f", n, round, wrap, keys*(words-1), p*p)
			}
		}
	}
	for _, n := range []uint64{1 << 12, 5000} {
		coin := NewCoin(1, 2, 3, 10, n)
		for id := uint64(0); id < 1<<14; id++ {
			if coin.Hit(id) != (coin.Word(id>>6)>>(id&63)&1 != 0) {
				t.Fatalf("n=%d id=%d: Hit and the Word bit disagree", n, id)
			}
		}
		again := NewCoin(1, 2, 3, 10, n)
		for name, other := range map[string]Coin{
			"seed": NewCoin(2, 2, 3, 10, n), "step": NewCoin(1, 3, 3, 10, n), "tag": NewCoin(1, 2, 4, 10, n),
			"round": NewCoin(1, 2, 3, 9, n), "bound": NewCoin(1, 2, 3, 10, 2*n),
		} {
			same := 0
			for w := uint64(0); w < 64; w++ {
				if coin.Word(w) != again.Word(w) {
					t.Fatalf("n=%d: two coins of the same six inputs differ at word %d", n, w)
				}
				if coin.Word(w) == other.Word(w) {
					same++
				}
			}
			if same > 8 {
				t.Errorf("n=%d: coins that differ in the %s share %d of 64 words", n, name, same)
			}
		}
		if coin.Word(0) == coin.Word(1) && coin.Word(1) == coin.Word(2) {
			t.Errorf("n=%d: words 0, 1 and 2 are one word", n)
		}
	}
}

// TestCoinsAreIndependent is a χ² check that a trial says nothing about
// its neighbours: the trials of one id under two coins that differ in the
// seed, the step, the tag or the round alone — by one — and the trials of
// ids i and i+1 under one coin fill a 2×2 table as the product of their
// probabilities says, for a mask bound and a general one. Three degrees of
// freedom (the marginals are known, not estimated); 30 is past the
// 99.9999th percentile.
func TestCoinsAreIndependent(t *testing.T) {
	const ids = 1 << 17
	for _, n := range []uint64{1 << 12, 5000} {
		for _, round := range []uint{9, 10, 11} {
			base := NewCoin(7, 1000, 4, round, n)
			for name, other := range map[string]Coin{
				"seed":  NewCoin(8, 1000, 4, round, n),
				"step":  NewCoin(7, 1001, 4, round, n),
				"tag":   NewCoin(7, 1000, 3, round, n),
				"round": NewCoin(7, 1000, 4, round+1, n),
				"id":    base,
			} {
				shift := uint64(0)
				if name == "id" {
					shift = 1
				}
				var table [2][2]float64
				for id := uint64(0); id < ids; id++ {
					a, b := 0, 0
					if base.Hit(id) {
						a = 1
					}
					if other.Hit(id + shift) {
						b = 1
					}
					table[a][b]++
				}
				pa := float64(uint64(1)<<round) / float64(n)
				pb := pa
				if name == "round" {
					pb = math.Min(1, 2*pa)
				}
				chi2 := 0.0
				for a, qa := range []float64{1 - pa, pa} {
					for b, qb := range []float64{1 - pb, pb} {
						if want := ids * qa * qb; want > 0 {
							chi2 += (table[a][b] - want) * (table[a][b] - want) / want
						}
					}
				}
				if chi2 > 30 {
					t.Errorf("n=%d round=%d, coins that differ in the %s: χ² = %.1f over %v", n, round, name, chi2, table)
				}
			}
		}
	}
}

// TestCoinRejectionLoop drives the general coin through the rejection
// branch, which a bound near 2^63 takes about every other trial.
func TestCoinRejectionLoop(t *testing.T) {
	const n = 1<<63 + 1
	coin := NewCoin(3, 4, 1, 62, n)
	redraws, hits := 0, 0
	for id := uint64(0); id < 2000; id++ {
		want, redrew := refHit(3, 4, 1, 62, n, id)
		if got := coin.Hit(id); got != want {
			t.Fatalf("id %d: Hit %v, reference %v", id, got, want)
		}
		if redrew {
			redraws++
		}
		if want {
			hits++
		}
	}
	if redraws < 400 { // about half the ~1000 trials that survive the AND redraw
		t.Fatalf("only %d of 2000 trials redrew; the rejection branch is barely exercised", redraws)
	}
	if hits < 900 || hits > 1100 {
		t.Fatalf("%d hits in 2000 trials of probability 1/2", hits)
	}
}

// BenchmarkCoinWord times the trials of 64 ids of a sparse round, the
// coin a FILTERRESET's early rounds draw at n = 2^20.
func BenchmarkCoinWord(b *testing.B) {
	coin := NewCoin(1, 2, 3, 4, 1<<20)
	hits := 0
	for i := 0; i < b.N; i++ {
		hits += bits.OnesCount64(coin.Word(uint64(i)))
	}
	sinkHits = hits
}

var sinkHits int

// FuzzCoinWord holds Hit, the Word bit and the per-id reference (refHit:
// the AND of j stream bits, then the thinning draw) to one another for any
// seed, step, tag, round, bound and id.
func FuzzCoinWord(f *testing.F) {
	f.Add(uint64(1), int64(0), uint8(0), uint8(0), uint64(4096), uint64(0))
	f.Add(uint64(7), int64(-3), uint8(2), uint8(5), uint64(5000), uint64(4097))
	f.Add(uint64(0), int64(1<<40), uint8(9), uint8(62), uint64(1<<63+1), uint64(1<<62))
	f.Add(uint64(3), int64(5), uint8(1), uint8(64), uint64(3), uint64(63))
	f.Fuzz(func(t *testing.T, seed uint64, step int64, tag, round uint8, n, id uint64) {
		if n == 0 {
			t.Skip()
		}
		r := uint(round % 70)
		coin := NewCoin(seed, step, tag, r, n)
		want, _ := refHit(seed, step, tag, r, n, id)
		if got := coin.Hit(id); got != want {
			t.Fatalf("Hit %v, reference %v", got, want)
		}
		if got := coin.Word(id>>6)>>(id&63)&1 != 0; got != want {
			t.Fatalf("Word bit %v, reference %v", got, want)
		}
	})
}
