package rng

import (
	"math"
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

// refHit is the keyed trial spelled out with no round's worth of hoisting
// and no mask: the value node id reads, Uint64n's rejection rule on it —
// whatever the bound, a power of two included — and whether any attempt
// was rejected. It is the reference Coin is checked against.
func refHit(seed uint64, step int64, tag uint8, round uint, n, id uint64) (hit, redrew bool) {
	if n == 0 {
		panic("rng: coin with zero population")
	}
	if round >= 64 || uint64(1)<<round >= n {
		return true, false
	}
	key := refMix(refMix(refMix(seed+0x9e3779b97f4a7c15)+uint64(step)) + (uint64(tag)<<32 + uint64(round)))
	state := key + id*0x9e3779b97f4a7c15
	v := refMix(state)
	if limit := -n % n; v < limit { // 2^64 mod n: the values past the last whole multiple of n
		redrew = true
		for state = v; v < limit; v = refMix(state) {
			state += 0x9e3779b97f4a7c15
		}
	}
	return v%n < uint64(1)<<round, redrew
}

var (
	coinBounds = []uint64{1, 2, 3, 4, 5, 7, 8, 1000, 1024, 4080, 4096, 1<<20 - 16, 1 << 20, 1<<31 - 1, 1 << 31,
		1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<33 + 5, 1 << 34, 1<<63 - 25, 1 << 63, 1<<63 + 1, 1<<64 - 1}
	coinRounds = []uint{0, 1, 2, 3, 9, 10, 11, 12, 19, 20, 30, 31, 32, 33, 34, 62, 63, 64, 65, 1 << 20}
)

// TestCoinIsBernoulliPow2 is the coin's property. For every round and
// bound — 1, powers of two up to and past 2^32, non-powers, bounds above
// 2^32, rounds at and past 64 — a hit is the reference trial's, through Hit
// and through HitMasked where the coin offers it; a probability-1 coin is
// the zero Coin, whose empty mask every id passes. And the trial is
// Bernoulli(2^round/n): over 2^18 ids the hit count of a mask coin and of a
// general one is within five standard deviations of its mean, for every
// probability from 1/2 down to 2^-10.
func TestCoinIsBernoulliPow2(t *testing.T) {
	masked := 0
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
				if coin.Masked() {
					masked++
					if got := coin.HitMasked(id); got != want {
						t.Fatalf("n=%d round=%d id=%d: HitMasked %v, reference %v", n, round, id, got, want)
					}
				}
			}
		}
	}
	if masked == 0 {
		t.Fatal("no bound took the masked path; the case tests nothing")
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
	if redraws < 500 {
		t.Fatalf("only %d of 2000 trials redrew; the rejection branch is barely exercised", redraws)
	}
	if hits < 900 || hits > 1100 {
		t.Fatalf("%d hits in 2000 trials of probability 1/2", hits)
	}
}

// BenchmarkCoinHit times a round's worth of masked trials, a node.
func BenchmarkCoinHit(b *testing.B) {
	coin := NewCoin(1, 2, 3, 4, 1<<20)
	hits := 0
	for i := 0; i < b.N; i++ {
		if coin.HitMasked(uint64(i)) {
			hits++
		}
	}
	sinkHits = hits
}

var sinkHits int
