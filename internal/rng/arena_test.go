package rng

import (
	"fmt"
	"testing"
)

// refBernoulliPow2 is RNG.BernoulliPow2 as it stood before the trial moved
// into Coin — Bernoulli(2^round, n) on top of Uint64n, unless the
// probability is 1 — kept as the reference Coin is checked against.
func refBernoulliPow2(r *RNG, round uint, n uint64) bool {
	if n == 0 {
		panic("rng: BernoulliPow2 with zero population")
	}
	if round >= 64 {
		return true
	}
	p := uint64(1) << round
	if p >= n {
		return true
	}
	return r.Bernoulli(p, n)
}

// TestCoinIsBernoulliPow2 is the coin's property: for every round and
// bound — 1, powers of two up to and past 2^32, non-powers, bounds above
// 2^32, rounds at and past 64 — a flip has the outcome of the reference
// trial and leaves the generator in the same state, through Flip, through
// FlipFast where the coin offers it, and through BernoulliPow2.
func TestCoinIsBernoulliPow2(t *testing.T) {
	bounds := []uint64{1, 2, 3, 4, 5, 7, 8, 1000, 1024, 4080, 4096, 1<<20 - 16, 1 << 20, 1<<31 - 1, 1 << 31,
		1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<33 + 5, 1 << 34, 1<<63 - 25, 1 << 63, 1<<63 + 1, 1<<64 - 1}
	rounds := []uint{0, 1, 2, 3, 9, 10, 11, 12, 19, 20, 30, 31, 32, 33, 34, 62, 63, 64, 65, 1 << 20}
	fast := 0
	for _, n := range bounds {
		for _, round := range rounds {
			coin := NewCoin(round, n)
			ref, viaFlip, viaPow2 := New(n, uint64(round)), New(n, uint64(round)), New(n, uint64(round))
			hits := 0
			for i := 0; i < 400; i++ {
				want := refBernoulliPow2(ref, round, n)
				var got bool
				if coin.Fast() && i%2 == 0 {
					viaFlip.state, got = coin.FlipFast(viaFlip.state, viaFlip.inc)
					fast++
				} else {
					viaFlip.state, got = coin.Flip(viaFlip.state, viaFlip.inc)
				}
				if got != want || *viaFlip != *ref {
					t.Fatalf("n=%d round=%d flip %d: coin %v leaving %+v, reference %v leaving %+v", n, round, i, got, *viaFlip, want, *ref)
				}
				if got := viaPow2.BernoulliPow2(round, n); got != want || *viaPow2 != *ref {
					t.Fatalf("n=%d round=%d flip %d: BernoulliPow2 %v leaving %+v, reference %v leaving %+v", n, round, i, got, *viaPow2, want, *ref)
				}
				if want {
					hits++
				}
			}
			if always := round >= 64 || uint64(1)<<round >= n; always && (hits != 400 || *ref != *New(n, uint64(round))) {
				t.Fatalf("n=%d round=%d: a probability-1 coin hit %d of 400 times or drew", n, round, hits)
			}
		}
	}
	if fast == 0 {
		t.Fatal("no bound took the fast path; the case tests nothing")
	}
}

// TestCoinRejectionLoop drives the general coin through Uint64n's
// rejection branch, which a bound near 2^63 takes about every other draw.
func TestCoinRejectionLoop(t *testing.T) {
	const n = 1<<63 + 1
	coin := NewCoin(62, n)
	ref, got := New(3, 4), New(3, 4)
	double := 0
	for i := 0; i < 2000; i++ {
		before := *ref
		want := refBernoulliPow2(ref, 62, n)
		var hit bool
		got.state, hit = coin.Flip(got.state, got.inc)
		if hit != want || *got != *ref {
			t.Fatalf("flip %d: coin %v leaving %+v, reference %v leaving %+v", i, hit, *got, want, *ref)
		}
		before.Uint64()
		if before != *ref {
			double++
		}
	}
	if double < 500 {
		t.Fatalf("only %d of 2000 flips redrew; the rejection branch is barely exercised", double)
	}
}

// TestAdvanceIsRepeatedDraws pins the jump against the walk it replaces.
func TestAdvanceIsRepeatedDraws(t *testing.T) {
	for _, delta := range []uint64{0, 1, 2, 3, 7, 64, 1000, 65537} {
		walked, jumped := New(5, 9), New(5, 9)
		for i := uint64(0); i < delta; i++ {
			walked.Uint32()
		}
		jumped.Advance(delta)
		if *walked != *jumped {
			t.Fatalf("Advance(%d) = %+v, %d draws leave %+v", delta, *jumped, delta, *walked)
		}
	}
	// Jumps compose, whatever their size.
	a, b := New(8, 1), New(8, 1)
	a.Advance(1<<40 + 12345)
	a.Advance(1<<41 + 1)
	b.Advance(1<<40 + 12345 + 1<<41 + 1)
	if *a != *b {
		t.Fatalf("two jumps leave %+v, their sum %+v", *a, *b)
	}
}

// TestSplitArenaIsTheSplitWalk pins that an arena over [lo, hi) holds
// exactly the children a full SplitValue walk from child 0 derives there —
// states in the column, increments derived from the ids — for ranges at
// the start, in the middle and at the end of the id space, through Sub
// views, and that it leaves the root where the walk to hi would.
func TestSplitArenaIsTheSplitWalk(t *testing.T) {
	for _, tc := range []struct {
		n, lo, hi int
		seed      uint64
	}{{1, 0, 1, 1}, {10, 0, 10, 2}, {10, 3, 7, 2}, {100, 99, 100, 3}, {4096, 1024, 2048, 4}, {70000, 65536, 70000, 5}, {50, 20, 20, 6}} {
		name := fmt.Sprintf("n=%d [%d, %d) seed=%d", tc.n, tc.lo, tc.hi, tc.seed)
		walk := New(tc.seed, 0xc02e)
		children := make([]RNG, tc.n)
		var atHi RNG
		for i := range children {
			if i == tc.hi {
				atHi = *walk
			}
			children[i] = walk.SplitValue(uint64(i))
		}
		if tc.hi == tc.n {
			atHi = *walk
		}
		root := New(tc.seed, 0xc02e)
		a := root.SplitArena(tc.lo, tc.hi)
		if len(a.States()) != tc.hi-tc.lo || *root != atHi {
			t.Fatalf("%s: arena of %d generators leaving the root at %+v, want %d and %+v", name, len(a.States()), *root, tc.hi-tc.lo, atHi)
		}
		for i := range a.States() {
			if got := a.At(i); got != children[tc.lo+i] {
				t.Fatalf("%s: slot %d is %+v, the walk's child %d is %+v", name, i, got, tc.lo+i, children[tc.lo+i])
			}
		}
		if n := len(a.States()); n >= 3 {
			v := a.Sub(1, n-1)
			for i := range v.States() {
				if got := v.At(i); got != children[tc.lo+1+i] {
					t.Fatalf("%s: view slot %d is %+v, want child %d %+v", name, i, got, tc.lo+1+i, children[tc.lo+1+i])
				}
			}
			v.States()[0]++ // a view shares the column
			if a.States()[1] != children[tc.lo+1].state+1 {
				t.Fatalf("%s: a write through a view did not reach the arena", name)
			}
		}
		blank := New(99, 0xc02e).ChildArena(tc.lo, tc.hi) // increments depend on no seed
		for i := range blank.States() {
			if blank.States()[i] != 0 || blank.Inc(i) != children[tc.lo+i].inc {
				t.Fatalf("%s: blank slot %d has state %#x increment %#x, want 0 and %#x", name, i, blank.States()[i], blank.Inc(i), children[tc.lo+i].inc)
			}
		}
	}
}

// TestArenaOfCarriesForeignIncrements pins the arena laid over generators
// that share no root: each slot is the generator whose columns it holds.
func TestArenaOfCarriesForeignIncrements(t *testing.T) {
	gens := []*RNG{New(1, 2), New(3, 4), New(5, 6).Split(7)}
	states, incs := make([]uint64, len(gens)), make([]uint64, len(gens))
	for i, g := range gens {
		states[i], incs[i] = g.State()
	}
	a := ArenaOf(states, incs)
	for i, g := range gens {
		if got := a.At(i); got != *g {
			t.Fatalf("slot %d is %+v, want %+v", i, got, *g)
		}
	}
	if v := a.Sub(1, 3); len(v.States()) != 2 || v.At(1) != *gens[2] {
		t.Fatalf("view slot 1 is %+v, want %+v", v.At(1), *gens[2])
	}
}
