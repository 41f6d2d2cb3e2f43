package protocol

import (
	"fmt"
	"math/bits"

	"repro/internal/order"
	"repro/internal/rng"
	"repro/internal/wire"
)

// Field is the struct-of-arrays form of a node population: node i holds one
// entry of a value column, Vals[i], and that is all it holds — its key is
// re-derived where it is read, Vals[i]·Mul + Tie − i, one multiply-add, and
// its coin is a function of its id (rng.Coin), not a generator it carries.
// With Mul the monitor's n and Tie n−1−base, base the global id of node 0,
// the key is the tie-break injection order.Codec.Encode(Vals[i], base+i);
// a field of keys as they are is the unit codec, Mul 1 and Tie 0 (KeyField).
// The column is as wide as its values (wire.Value): a node bank
// (internal/coord) keeps packed 24-bit entries, 3 bytes a node, while
// every value it has held fits 24 bits, int32 entries, 4 bytes, while every
// one fits int32, packed 48-bit entries, 6 bytes, while every one fits 48
// bits, and int64 entries, 8 bytes, from the first that does not.
// It is what the round kernel runs over; every node bank, and so every
// engine, keeps its nodes this way and builds no per-execution participant
// records.
type Field[V wire.Value] struct {
	Vals     []V
	Mul, Tie int64
	// ids, when set, gives node i the coin identity ids[i] in place of its
	// global id: the participant-record executions' (Scratch.Maximum).
	ids []uint64
}

// KeyField returns a field whose node i holds keys[i], whatever it is: the
// unit codec over entries keys[i]+i, which wrap as the key's derivation
// unwraps them.
func KeyField(keys []order.Key) Field[int64] {
	f := Field[int64]{Vals: make([]int64, len(keys)), Mul: 1}
	for i, k := range keys {
		f.Vals[i] = int64(k) + int64(i)
	}
	return f
}

// InPlay is the set of a field's nodes still in play in one execution: a
// two-level bitset, one bit a node plus one bit per 64-node word saying
// whether the word holds anyone. A round visits the members' words in
// ascending order — so bids keep their id order — in O(words + n/4096),
// and clears each member's bit as it bids or drops out; the probability-1
// round therefore leaves the set empty, which is why a completed
// execution needs no cleanup and a checkpoint taken between steps can
// omit the set. The zero value is an empty set that sizes itself on the
// first enlistment; an InPlay may be reused but not shared concurrently.
type InPlay struct {
	words []uint64 // bit i&63 of words[i>>6]: node i is in play
	heads []uint64 // bit w&63 of heads[w>>6]: words[w] != 0
	count int      // nodes in play
}

// Len returns the number of nodes in play.
func (s *InPlay) Len() int { return s.count }

// resize makes s an empty set over n nodes. What an abandoned execution
// left behind is cleared by walking the head words, not the set.
func (s *InPlay) resize(n int) {
	for h, head := range s.heads {
		for ; head != 0; head &= head - 1 {
			s.words[h<<6|bits.TrailingZeros64(head)] = 0
		}
		s.heads[h] = 0
	}
	s.count = 0
	nw := (n + 63) >> 6
	nh := (nw + 63) >> 6
	if cap(s.words) < nw {
		s.words, s.heads = make([]uint64, nw), make([]uint64, nh)
	}
	s.words, s.heads = s.words[:nw], s.heads[:nh]
}

// Enlist makes the set the given distinct nodes of a field of n.
func (s *InPlay) Enlist(n int, ids []int) {
	s.resize(n)
	for _, id := range ids {
		s.Add(id)
	}
}

// Add puts node i in play; a node already in play stays so, counted once.
func (s *InPlay) Add(i int) {
	if s.words[i>>6]>>(i&63)&1 != 0 {
		return
	}
	s.words[i>>6] |= 1 << (i & 63)
	s.heads[i>>12] |= 1 << (i >> 6 & 63)
	s.count++
}

// EnlistExcept makes the set all of [0, n) minus the distinct nodes in
// skip: a dense cohort described by what it leaves out.
func (s *InPlay) EnlistExcept(n int, skip []int) {
	s.Fill(n, func(int) uint64 { return ^uint64(0) })
	for _, id := range skip {
		w := id >> 6
		if s.words[w] &^= 1 << (id & 63); s.words[w] == 0 {
			s.heads[w>>6] &^= 1 << (w & 63)
		}
	}
	s.count -= len(skip)
}

// Fill makes the set, over a field of n nodes, the nodes word reports: bit
// b of word(w) enlists node 64w+b (bits at or past n are ignored).
func (s *InPlay) Fill(n int, word func(w int) uint64) {
	s.resize(n)
	for w := range s.words {
		members := word(w)
		if w == len(s.words)-1 && n&63 != 0 {
			members &= 1<<(n&63) - 1
		}
		if s.words[w] = members; members != 0 {
			s.heads[w>>6] |= 1 << (w & 63)
			s.count += bits.OnesCount64(members)
		}
	}
}

// AppendTo appends the nodes in play to dst in ascending order.
func (s *InPlay) AppendTo(dst []int) []int {
	for w, word := range s.words {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, w<<6|bits.TrailingZeros64(word))
		}
	}
	return dst
}

// Round runs one round of Algorithm 2 over the nodes of f still in play:
// the single copy of the paper's per-node step (lines 8-14), shared by
// this package's executions and coord.Nodes.Round. coin is the round's
// trial for the execution's population bound, cut the best value broadcast
// so far — in the comparison domain, keys negated when minimum is set —
// widened by the execution's tolerance (Tol.WidenHi(best)); both are the
// same for every node of a round, so the caller decides them once. A node
// whose key the cut dominates drops out silently; any other whose trial
// hits — node i's is coin.Hit(base+i), base the global id of node 0 — bids
// — send(base+i, true key), in ascending order of i — and drops out (line
// 14), else stays for the next round. A tolerant execution thereby retires
// a node as soon as the best is within the (1±ε) band of its key,
// guaranteeing every participant's key is at most WidenHi(winner key);
// with a zero tolerance cut is best itself.
//
// The round is one loop over the in-play words, each taking the coin's
// word of its 64 ids (shifted across two coin words when base is not a
// multiple of 64, so any split of a field draws what the whole would).
// While the cut is −∞ or the coin is sparse (p < 2^-6, under one expected
// hit a word) it visits only the members that hit: those the cut
// dominates leave silently, the others bid and leave, and everyone else
// stays. From p ≥ 2^-6 it visits every member and compares its key, so a
// dominated member leaves even when it did not hit, as the paper's step
// says; the probability-1 round empties the set. A dominated member kept
// by a hits-only round would drop out silently in any later round — the
// cut never falls — so the sends are exactly those of consulting every
// member in every round, whichever rounds compact; Theorem 4.2's own
// argument (the members neither retired nor dominated halve per round)
// bounds the compacting work by a few visits per member.
func (f Field[V]) Round(in *InPlay, coin *rng.Coin, cut order.Key, minimum bool, base int, send func(id int, key order.Key)) {
	if in.count == 0 {
		return
	}
	vals, mul, tie, hitsOnly := f.Vals, f.Mul, f.Tie, cut == order.NegInf || coin.Sparse()
	words := coinWords{coin: coin, q: ^uint64(0)}
	for h, head := range in.heads {
		for ; head != 0; head &= head - 1 {
			w := h<<6 | bits.TrailingZeros64(head)
			members := in.words[w]
			var hits uint64
			if f.ids == nil {
				hits = words.at(uint64(base) + uint64(w)<<6)
			} else {
				hits = f.idHits(coin, w, members)
			}
			visit := members
			if hitsOnly {
				visit &= hits
			}
			gone := uint64(0)
			for ; visit != 0; visit &= visit - 1 {
				b := bits.TrailingZeros64(visit)
				i := w<<6 | b
				key := order.Key(wire.Load(vals, i)*mul + tie - int64(i))
				cmp := key
				if minimum {
					cmp = order.Neg(key)
				}
				if cut > cmp {
					gone |= 1 << b
				} else if hits>>b&1 != 0 {
					send(base+i, key)
					gone |= 1 << b
				}
			}
			if gone != 0 {
				in.count -= bits.OnesCount64(gone)
				if in.words[w] = members &^ gone; in.words[w] == 0 {
					in.heads[h] &^= 1 << (w & 63)
				}
			}
		}
	}
}

// coinWords reads a coin's trials 64 ids at a time from any global id,
// keeping the last coin word it drew: the loop over a field that does not
// start on a word boundary draws each coin word once, not twice.
type coinWords struct {
	coin *rng.Coin
	q, w uint64 // coin word q is w
}

// at returns the trials of global ids g … g+63: bit b is id g+b's.
func (c *coinWords) at(g uint64) uint64 {
	q, s := g>>6, g&63
	lo := c.word(q)
	if s == 0 {
		return lo
	}
	return lo>>s | c.word(q+1)<<(64-s)
}

func (c *coinWords) word(q uint64) uint64 {
	if q != c.q {
		c.q, c.w = q, c.coin.Word(q)
	}
	return c.w
}

// idHits returns the trials of the members of word w of a field whose
// nodes carry coin identities of their own (f.ids): bit b is node
// 64w+b's, asked only of the members.
func (f Field[V]) idHits(coin *rng.Coin, w int, members uint64) uint64 {
	var hits uint64
	for ; members != 0; members &= members - 1 {
		b := bits.TrailingZeros64(members)
		if coin.Hit(f.ids[w<<6|b]) {
			hits |= 1 << b
		}
	}
	return hits
}

// Run drives ex — begun by the caller with the execution's bound, want,
// sense and step — to its end over the nodes in play, at most bound of
// them, with tolerance tol (zero for an exact execution) and the coins of
// execution (ex's step, tag 0) under seed: one Up per node send and one
// Bcast per round on ex's recorder, the outcome in ex.Winners. It consumes
// the set. Over the empty set it runs no round and charges nothing. Two
// executions of one seed and step flip the same coins; a caller that runs
// several and wants them independent tells them apart by one of the two.
func (f Field[V]) Run(in *InPlay, ex *Exec, tol order.Tol, seed uint64) {
	f.run(in, ex, tol, seed, nil)
}

// run is Run reporting bids under the ids of parts, when given: node i is
// then parts[i], whatever its id.
func (f Field[V]) run(in *InPlay, ex *Exec, tol order.Tol, seed uint64, parts []Participant) {
	if in.count == 0 {
		return
	}
	if ex.bound < in.count {
		panic(fmt.Sprintf("protocol: bound %d below participant count %d", ex.bound, in.count))
	}
	send := ex.Bid
	if parts != nil {
		send = func(i int, key order.Key) { ex.Bid(parts[i].ID, key) }
	}
	for ex.More() {
		coin := rng.NewCoin(seed, ex.step, 0, uint(ex.Round()), uint64(ex.bound))
		f.Round(in, &coin, tol.WidenHi(ex.Best()), ex.top.minimum, 0, send)
		ex.EndRound()
	}
	// The final round samples with probability 1, so every participant the
	// cut did not dominate earlier has sent; the winners are the true
	// extrema.
}
