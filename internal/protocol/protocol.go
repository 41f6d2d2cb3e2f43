// Package protocol implements the distributed maximum/minimum computation
// of the paper's §4 (Algorithm 2, MAXIMUMPROTOCOL) together with the
// baseline protocols used in experiments: gather-everything, the
// sequential-probe scheme underlying the Ω(log n) lower bound of Theorem
// 4.3, and a shout-echo style domain binary search from the related work.
//
// Algorithm 2 proceeds in rounds r = 0..ceil(log2 N). In round r every
// still-active node whose key exceeds the best value broadcast so far
// sends its key to the coordinator with probability min(1, 2^r/N) and
// deactivates itself afterwards; nodes whose key is below the broadcast
// best silently deactivate. The final round has sending probability 1, so
// the protocol is Las Vegas: the result is always the true maximum and
// only the message count is random. Theorem 4.2 bounds the expected number
// of node-to-coordinator messages by 2·log2(N) + 1.
//
// The node-side per-round step lives in Field.Round (kernel.go), so that
// the in-process executions of this package and the node banks of
// internal/coord (which every other engine hosts) share one implementation
// and can be checked for message-count equivalence under identical seeds.
// Neither keeps per-node execution state: an execution holds one bit per
// node saying who is still in play (InPlay) and visits only those.
//
// For the ε-approximate mode (arXiv:1601.04448), an execution may run
// with a tolerance (Field.Run): participants retire from the remaining
// rounds early once the broadcast best is within the (1±ε) band of their
// own key, trading the exactness of the result — the winner is then only
// guaranteed ε-close to the true extremum — for fewer expected bids. A
// zero tolerance is bit-identical to the exact protocol.
//
// Executions over participant records (Participant, Scratch.Maximum) are
// for callers outside the engines — the protocol experiments and the
// per-round baseline; every engine runs Field.Run over its node bank.
package protocol

import (
	"math/bits"
	"slices"

	"repro/internal/comm"
	"repro/internal/order"
	"repro/internal/rng"
	"repro/internal/wire"
)

// Participant describes one node taking part in a protocol execution at a
// fixed time instant: its id, its current key, and its private generator,
// which an execution draws once, for the identity the node's coins of that
// execution are keyed by (rng.Coin) — private in earnest: two participants
// sharing one would still draw different identities, in slice order.
type Participant struct {
	ID  int
	Key order.Key
	RNG *rng.RNG
}

// Result is the outcome of one protocol execution.
type Result struct {
	// OK is false when the participant set was empty; the remaining fields
	// are then meaningless.
	OK bool
	// ID and Key identify the winning node and its value.
	ID  int
	Key order.Key
	// Rounds is the number of broadcast rounds executed.
	Rounds int
}

// Rounds returns the number of sampling rounds Algorithm 2 executes for an
// upper bound of n participants: ceil(log2 n) + 1 (rounds 0..ceil(log2 n)).
// It panics for n <= 0.
func Rounds(n int) int {
	return ceilLog2(n) + 1
}

func ceilLog2(n int) int {
	if n <= 0 {
		panic("protocol: population bound must be positive")
	}
	if n == 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Winner is one bid an execution kept — the node and its true key — in the
// wire's form, so that a digest can carry an execution's winners as they
// are (wire.ShardDigest.SetWinners).
type Winner = wire.Bid

// Top keeps the want best of the bids offered to it, best first, in one
// buffer that grows to the most winners ever kept and is reused from
// execution to execution (so what a selection holds is bounded by the bids
// it saw, whatever it was told to want). It is the whole
// coordinator-side state of a selection — Exec charges and counts rounds
// around one — and the digest mergers of internal/shardrun fold their
// children's winner lists through the same Offer: a bid displaces the
// want-th best only if it is strictly greater, so among equal keys the
// earlier offer stays ahead (bids arrive in ascending id order, children in
// ascending range order: ties resolve towards the smaller id everywhere).
type Top struct {
	want    int
	minimum bool
	win     []Winner
}

// Reset empties the buffer for a selection of the want best bids — largest
// keys, or smallest when minimum is set — keeping its storage.
func (t *Top) Reset(want int, minimum bool) {
	if want < 1 {
		panic("protocol: an execution wants at least one winner")
	}
	t.want, t.minimum, t.win = want, minimum, t.win[:0]
}

// cmp maps a winner's key into the comparison domain.
func (t *Top) cmp(key int64) order.Key {
	if t.minimum {
		return order.Neg(order.Key(key))
	}
	return order.Key(key)
}

// Offer takes one bid into account.
func (t *Top) Offer(id int, key order.Key) {
	c, i := t.cmp(int64(key)), len(t.win)
	if i == t.want {
		if c <= t.cmp(t.win[i-1].Key) {
			return
		}
		i--
	} else {
		if i == cap(t.win) { // doubling, but no further than want: what a reset needs, no more
			t.win = append(make([]Winner, 0, min(t.want, max(2*i, 4))), t.win...)
		}
		t.win = t.win[:i+1]
	}
	for ; i > 0 && t.cmp(t.win[i-1].Key) < c; i-- {
		t.win[i] = t.win[i-1]
	}
	t.win[i] = Winner{ID: id, Key: int64(key)}
}

// Winners returns the bids kept, best first: a view valid until the next
// Reset.
func (t *Top) Winners() []Winner { return t.win }

// Exec is the coordinator-side round driver of one execution of Algorithm 2
// generalized from the maximum to the want largest keys (the top-k
// selection of Biermeier et al., arXiv:1709.07259): it keeps the want best
// bids delivered so far (Top), broadcasts the want-th best as the cut the
// next round's node decisions compare against, charges one Up per bid and
// one Bcast per finished round. The final round samples with probability 1,
// so every node above the final cut has bid and the winners are exactly the
// want largest keys, in order; with want = 1 it is Algorithm 2 itself, bid
// for bid. It is the single copy of that loop shared by every execution
// substrate — the in-process run below, internal/core on either host, the
// networked engine (internal/netrun) and the shard agents
// (internal/shardrun) all drive it:
//
//	ex.Begin(bound, want, minimum, rec, nil, step)
//	for ex.More() {
//	    r, cut := ex.Round(), ex.Best()
//	    // substrate-specific: run round r (Field.Round) against cut over
//	    // every cohort member still in play, delivering every send in
//	    // ascending node-id order
//	    ex.Bid(id, key) // per send
//	    ex.EndRound()
//	}
//	winners := ex.Winners()
//
// Bids within a round must be delivered in ascending node id order — the
// order every engine's fan-in produces — so that ties (possible only
// before the distinctness injection is established) resolve identically
// everywhere. The zero Exec is ready for Begin and keeps its winner buffer
// across executions.
type Exec struct {
	bound  int
	rounds int
	r      int
	step   int64
	rec    comm.Recorder
	tr     *comm.Trace
	top    Top
}

// Begin starts one execution for the want best keys with the given
// population bound, in the minimum (order-dual) sense when minimum is set,
// charging onto rec and optionally tracing with the given step tag.
func (e *Exec) Begin(bound, want int, minimum bool, rec comm.Recorder, tr *comm.Trace, step int64) {
	e.bound, e.rounds, e.r, e.step, e.rec, e.tr = bound, Rounds(bound), 0, step, rec, tr
	e.top.Reset(want, minimum)
}

// NewExec returns an execution begun, with a buffer of its own.
func NewExec(bound, want int, minimum bool, rec comm.Recorder, tr *comm.Trace, step int64) Exec {
	var e Exec
	e.Begin(bound, want, minimum, rec, tr, step)
	return e
}

// More reports whether another round remains to be executed.
func (e *Exec) More() bool { return e.r < e.rounds }

// Round returns the index of the current round.
func (e *Exec) Round() int { return e.r }

// Best returns the cut broadcast at the end of the previous round — the
// want-th best bid so far, −∞ until want bids arrived; for want = 1 the
// paper's max_{r-1} — in the execution's comparison domain: the value the
// current round's node decisions compare against.
func (e *Exec) Best() order.Key {
	if t := &e.top; len(t.win) == t.want {
		return t.cmp(t.win[t.want-1].Key)
	}
	return order.NegInf
}

// Bid delivers one node's send of the current round: it charges the Up
// message and takes the bid into the running selection. key is the node's
// true key; the order-dual negation for minimum executions happens
// internally.
func (e *Exec) Bid(id int, key order.Key) {
	e.rec.RecordSized(comm.Up, 1, wire.SizeBid(id, int64(key)))
	e.tr.Append(comm.Event{Step: e.step, Kind: comm.Up, From: id, To: comm.Coordinator, Payload: int64(key), Note: "proto send"})
	e.top.Offer(id, key)
}

// EndRound closes the current round: it charges the end-of-round broadcast
// (carrying the cut, updated with this round's bids) and advances to the
// next round.
func (e *Exec) EndRound() {
	if !e.More() {
		panic("protocol: EndRound past the final round")
	}
	cut := e.Best()
	e.rec.RecordSized(comm.Bcast, 1, wire.SizeBest(e.r, int64(cut)))
	e.tr.Append(comm.Event{Step: e.step, Kind: comm.Bcast, From: comm.Coordinator, To: comm.Everyone, Payload: int64(cut), Note: "proto round"})
	e.r++
}

// Winners returns the execution's outcome: the at most want nodes that
// hold the best keys, best first (none: the cohort was empty). The view is
// valid until the next Begin.
func (e *Exec) Winners() []Winner { return e.top.Winners() }

// Result returns the best winner: OK is false when no participant ever
// sent (the cohort was empty).
func (e *Exec) Result() Result {
	if w := e.top.Winners(); len(w) > 0 {
		return Result{OK: true, ID: w[0].ID, Key: order.Key(w[0].Key), Rounds: e.r}
	}
	return Result{OK: false, ID: -1, Key: order.NegInf, Rounds: e.r}
}

// Scratch holds the reusable buffers of executions over participant
// records — the records gathered into a Field, and its in-play set — so
// that a protocol run on a hot path performs no heap allocation. The zero
// value is ready to use; a Scratch may be reused across executions but
// not shared concurrently.
type Scratch struct {
	keys []order.Key
	ids  []uint64
	in   InPlay
	ex   Exec
}

// Maximum executes Algorithm 2 over the given participants with population
// upper bound N >= len(parts), recording one Up message per node send and
// one Bcast per round on rec; step tags optional trace events with the
// simulation time. It gathers the participants' keys into a field, draws
// every participant's generator once for its coin identity of this
// execution — so that executions over the same records are independent
// whatever their step — and runs the kernel over all of it. The empty
// participant set yields Result{OK: false} and no messages. It allocates
// nothing once s has seen the participant count.
func (s *Scratch) Maximum(parts []Participant, bound int, rec comm.Recorder, tr *comm.Trace, step int64) Result {
	n := len(parts)
	if cap(s.keys) < n {
		s.keys, s.ids = make([]order.Key, n), make([]uint64, n)
	}
	f := Field{Keys: s.keys[:n], ids: s.ids[:n]}
	for i := range parts {
		f.Keys[i], f.ids[i] = parts[i].Key, parts[i].RNG.Uint64()
	}
	s.in.EnlistExcept(n, nil)
	s.ex.Begin(bound, 1, false, rec, tr, step)
	f.run(&s.in, &s.ex, order.Tol{}, 0, parts)
	return s.ex.Result()
}

// TopExtract repeatedly applies Maximum, on one Scratch, to find the
// `count` largest keys in descending order, excluding prior winners,
// exactly as FILTERRESET does (Algorithm 1 lines 37-39). Each application
// uses the same population bound. If fewer than count participants exist,
// all of them are returned.
func TopExtract(parts []Participant, count, bound int, rec comm.Recorder, tr *comm.Trace, step int64) []Result {
	if count < 0 {
		panic("protocol: negative extraction count")
	}
	var s Scratch
	remaining := append([]Participant(nil), parts...)
	out := make([]Result, 0, count)
	for len(out) < count && len(remaining) > 0 {
		res := s.Maximum(remaining, bound, rec, tr, step)
		out = append(out, res)
		i := slices.IndexFunc(remaining, func(p Participant) bool { return p.ID == res.ID })
		remaining = slices.Delete(remaining, i, i+1)
	}
	return out
}

// GatherAll is the naive protocol: every participant sends its key once and
// the coordinator takes the maximum locally. It uses exactly len(parts) Up
// messages plus one broadcast to announce the query, and serves as the
// trivially correct baseline.
func GatherAll(parts []Participant, rec comm.Recorder, tr *comm.Trace, step int64) Result {
	if len(parts) == 0 {
		return Result{OK: false, ID: -1, Key: order.NegInf}
	}
	rec.RecordSized(comm.Bcast, 1, wire.SizeQuery())
	tr.Append(comm.Event{Step: step, Kind: comm.Bcast, From: comm.Coordinator, To: comm.Everyone, Note: "gather"})
	best := parts[0]
	for _, p := range parts {
		rec.RecordSized(comm.Up, 1, wire.SizeBid(p.ID, int64(p.Key)))
		if p.Key > best.Key {
			best = p
		}
	}
	return Result{OK: true, ID: best.ID, Key: best.Key, Rounds: 1}
}

// SequentialMaxima models the optimal deterministic probing scheme from the
// proof of Theorem 4.3: the coordinator visits nodes in the given order and
// a node replies only when its key exceeds the running maximum (the
// coordinator keeps nodes informed of the running maximum for free in this
// accounting, matching the proof's "skipping nodes that cannot deliver new
// information"). The number of Up messages is therefore the number of
// left-to-right maxima of the key sequence, whose expectation on a random
// permutation is the harmonic number H_n = Θ(log n) — the quantity the
// lower bound is built from.
func SequentialMaxima(parts []Participant, rec comm.Recorder, tr *comm.Trace, step int64) Result {
	if len(parts) == 0 {
		return Result{OK: false, ID: -1, Key: order.NegInf}
	}
	best := parts[0]
	first := true
	for _, p := range parts {
		if first || p.Key > best.Key {
			rec.RecordSized(comm.Up, 1, wire.SizeBid(p.ID, int64(p.Key)))
			tr.Append(comm.Event{Step: step, Kind: comm.Up, From: p.ID, To: comm.Coordinator, Payload: int64(p.Key), Note: "seq maxima"})
			best = p
			first = false
		}
	}
	return Result{OK: true, ID: best.ID, Key: best.Key, Rounds: len(parts)}
}

// DomainSearch finds the maximum by shout-echo style binary search over the
// key domain [lo, hi]: the coordinator broadcasts a threshold, every node
// above it replies, and the search narrows until a single node remains.
// This is the style of selection protocol from the shout-echo literature
// the paper contrasts with ([13, 14]); it minimizes rounds, not messages,
// and serves as an ablation baseline. Keys must lie within [lo, hi].
func DomainSearch(parts []Participant, lo, hi order.Key, rec comm.Recorder, tr *comm.Trace, step int64) Result {
	if len(parts) == 0 {
		return Result{OK: false, ID: -1, Key: order.NegInf}
	}
	if lo > hi {
		panic("protocol: DomainSearch with inverted domain")
	}
	rounds := 0
	// Invariant: the maximum key lies in [lo, hi] and above is the set of
	// nodes known to be > lo (candidates for the maximum).
	for lo < hi {
		mid := order.Midpoint(lo, hi)
		rounds++
		rec.RecordSized(comm.Bcast, 1, wire.SizeMidpoint(int64(mid)))
		tr.Append(comm.Event{Step: step, Kind: comm.Bcast, From: comm.Coordinator, To: comm.Everyone, Payload: int64(mid), Note: "domain search"})
		any := false
		for _, p := range parts {
			if p.Key > mid {
				rec.RecordSized(comm.Up, 1, wire.SizePresence(p.ID))
				any = true
			}
		}
		if any {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo == hi == the maximum key; find its holder locally.
	for _, p := range parts {
		if p.Key == lo {
			return Result{OK: true, ID: p.ID, Key: p.Key, Rounds: rounds}
		}
	}
	panic("protocol: DomainSearch domain did not contain all keys")
}
