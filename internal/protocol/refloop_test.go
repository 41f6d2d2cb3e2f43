package protocol

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/order"
	"repro/internal/rng"
)

// The compacting id-list round loop as it stood before executions ran on
// the struct-of-arrays kernel (Field.Round): the parent commit's Decide,
// Population, Scratch, cohort, run, runParts and Scratch.Run, verbatim but
// for the ref prefix on the names the package still uses, and for the
// trial: a member carried a generator and Decide drew from it; it carries a
// coin identity now, and Decide builds its round's rng.Coin and asks it. It
// is the second independent reference — beside the every-node-every-round
// Sampler of kernel_test.go — that the kernel is checked against.

// Verdict is a node's decision in one round of an execution.
type Verdict uint8

const (
	// Stay: the node's trial failed; it remains in play for the next round.
	Stay Verdict = iota
	// Bid: the trial succeeded; the node sends its key and deactivates
	// (Algorithm 2 line 14).
	Bid
	// Out: the broadcast best dominates the node's key; it deactivates
	// without sending (lines 8-10) and without consuming randomness.
	Out
)

// Decide is the node-local decision of round r for a node still in play:
// the one copy of Algorithm 2's per-node step, shared by this package's
// executions and coord.Nodes.Round. key is the node's key in the
// execution's comparison domain (negated for minimum executions — the
// negation stays with the caller so that Decide inlines into the round
// loops), bound the population bound N, and cut the best broadcast so far
// widened by the execution's tolerance, Tol.WidenHi(best) — the same for
// every node of a round, so callers compute it once per round. A tolerant
// execution thereby retires a node as soon as the best is within the
// (1±ε) band of its key, guaranteeing every participant's key is at most
// WidenHi(winner key) rather than at most the winner key; with a zero
// tolerance cut is best itself. Callers must not consult a node again once
// it answered Bid or Out.
func Decide(key, cut order.Key, r uint, bound uint64, at coinAt) Verdict {
	if cut > key {
		return Out
	}
	if coin := rng.NewCoin(at.seed, at.step, 0, r, bound); coin.Hit(at.id) {
		return Bid
	}
	return Stay
}

// Population is the flat, index-addressed form of a node population:
// node i holds key Keys[i] and flips the coins of identity i under Seed.
// Scratch.Run executes over a member list into it, so engines that already
// keep their nodes this way (internal/core) build no per-execution
// participant records.
type Population struct {
	Keys []order.Key
	Seed uint64
}

// refScratch holds the one reusable per-execution buffer — the list of
// members still in play, 4 bytes per participant — so that a protocol run
// on a hot path performs no heap allocation. The zero value is ready to
// use; a Scratch may be reused across executions but not shared
// concurrently.
type refScratch struct {
	active []int32
}

// list returns a length-n working list from s's buffer, allocating at
// exact capacity when it has to grow (or when s is nil).
func (s *refScratch) list(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	if cap(s.active) < n {
		s.active = make([]int32, n)
	}
	return s.active[:n]
}

// cohort addresses the members of one execution: member i is parts[i],
// of coin identity ident[i], when the caller supplied participant records,
// node i of the flat population otherwise.
type cohort struct {
	parts []Participant
	ident []uint64
	pop   Population
}

func (c *cohort) member(i int32) (id int, key order.Key, at coinAt) {
	if c.parts != nil {
		p := &c.parts[i]
		return p.ID, p.Key, coinAt{id: c.ident[i]}
	}
	return int(i), c.pop.Keys[i], coinAt{seed: c.pop.Seed, id: uint64(i)}
}

// run executes Algorithm 2 over active, the ascending list of c's members
// taking part, which it consumes: each round visits the members still in
// play and rewrites the list in place — dominated members drop out
// silently, members whose trial succeeds bid and drop out, the rest stay.
func run(c cohort, active []int32, bound int, tol order.Tol, rec comm.Recorder, tr *comm.Trace, step int64, minimum bool) Result {
	if len(active) == 0 {
		return Result{OK: false, ID: -1, Key: order.NegInf}
	}
	if bound < len(active) {
		panic(fmt.Sprintf("protocol: bound %d below participant count %d", bound, len(active)))
	}
	ex := NewExec(bound, 1, minimum, rec, tr, step)
	for ex.More() {
		r, cut := uint(ex.Round()), tol.WidenHi(ex.Best())
		kept := active[:0]
		for _, i := range active {
			id, key, at := c.member(i)
			at.step = step
			cmp := key
			if minimum {
				cmp = order.Neg(key)
			}
			switch Decide(cmp, cut, r, uint64(bound), at) {
			case Bid:
				ex.Bid(id, key)
			case Stay:
				kept = append(kept, i)
			}
		}
		active = kept
		ex.EndRound()
	}
	// The final round samples with probability 1, so every participant not
	// dominated earlier has sent; the tracked winner is the true extremum.
	return ex.Result()
}

// refRunParts executes over participant records: the member list is the
// identity over the slice, a member's coin identity one draw of its
// generator.
func refRunParts(parts []Participant, bound int, tol order.Tol, rec comm.Recorder, tr *comm.Trace, step int64, minimum bool, s *refScratch) Result {
	active := s.list(len(parts))
	for i := range active {
		active[i] = int32(i)
	}
	return run(cohort{parts: parts, ident: drawIdents(parts)}, active, bound, tol, rec, tr, step, minimum)
}

// Run executes Algorithm 2 over the given members of pop — node ids in
// ascending order, at most bound of them — in the maximum or (order-dual)
// minimum sense, with tolerance tol (zero for an exact execution). It is
// refRunParts for a population already held flat: identical result and
// charges for the same members, keys and coins. members is read, not
// retained or modified.
func (s *refScratch) Run(pop Population, members []int32, bound int, tol order.Tol, minimum bool, rec comm.Recorder, tr *comm.Trace, step int64) Result {
	active := s.list(len(members))
	copy(active, members)
	return run(cohort{pop: pop}, active, bound, tol, rec, tr, step, minimum)
}
