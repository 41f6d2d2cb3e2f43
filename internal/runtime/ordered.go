package runtime

import (
	"sort"

	"repro/internal/comm"
	"repro/internal/order"
	"repro/internal/wire"
)

// OrderedRuntime runs the ordered top-k monitor (the paper's §5 extension,
// see core.OrderedMonitor) on the sharded concurrent engine. The set layer
// is the unchanged Runtime; the order layer adds a second, node-local
// filter — the interval between the midpoints to the node's ranking
// neighbors' last reports — and a coordinator-driven cascade that settles
// within each time step.
//
// Accounting matches core.OrderedMonitor exactly: one Up per order-filter
// report, one Down per reassigned order interval, and nothing for the
// rebuild after a FILTERRESET (the reset's extraction broadcasts already
// revealed every member's value, so each member can derive its own
// neighbor midpoints locally). The equivalence test in this package pins
// reports and counts against the sequential implementation.
type OrderedRuntime struct {
	rt *Runtime

	est     map[int]order.Key
	ordLo   map[int]order.Key
	ordHi   map[int]order.Key
	ordered []int // member ids, rank 1 first
}

// NewOrdered starts an ordered concurrent monitor. Callers must Close it.
func NewOrdered(cfg Config) *OrderedRuntime {
	return &OrderedRuntime{
		rt:    start(cfg, true),
		est:   make(map[int]order.Key),
		ordLo: make(map[int]order.Key),
		ordHi: make(map[int]order.Key),
	}
}

// Close releases the node goroutines. Idempotent.
func (ot *OrderedRuntime) Close() { ot.rt.Close() }

// Counts returns total message counts.
func (ot *OrderedRuntime) Counts() comm.Counts { return ot.rt.Counts() }

// Bytes returns the total encoded size of the charged messages.
func (ot *OrderedRuntime) Bytes() comm.Bytes { return ot.rt.Bytes() }

// Ledger exposes the per-phase breakdown; order-layer traffic is in the
// handler phase, mirroring core.OrderedMonitor.
func (ot *OrderedRuntime) Ledger() *comm.Ledger { return ot.rt.Ledger() }

// Top returns the current ranking, largest value first.
func (ot *OrderedRuntime) Top() []int { return append([]int(nil), ot.ordered...) }

// Observe processes one time step and returns the ranking.
func (ot *OrderedRuntime) Observe(vals []int64) []int {
	resetsBefore := ot.rt.Stats().Resets
	ot.rt.Observe(vals)

	if ot.rt.Stats().Resets != resetsBefore || len(ot.ordered) == 0 {
		ot.rebuild()
		return ot.Top()
	}
	ot.cascade()
	return ot.Top()
}

// rebuild reinitializes the order layer after a membership change, using
// the keys the reset extraction already revealed (rt.lastKeys). No
// messages are charged; nodes receive their bounds over the control plane
// because they could derive them from the extraction broadcasts.
func (ot *OrderedRuntime) rebuild() {
	clear(ot.est)
	clear(ot.ordLo)
	clear(ot.ordHi)
	ot.ordered = ot.ordered[:0]
	for _, id := range ot.rt.Top() {
		ot.est[id] = ot.rt.lastKeys[id]
		ot.ordered = append(ot.ordered, id)
	}
	ot.sortByEst()
	ot.installBounds(comm.Discard, true)
}

// cascade settles the order filters for the current step: members whose
// current key left their interval report it (counted Up), the coordinator
// re-sorts and reassigns intervals (counted Down per change), until quiet.
func (ot *OrderedRuntime) cascade() {
	rec := ot.rt.mach.Recorder(comm.PhaseHandler)
	for {
		changed := false
		for _, id := range ot.ordered {
			rp := ot.rt.unicast(id, shardCmd{kind: cOrderCheck})
			if len(rp.sends) > 0 {
				ot.est[id] = rp.sends[0].key
				comm.RecordSized(rec, comm.Up, 1, wire.SizeBid(id, int64(rp.sends[0].key)))
				changed = true
			}
		}
		if !changed {
			return
		}
		ot.sortByEst()
		ot.installBounds(rec, false)
	}
}

// sortByEst orders members by estimate, descending.
func (ot *OrderedRuntime) sortByEst() {
	sort.Slice(ot.ordered, func(a, b int) bool {
		return ot.est[ot.ordered[a]] > ot.est[ot.ordered[b]]
	})
}

// installBounds computes the neighbor-midpoint intervals and ships each
// member's bounds, charging one Down per member whose interval changed.
// With force set (rebuild after a reset), every member receives its
// bounds unconditionally — stale node-side intervals from an earlier
// membership must not survive — but nothing is charged, matching the
// sequential engine (members can derive the bounds from the reset's
// extraction broadcasts).
func (ot *OrderedRuntime) installBounds(rec comm.Recorder, force bool) {
	for pos, id := range ot.ordered {
		lo, hi := order.NegInf, order.PosInf
		if pos > 0 {
			hi = order.Midpoint(ot.est[id], ot.est[ot.ordered[pos-1]])
		}
		if pos < len(ot.ordered)-1 {
			lo = order.Midpoint(ot.est[ot.ordered[pos+1]], ot.est[id])
		}
		changed := lo != ot.ordLo[id] || hi != ot.ordHi[id]
		if changed || force {
			ot.ordLo[id], ot.ordHi[id] = lo, hi
			if changed {
				comm.RecordSized(rec, comm.Down, 1, wire.SizeBounds(id, int64(lo), int64(hi)))
			}
			ot.rt.unicast(id, shardCmd{kind: cOrderBounds, lo: lo, hi: hi})
		}
	}
}
