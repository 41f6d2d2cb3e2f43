// Package core implements the paper's primary contribution: the
// filter-based online algorithm for Top-k-Position Monitoring
// (Algorithm 1). A Monitor plays both roles of the model — the coordinator
// and the per-node filter checks — against observation vectors supplied
// one time step at a time, and accounts every message the model would
// charge. It is the only in-process engine: the sequential and the
// concurrent engine are this Monitor on two hosts.
//
// Both roles live in internal/coord, sans I/O: the coordinator's decision
// logic — violation handling, T+/T− tightening, midpoint broadcasts,
// FILTERRESET — is the state machine coord.Machine, and the node side —
// keys, filters, membership bits, who takes part in which
// protocol execution — is the node bank coord.Nodes, the same one every
// other engine hosts. The Monitor owns one machine, one bank over all n
// nodes, the one loop that executes the machine's effects on that bank, the
// engine's input contract (it panics where the public boundary returns an
// error), the accessors, Snapshot/Restore/AppendCheckpoint, optional
// tracing of the installs, the UseGather ablation, and the views tests and
// the oracle read (EncodeAll, Keys, Filters).
//
// What it does not own is where a sweep over a node range runs. The paper
// prices messages only, so where a node's filter check or Bernoulli trial
// executes can change neither a report nor a ledger; the two effects that
// visit a range of nodes' keys — the step's observation batch and a
// protocol round — therefore go through the Host seam. Inline, the
// sequential host, is the bank itself swept on the calling goroutine;
// internal/runtime's shard pool fans the same sweeps out over disjoint views
// of the bank. Everything else the machine asks for touches one node
// (Winner, OrderViolated, SetOrderBounds), one shared cell (Midpoint,
// ApplyBounds) or the membership bitset's n/64 words (ResetBegin): the
// Monitor runs it on the full-range bank itself, which the Host contract —
// a host touches the bank only inside its methods — makes race-free on any
// host, so no host has a command for it.
//
// The flow per time step follows the paper exactly:
//
//  1. Every node checks its filter locally. Nodes that were in top-k at the
//     previous step and now violate run MINIMUMPROTOCOL(k) among
//     themselves; violating outsiders run MAXIMUMPROTOCOL(n-k).
//  2. If anything was communicated, FILTERVIOLATIONHANDLER completes the
//     picture: if no outsider communicated, it runs MAXIMUMPROTOCOL over
//     all outsiders; otherwise it runs MINIMUMPROTOCOL over all top-k
//     nodes. It then lowers T+ / raises T− with the learned extrema.
//  3. If T+ < T− the top-k set may have changed and FILTERRESET recomputes
//     the top k+1 values from scratch and reinstalls midpoint filters —
//     in one protocol execution for all k+1 of them (protocol.Exec; the
//     paper runs k+1 maximum executions, see DESIGN.md "The reset is one
//     sweep"). Otherwise the handler broadcasts a
//     new midpoint of [T−, T+] and the filters tighten around it.
//
// The monitor reports the top-k node ids after every step; the sequence of
// reports is exact at all times (the protocols are Las Vegas), which the
// simulation oracle asserts step by step in tests.
package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/filter"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/wire"
)

// Config parameterizes a Monitor.
type Config struct {
	// N is the number of nodes, K the size of the monitored top set
	// (1 <= K <= N).
	N, K int
	// Seed drives all protocol randomness; runs are reproducible given it.
	Seed uint64
	// DistinctValues asserts that the caller guarantees pairwise distinct
	// observations at every time step (the paper's model assumption). When
	// false (the default), the monitor applies the order-preserving
	// injection key = v*n + (n-1-i), breaking ties by smaller node id.
	DistinctValues bool
	// Epsilon selects the ε-approximate mode (0 <= Epsilon < 1): filters
	// widen to (1±ε) bands, violation steps whose learned extrema still
	// fit one band skip the FILTERRESET, and violation/handler protocol
	// executions run with the ε-tolerant cut. Reports are then valid
	// ε-approximations of the top-k (sim.EpsValid) rather than exact; 0
	// (the default) is bit-identical to the exact algorithm.
	Epsilon float64
	// UseGather replaces every MAXIMUMPROTOCOL / MINIMUMPROTOCOL execution
	// with the naive gather-all protocol (M(n) = n instead of O(log n)).
	// The filter logic is unchanged. This isolates the contribution of the
	// randomized protocol in the ablation experiment E12.
	UseGather bool
	// Ordered selects the coordinator's ordered mode (the paper's §5
	// outlook, coord.Config.Ordered): the monitor also tracks the ranking of
	// the top-k by value, reported by AppendRanking.
	Ordered bool
	// Trace, when non-nil, captures communication events for debugging.
	Trace *comm.Trace
}

// Stats exposes counters describing a monitor's execution so far. It is
// the coordinator core's Stats type; every engine reports it identically
// for the same seed.
type Stats = coord.Stats

// Host runs the two operations of a step that sweep a range of nodes, on
// behalf of the one Monitor whose full-range bank it was started over. The
// contract is what lets the Monitor execute every other effect on that bank
// directly: a host touches the bank only inside these methods, and whatever
// it did there happens-before the method returns — between calls it is
// parked. Inline keeps the contract trivially; internal/runtime's shard pool
// keeps it with a command/reply channel pair per call.
type Host interface {
	// Observe ingests one step's batch — vals[j] is the new value of node
	// ids[j] (strictly increasing), of node j when ids is nil: nil, not
	// merely empty, is the dense form — and reports whether any former
	// top-k member and any outsider violated its filter. The first
	// out-of-domain value, by node id, is returned as the bank's error.
	Observe(ids []int, vals []int64, step int64) (anyTop, anyOut bool, err error)
	// Round is coord.Nodes.Round over all n nodes: bid sees every send in
	// ascending node id order, on the calling goroutine.
	Round(tag uint8, r int, best order.Key, bound int, step int64, bid func(id int, key order.Key))
	// Engine is the wire.Engine* fingerprint the monitor's checkpoint
	// envelopes carry, so a frame never restores onto another host kind.
	Engine() uint8
	// Close releases what the host holds; the monitor must not step after.
	Close()
}

// Inline is the sequential host: the bank itself, swept on the calling
// goroutine.
func Inline(bank *coord.Nodes) Host { return inline{bank} }

type inline struct{ *coord.Nodes } // Round is the bank's

func (h inline) Observe(ids []int, vals []int64, step int64) (bool, bool, error) {
	return ObserveRange(h.Nodes, ids, vals, step)
}
func (inline) Engine() uint8 { return wire.EngineSeq }
func (inline) Close()        {}

// ObserveRange feeds view its part of one step's batch (Host.Observe's ids
// and vals, ids strictly increasing): the nodes of [view.Lo(), view.Hi())
// among them, in ascending id order, stopping at the first value the bank
// rejects. It is the node-local filter check of Algorithm 1 line 3,
// restricted to the touched nodes: an untouched node's value lies inside
// its filter by the per-step invariant. With k == n all filters are
// [−∞, +∞] and nobody ever violates. The dense form is the bank's range
// kernel over the view's slice of vals (coord.Nodes.ObserveDense), the
// sparse form one coord.Nodes.Observe per touched node.
func ObserveRange(view *coord.Nodes, ids []int, vals []int64, step int64) (anyTop, anyOut bool, err error) {
	lo, hi := view.Lo(), view.Hi()
	if ids == nil {
		return view.ObserveDense(vals[lo:hi], step)
	}
	lo = sort.SearchInts(ids, lo)
	hi = lo + sort.SearchInts(ids[lo:], hi)
	for j := lo; j < hi; j++ {
		top, out, err := view.Observe(ids[j], vals[j], step)
		if err != nil {
			return anyTop, anyOut, err
		}
		anyTop, anyOut = anyTop || top, anyOut || out
	}
	return anyTop, anyOut, nil
}

// Monitor runs Algorithm 1. Create with New (or NewOn, for another host
// than Inline); it is not safe for concurrent use — steps are globally
// ordered in the model, and what parallelism there is belongs to the host.
//
// The monitor holds no per-node state of its own: the machine has the
// membership, the bank everything a node knows. On the inline host it is
// allocation-free in steady state — the bank's in-play set and violator
// list are reused, the running execution and its bid callback live in the
// monitor — and a violation-free step via ObserveDelta costs O(#changed
// nodes) and zero heap allocations.
type Monitor struct {
	cfg  Config
	mach *coord.Machine
	bank *coord.Nodes // all n nodes
	host Host         // sweeps bank's ranges; parked between calls
	step int64

	ex  protocol.Exec        // the running protocol execution
	bid func(int, order.Key) // ex.Bid, bound once: a host call must not allocate it
}

// New validates the configuration and returns a monitor on the inline
// host: the sequential engine. The first Observe or ObserveDelta call
// performs the paper's time-0 FILTERRESET initialization; until a node's
// first delta arrives it is treated as holding the value 0.
func New(cfg Config) *Monitor { return NewOn(cfg, Inline) }

// NewOn is New on the host that start builds over the monitor's bank. The
// bank's coins are the ones every engine flips for the seed, whatever the host.
func NewOn(cfg Config, start func(bank *coord.Nodes) Host) *Monitor {
	if cfg.N <= 0 {
		panic("core: monitor needs N > 0")
	}
	if cfg.K < 1 || cfg.K > cfg.N {
		panic("core: monitor needs 1 <= K <= N")
	}
	if cfg.N > math.MaxInt32 {
		panic("core: monitor needs N <= 2^31-1")
	}
	tol, err := order.NewTol(cfg.Epsilon)
	if err != nil {
		panic("core: " + err.Error())
	}
	bank := coord.NewNodes(cfg.N, 0, cfg.N, cfg.Seed, cfg.DistinctValues, tol)
	if cfg.Ordered {
		bank.EnableOrderFilters(cfg.K) // before a host takes its views
	}
	return assemble(cfg, coord.New(coord.Config{N: cfg.N, K: cfg.K, Tol: tol, Ordered: cfg.Ordered}), bank, start)
}

// assemble wires a machine and its full-range bank into a monitor and
// starts the host over the bank; NewOn and RestoreOn funnel through it.
func assemble(cfg Config, mach *coord.Machine, bank *coord.Nodes, start func(*coord.Nodes) Host) *Monitor {
	m := &Monitor{cfg: cfg, mach: mach, bank: bank, host: start(bank)}
	m.bid = m.ex.Bid
	return m
}

// MaxValue returns the largest observation magnitude the monitor accepts
// (symmetrically, -MaxValue is the smallest): order.MaxValueFor of the
// monitor's configuration. The public boundary (package topk) validates
// against it and returns an error; this internal engine panics, as for
// its other input contracts.
func (m *Monitor) MaxValue() int64 { return m.bank.MaxValue() }

// N returns the node count.
func (m *Monitor) N() int { return m.cfg.N }

// K returns the monitored top set size.
func (m *Monitor) K() int { return m.cfg.K }

// Ledger returns the monitor's message ledger (total and per-phase counts).
func (m *Monitor) Ledger() *comm.Ledger { return m.mach.Ledger() }

// Counts returns the monitor's total message counts. It is the accessor
// the sim.Algorithm interface expects; the per-phase breakdown remains
// available through Ledger.
func (m *Monitor) Counts() comm.Counts { return m.mach.Counts() }

// Bytes returns the total encoded size of the charged messages (the
// sim.ByteCounter accessor).
func (m *Monitor) Bytes() comm.Bytes { return m.mach.Bytes() }

// Stats returns execution counters.
func (m *Monitor) Stats() Stats { return m.mach.Stats() }

// Err returns nil: an in-process host has no links to lose and cannot fail
// independently of the coordinator, so the monitor never degrades (the
// link-backed engines report abandoned recovery here).
func (m *Monitor) Err() error { return nil }

// Close closes the host — a no-op inline, the end of the shard goroutines
// on internal/runtime's pool. Idempotent; stepping a closed monitor panics
// where its host cannot sweep any more.
func (m *Monitor) Close() { m.host.Close() }

// Filters assembles the current filter assignment — the bank's installed
// bounds on the machine's membership — for invariant checking.
func (m *Monitor) Filters() *filter.Set { return m.bank.Filters(m.mach) }

// Top returns the currently reported top-k node ids in ascending order.
// The returned slice is a read-only view owned by the monitor; it is
// invalidated by the next observation that changes the top set, and
// mutating it corrupts the monitor. Use AppendTop to copy.
func (m *Monitor) Top() []int { return m.mach.Top() }

// AppendTop appends the currently reported top-k ids (ascending) to dst
// and returns the extended slice. The appended values are copies owned by
// the caller: they stay valid across later steps, and mutating them never
// affects the monitor.
func (m *Monitor) AppendTop(dst []int) []int { return m.mach.AppendTop(dst) }

// AppendRanking appends the top-k ids by rank, largest value first, to dst
// and returns the extended slice. Only a monitor in the ordered mode tracks
// the ranking; any other appends nothing.
func (m *Monitor) AppendRanking(dst []int) []int { return m.mach.AppendRanking(dst) }

// EncodeAll maps a raw observation vector into the monitor's key domain,
// applying the tie-break injection unless DistinctValues is set. The
// correctness oracle uses it to rank nodes exactly as the monitor does.
func (m *Monitor) EncodeAll(vals []int64, keys []order.Key) {
	if len(vals) != m.cfg.N || len(keys) != m.cfg.N {
		panic("core: EncodeAll length mismatch")
	}
	for i, v := range vals {
		key, err := m.bank.Encode(i, v)
		if err != nil {
			panic("core: " + err.Error())
		}
		keys[i] = key
	}
}

// Observe processes one time step of observations (vals[i] is node i's new
// value) and returns the top-k node ids in ascending order. The returned
// slice is a read-only view owned by the monitor, valid until the next
// step that changes the top set; use AppendTop to copy. Observe is the
// dense form of ObserveDelta: every node is treated as touched.
//
// The input contract, for both forms and on every host: a malformed shape
// (a wrong width, ids out of range or out of order) panics before anything
// is mutated, so the step can be retried. The value domain (MaxValue) is
// the boundary's check — topk and topkmon validate it and return an error —
// and a value that reaches the bank outside it panics, on the calling
// goroutine, with a step in flight: that violation is terminal, the next
// call fails in coord.Machine.BeginStep.
func (m *Monitor) Observe(vals []int64) []int {
	if len(vals) != m.cfg.N {
		panic(fmt.Sprintf("core: observed %d values for %d nodes", len(vals), m.cfg.N))
	}
	return m.observe(nil, vals)
}

// ObserveDelta processes one time step in which only the nodes listed in
// ids changed their values: vals[j] is node ids[j]'s new observation, and
// every other node repeats its previous value. ids must be strictly
// increasing; both slices may be empty (a step where nothing changed) and
// are not retained. The step costs O(len(ids)) plus any protocol work and
// performs no heap allocation when no filter is violated.
//
// Sparse and dense ingestion are interchangeable: feeding the same logical
// value sequence through any mix of Observe and ObserveDelta yields
// identical reports and identical message counts, because a node whose
// value did not change can never newly violate its filter (the monitor
// maintains the invariant that after every step each node's value lies
// inside its assigned filter).
func (m *Monitor) ObserveDelta(ids []int, vals []int64) []int {
	if len(ids) != len(vals) {
		panic(fmt.Sprintf("core: delta has %d ids but %d values", len(ids), len(vals)))
	}
	prev := -1
	for _, id := range ids {
		if id <= prev || id >= m.cfg.N {
			panic(fmt.Sprintf("core: delta ids must be strictly increasing in [0, %d), got %d after %d", m.cfg.N, id, prev))
		}
		prev = id
	}
	if ids == nil {
		ids = []int{} // a step where nothing changed, not the dense form's nil
	}
	return m.observe(ids, vals)
}

// observe runs one step in which vals[j] is the new value of node ids[j] —
// of node j when ids is nil, the dense form's implicit 0..n-1. It is the one
// loop that executes the machine's effects in process: the two range
// sweeps through the host, everything else on the bank directly (the host
// is parked; see Host).
func (m *Monitor) observe(ids []int, vals []int64) []int {
	m.step = m.mach.BeginStep()
	anyTop, anyOut, err := m.host.Observe(ids, vals, m.step)
	if err != nil {
		panic("core: " + err.Error())
	}

	reset := false // a FILTERRESET ran this step: the install is its last act
	eff := m.mach.FinishStep(anyTop, anyOut)
	for eff.Kind != coord.EffDone {
		switch eff.Kind {
		case coord.EffExec:
			eff = m.mach.Deliver(m.exec(eff))
		case coord.EffResetBegin:
			m.bank.ResetBegin()
			reset = true
			eff = m.mach.Ack()
		case coord.EffWinner:
			m.bank.Winner(eff.Target, eff.IsTop)
			eff = m.mach.Ack()
		case coord.EffMidpoint:
			m.bank.Midpoint(eff.Mid, eff.Full)
			m.traceInstall(eff, reset)
			eff = m.mach.Ack()
		case coord.EffBounds:
			m.bank.ApplyBounds(eff.Lo, eff.Hi)
			m.traceInstall(eff, reset)
			eff = m.mach.Ack()
		case coord.EffOrderCheck:
			eff = m.mach.OrderDone(m.bank.OrderViolated(eff.Target))
		case coord.EffOrderBounds:
			m.bank.SetOrderBounds(eff.Target, eff.Lo, eff.Hi)
			eff = m.mach.Ack()
		default:
			panic(fmt.Sprintf("core: unknown coordinator effect %d", eff.Kind))
		}
	}
	return m.mach.Top()
}

// exec runs one protocol execution over the effect's cohort and returns its
// winners: the round loop every substrate runs (shardrun's leaves run this
// very loop), each round one sweep of the host, the banks enlisting the
// cohort at round 0. Under the UseGather ablation it is instead the one
// round in which every cohort member bids — round 0 of population bound 1
// sends with probability 1, and a cut of −∞ dominates nobody — charged as
// the gather-all protocol charges: one query broadcast, one bid per member,
// nothing for an empty cohort.
func (m *Monitor) exec(eff coord.Effect) []protocol.Winner {
	rec, minimum := m.mach.Recorder(eff.Phase), coord.MinimumTag(eff.Tag)
	if m.cfg.UseGather {
		m.ex.Begin(1, eff.Want, minimum, rec, m.cfg.Trace, m.step)
		m.host.Round(eff.Tag, 0, order.NegInf, 1, m.step, m.bid)
		if len(m.ex.Winners()) > 0 {
			rec.RecordSized(comm.Bcast, 1, wire.SizeQuery())
			m.cfg.Trace.Append(comm.Event{Step: m.step, Kind: comm.Bcast, From: comm.Coordinator, To: comm.Everyone, Note: "gather"})
		}
		return m.ex.Winners()
	}
	m.ex.Begin(eff.Bound, eff.Want, minimum, rec, m.cfg.Trace, m.step)
	for m.ex.More() {
		m.host.Round(eff.Tag, m.ex.Round(), m.ex.Best(), eff.Bound, m.step, m.bid)
		m.ex.EndRound()
	}
	return m.ex.Winners()
}

// traceInstall records a midpoint (or ε-mode band) broadcast, noting the
// one that closes a FILTERRESET as such; with k == n (eff.Full) that
// install is no broadcast at all. Band installs carry Lo as the payload and
// the upper end in the note, so ε-mode traces stay distinguishable from
// point-midpoint installs and both ends are recoverable.
func (m *Monitor) traceInstall(eff coord.Effect, reset bool) {
	if m.cfg.Trace == nil || eff.Full {
		return
	}
	payload, note := int64(eff.Mid), "midpoint"
	if reset {
		note = "filter reset"
	}
	if eff.Kind == coord.EffBounds {
		payload, note = int64(eff.Lo), fmt.Sprintf("bounds hi=%d", eff.Hi)
		if reset {
			note = "filter reset " + note
		}
	}
	m.cfg.Trace.Append(comm.Event{Step: m.step, Kind: comm.Bcast, From: comm.Coordinator, To: comm.Everyone, Payload: payload, Note: note})
}

// Keys exposes the key vector of the last observed step (for invariant
// checks in tests).
func (m *Monitor) Keys() []order.Key {
	keys := make([]order.Key, m.cfg.N)
	for id := range keys {
		keys[id] = m.bank.Key(id)
	}
	return keys
}
