// Package core implements the paper's primary contribution: the
// filter-based online algorithm for Top-k-Position Monitoring
// (Algorithm 1). A Monitor plays both roles of the model — the coordinator
// and the per-node filter checks — against observation vectors supplied
// one time step at a time, and accounts every message the model would
// charge. It is the only in-process engine, on one of two hosts: the bank
// itself, or internal/runtime's shard pool.
//
// Both roles live in internal/coord, sans I/O: the coordinator's decision
// logic — violation handling, T+/T− tightening, midpoint broadcasts,
// FILTERRESET — is the state machine coord.Machine, and the node side —
// keys, filters, membership bits, who takes part in which
// protocol execution — is the node bank coord.Nodes, the same one every
// other engine hosts. The Monitor owns one machine, one bank over all n
// nodes, the one loop that executes the machine's effects on that bank, the
// engine's input contract (it panics where the public boundary returns an
// error), which steps are swept over the host's views, the protocol
// executions, the accessors, Snapshot/RestoreOn/AppendCheckpoint,
// optional tracing of the installs, the UseGather ablation, and the views
// tests read (Keys, Filters).
//
// What it does not own is where a sweep over a node range runs. The paper
// prices messages only, so where a node's filter check or Bernoulli trial
// executes can change neither a report nor a ledger; and its model is
// synchronous, so an execution's round boundaries are common knowledge, not
// messages, and where the round loop runs is the engine's choice too. The
// two effects that visit a range of nodes' keys — the step's observation
// batch and a protocol execution — therefore run where the monitor picks,
// step by step. A host is the bank cut into disjoint views and a
// parallel-for over them. On a host of several views a dense step is
// swept: the batch is one sweep over the views, and each of the step's
// executions one sweep in which each view runs it whole against its own
// cut and logs its bids; the monitor replays the logs against the true cut
// (protocol.Exec.Replay) — the networked engine's execution, without the
// links. A sparse step — and every step on a host of one view, as Inline
// is — runs whole on the bank in place, an execution as the bank's round
// loop (coord.Nodes.Run): never half in the views, whose violator lists
// are their own (coord.Nodes.Sub). Everything else the machine asks for touches one node
// (Winner, OrderViolated, SetOrderBounds), one shared cell (Midpoint,
// ApplyBounds) or the membership bitset's n/64 words (ResetBegin): the
// Monitor runs it on the full-range bank itself, which the Host contract —
// a host touches the bank only inside Sweep — makes race-free on any host.
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

// Host is where the sweeps over the monitor's node bank run: the bank cut
// into disjoint views, and a parallel-for over them. Its contract is what
// lets the Monitor execute every other effect on the full-range bank
// directly: a host touches a view only inside Sweep, and whatever it did
// there happens-before Sweep returns — between calls it is parked. A host
// of one view is never swept: the monitor runs everything on the bank in
// place. How large a view must be for a sweep to pay is the host's
// decision, made when it cuts the bank (internal/runtime's Sharded).
// internal/runtime's shard pool keeps the contract with one channel send
// and one completion per view swept.
type Host interface {
	// Views returns the views, in ascending order of their ranges, which
	// tile the bank.
	Views() []*coord.Nodes
	// Sweep calls f(v) once for every view index v and returns when every
	// call has: one after the other, or in parallel.
	Sweep(f func(v int))
	// Close releases what the host holds; the monitor must not step after.
	Close()
}

// Inline is the sequential host: the bank itself, its one view.
func Inline(bank *coord.Nodes) Host { return inline{bank} }

type inline struct{ bank *coord.Nodes }

func (h inline) Views() []*coord.Nodes { return []*coord.Nodes{h.bank} }
func (inline) Sweep(f func(int))       { f(0) }
func (inline) Close()                  {}

// observeRange feeds view its part of one step's batch (ids strictly
// increasing; nil for the dense form), in ascending id order, stopping at
// the first value the bank rejects. It is the node-local filter check of
// Algorithm 1 line 3, restricted to the touched nodes: an untouched node's
// value lies inside its filter by the per-step invariant. With k == n all
// filters are [−∞, +∞] and nobody ever violates. The dense form is the
// bank's range kernel over the view's slice of vals
// (coord.Nodes.ObserveDense); the sparse form, which only the full-range
// bank is fed, one coord.Nodes.Observe per touched node.
func observeRange(view *coord.Nodes, ids []int, vals []int64, step int64) (anyTop, anyOut bool, err error) {
	if ids == nil {
		return view.ObserveDense(vals[view.Lo():view.Hi()], step)
	}
	for j, id := range ids {
		top, out, err := view.Observe(id, vals[j], step)
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
// list are reused, the running execution and the sweep functions live in
// the monitor — and a violation-free step via ObserveDelta costs O(#changed
// nodes) and zero heap allocations.
type Monitor struct {
	cfg    Config
	mach   *coord.Machine
	bank   *coord.Nodes // all n nodes
	host   Host         // sweeps the bank's views; parked between calls
	closed bool

	ex    protocol.Exec // the running protocol execution
	split *split        // nil on a host of one view
	swept bool          // the step in flight is dense and runs on the views
}

// upOnly charges an execution's bids and drops its round broadcasts: the
// UseGather ablation's gather-all protocol pays one query instead.
type upOnly struct{ comm.Recorder }

func (r *upOnly) RecordSized(kind comm.Kind, n, bytes int64) {
	if kind == comm.Up {
		r.Recorder.RecordSized(kind, n, bytes)
	}
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
	bank := coord.NewNodes(cfg.N, 0, cfg.N, cfg.Seed, false, tol)
	if cfg.Ordered {
		bank.EnableOrderFilters(cfg.K) // before a host takes its views
	}
	return assemble(cfg, coord.New(coord.Config{N: cfg.N, K: cfg.K, Tol: tol, Ordered: cfg.Ordered}), bank, start)
}

// assemble wires a machine and its full-range bank into a monitor and
// starts the host over the bank; NewOn and RestoreOn funnel through it.
// Only a host of several views gets a split: a host of one is never swept,
// the monitor runs the batch and the executions on the bank itself.
func assemble(cfg Config, mach *coord.Machine, bank *coord.Nodes, start func(*coord.Nodes) Host) *Monitor {
	m := &Monitor{cfg: cfg, mach: mach, bank: bank, host: start(bank)}
	if views := m.host.Views(); len(views) > 1 {
		m.split = newSplit(m.host, views)
	}
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
// on internal/runtime's pool. Idempotent; stepping a closed monitor panics,
// on any host.
func (m *Monitor) Close() {
	m.closed = true
	m.host.Close()
}

// Filters assembles the current filter assignment — the machine's
// membership under its installed bounds, which between steps are the
// bank's — for invariant checking.
func (m *Monitor) Filters() *filter.Set { return m.mach.Filters() }

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
// loop that executes the machine's effects in process: the batch and the
// protocol executions swept over the host's views, everything else on the
// bank directly (the host is parked; see Host).
func (m *Monitor) observe(ids []int, vals []int64) []int {
	if m.closed {
		panic("core: step after Close")
	}
	step := m.mach.BeginStep()
	var anyTop, anyOut bool
	var err error
	if m.swept = m.split != nil && ids == nil; m.swept {
		anyTop, anyOut, err = m.split.observe(vals, step)
	} else {
		anyTop, anyOut, err = observeRange(m.bank, ids, vals, step)
	}
	if err != nil {
		panic("core: " + err.Error()) // the lowest rejected node's, on any host
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
			m.bank.Winner(eff.Target, true)
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
// winners: on the views when the step is swept (split.exec), else on the
// bank in place. Under the UseGather ablation it is the same
// execution with population bound 1: one round in which every cohort member
// bids — sending with probability 1 against a cut of −∞ — charged as the
// gather-all protocol charges: one query broadcast, one bid per member,
// nothing for an empty cohort.
func (m *Monitor) exec(eff coord.Effect) []protocol.Winner {
	rec, bound, step := m.mach.Recorder(eff.Phase), eff.Bound, m.mach.Step()
	if m.cfg.UseGather {
		rec, bound = &upOnly{rec}, 1
	}
	m.ex.Begin(bound, eff.Want, coord.MinimumTag(eff.Tag), rec, m.cfg.Trace, step)
	if m.swept {
		m.split.exec(&m.ex, eff, step, coord.ExecTol(eff.Tag, m.mach.Tol()))
	} else {
		m.bank.Run(eff.Tag, step, &m.ex, nil)
	}
	if m.cfg.UseGather && len(m.ex.Winners()) > 0 {
		m.mach.Recorder(eff.Phase).RecordSized(comm.Bcast, 1, wire.SizeQuery())
		m.cfg.Trace.Append(comm.Event{Step: step, Kind: comm.Bcast, From: comm.Coordinator, To: comm.Everyone, Note: "gather"})
	}
	return m.ex.Winners()
}

// split is what a monitor keeps to sweep several views: a dense step's
// values fed to every view, and a protocol execution run whole on every
// view against the view's own cut, its bids logged, the logs replayed
// against the true cut (protocol.Exec.Replay) as the networked engine's
// coordinator replays its hosts' — one sweep, whatever the rounds. A
// monitor on a host of one view has none.
type split struct {
	host  Host
	views []*coord.Nodes
	parts []part

	// The sweep's inputs.
	vals            []int64
	step            int64
	tag             uint8
	bound, want     int
	logs            []wire.BidLog
	observe1, exec1 func(int) // bound once: a sweep must not allocate them
}

// part is what one view made of the step's batch, and its run of a split
// execution.
type part struct {
	top, out bool
	err      error
	ex       protocol.Exec
	log      wire.BidLogWriter
	buf      []byte // the log, reused from execution to execution
}

func newSplit(host Host, views []*coord.Nodes) *split {
	s := &split{host: host, views: views, parts: make([]part, len(views)), logs: make([]wire.BidLog, len(views))}
	s.observe1 = func(v int) {
		p := &s.parts[v]
		p.top, p.out, p.err = observeRange(s.views[v], nil, s.vals, s.step)
	}
	s.exec1 = func(v int) {
		p := &s.parts[v]
		p.ex.Begin(s.bound, s.want, coord.MinimumTag(s.tag), comm.Discard, nil, s.step)
		p.log.Begin(p.buf[:0], s.views[v].Lo())
		s.views[v].Run(s.tag, s.step, &p.ex, &p.log)
		p.buf = p.log.End()
	}
	return s
}

// observe feeds one dense step's values to every view, swept, and folds
// what they made of them.
func (s *split) observe(vals []int64, step int64) (anyTop, anyOut bool, err error) {
	s.vals, s.step = vals, step
	s.host.Sweep(s.observe1)
	s.vals = nil
	for v := range s.parts {
		p := &s.parts[v]
		anyTop, anyOut = anyTop || p.top, anyOut || p.out
		if err == nil {
			err = p.err
		}
	}
	return anyTop, anyOut, err
}

// exec runs the execution ex was begun for, of effect eff, as one sweep in
// which every view runs it whole and logs its bids, which ex replays
// against the true cut, tolerant by tol.
func (s *split) exec(ex *protocol.Exec, eff coord.Effect, step int64, tol order.Tol) {
	s.tag, s.bound, s.want, s.step = eff.Tag, ex.Bound(), eff.Want, step
	s.host.Sweep(s.exec1)
	for v, view := range s.views {
		if err := s.logs[v].Open(s.parts[v].buf, view.Lo(), view.Hi(), protocol.Rounds(s.bound)); err != nil {
			panic("core: " + err.Error())
		}
	}
	ex.Replay(s.logs, tol, nil)
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
	m.cfg.Trace.Append(comm.Event{Step: m.mach.Step(), Kind: comm.Bcast, From: comm.Coordinator, To: comm.Everyone, Payload: payload, Note: note})
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
