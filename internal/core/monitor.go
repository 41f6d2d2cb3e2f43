// Package core implements the paper's primary contribution: the
// filter-based online algorithm for Top-k-Position Monitoring
// (Algorithm 1). A Monitor plays both roles of the model — the coordinator
// and the per-node filter checks — against observation vectors supplied
// one time step at a time, and accounts every message the model would
// charge.
//
// The coordinator's decision logic — violation handling, T+/T− tightening,
// midpoint broadcasts, FILTERRESET — lives in the sans-I/O state machine
// of internal/coord, which this package (like every other engine) merely
// drives. The Monitor's own job is the node side and the substrate: it
// holds the node-local keys, filters and generators flat, describes each
// protocol cohort to the round kernel's in-play set, and executes the
// machine's effects by direct procedure calls (protocol executions via
// internal/protocol, which also serves the UseGather ablation and optional
// tracing).
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
//     the top k+1 values from scratch (k+1 maximum-protocol executions)
//     and reinstalls midpoint filters. Otherwise the handler broadcasts a
//     new midpoint of [T−, T+] and the filters tighten around it.
//
// The monitor reports the top-k node ids after every step; the sequence of
// reports is exact at all times (the protocols are Las Vegas), which the
// simulation oracle asserts step by step in tests.
package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/filter"
	"repro/internal/order"
	"repro/internal/protocol"
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

// Monitor runs Algorithm 1. Create with New; it is not safe for concurrent
// use (the concurrent engine lives in internal/runtime).
//
// The monitor is allocation-free in steady state: every per-step buffer —
// the violator lists, the reset's extracted list, the protocol's in-play
// set — is owned by the monitor and reused, and the filter set keeps the
// reported top-k slice cached. A violation-free step via ObserveDelta
// costs O(#changed nodes) and zero heap allocations.
//
// Cohorts are never materialized, neither as participant records nor as id
// lists of their members: a cohort is the short ascending id list that
// describes it — its members (violators, the top-k side) or, for the two
// dense ones, the nodes it leaves out (the top-k for the outsider side,
// the winners extracted so far for a FILTERRESET) — from which the in-play
// set, one bit a node, is enlisted per execution.
type Monitor struct {
	cfg   Config
	codec order.Codec
	tol   order.Tol
	fs    *filter.Set
	mach  *coord.Machine

	// field is the flat node population, 16 bytes a node: field.Keys[i] is
	// node i's current key (rewritten as deltas arrive), generator i of
	// field.Gens its protocol randomness.
	field protocol.Field
	// inPlay is the running execution's set of members still in play.
	inPlay protocol.InPlay

	step int64

	// Reusable scratch buffers; see the type comment.
	violTop   []int // violating former top-k nodes
	violOut   []int // violating outsiders
	extracted []int // winners of the running reset, ascending
	topBuf    []int // membership install scratch
	inReset   bool  // a FILTERRESET is in flight this step

	// ord is the node side of the ordered mode: ord[i] is the order filter
	// of fs.Top()[i]. nil in the set mode.
	ord []filter.Interval
}

// New validates the configuration and returns a monitor. The first
// Observe or ObserveDelta call performs the paper's time-0 FILTERRESET
// initialization; until a node's first delta arrives it is treated as
// holding the value 0.
func New(cfg Config) *Monitor {
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
	m := &Monitor{
		cfg:   cfg,
		codec: order.NewCodec(cfg.N),
		tol:   tol,
		fs:    filter.NewSet(cfg.N, cfg.K),
		mach:  coord.New(coord.Config{N: cfg.N, K: cfg.K, Tol: tol, Ordered: cfg.Ordered}),
		field: protocol.Field{
			Keys: make([]order.Key, cfg.N),
			Gens: protocol.NodeRoot(cfg.Seed).SplitArena(0, cfg.N),
		},
		extracted: make([]int, 0, cfg.K+1),
		topBuf:    make([]int, 0, cfg.K),
	}
	for i := range m.field.Keys {
		m.field.Keys[i] = m.encode(0, i)
	}
	if cfg.Ordered {
		m.ord = make([]filter.Interval, cfg.K)
	}
	return m
}

// MaxValue returns the largest observation magnitude the monitor accepts
// (symmetrically, -MaxValue is the smallest): order.MaxValueFor of the
// monitor's configuration. The public boundary (package topk) validates
// against it and returns an error; this internal engine panics, as for
// its other input contracts.
func (m *Monitor) MaxValue() int64 {
	return order.MaxValueFor(m.cfg.N, m.cfg.DistinctValues)
}

// encode maps one observation into the key domain per the DistinctValues
// mode. Out-of-domain values panic in either mode: Encode's own range
// check covers the injection, and the distinct path must reject the
// values that would collide with the ±∞ sentinels instead of silently
// corrupting the order.
func (m *Monitor) encode(v int64, id int) order.Key {
	if m.cfg.DistinctValues {
		if v > order.MaxDistinctValue || v < -order.MaxDistinctValue {
			panic(fmt.Sprintf("core: node %d value %d collides with the key-domain sentinels", id, v))
		}
		return order.Key(v)
	}
	return m.codec.Encode(v, id)
}

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

// Err returns nil: the sequential engine has no links to lose, so it
// never degrades (the link-backed engines report abandoned recovery here).
func (m *Monitor) Err() error { return nil }

// Close is a no-op: the sequential engine holds no goroutines or links.
func (m *Monitor) Close() {}

// Filters exposes the current filter assignment for invariant checking.
func (m *Monitor) Filters() *filter.Set { return m.fs }

// Top returns the currently reported top-k node ids in ascending order.
// The returned slice is a read-only view owned by the monitor; it is
// invalidated by the next observation that changes the top set, and
// mutating it corrupts the monitor. Use AppendTop to copy.
func (m *Monitor) Top() []int { return m.fs.Top() }

// AppendTop appends the currently reported top-k ids (ascending) to dst
// and returns the extended slice. The appended values are copies owned by
// the caller: they stay valid across later steps, and mutating them never
// affects the monitor.
func (m *Monitor) AppendTop(dst []int) []int { return m.fs.AppendTop(dst) }

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
		keys[i] = m.encode(v, i)
	}
}

// Observe processes one time step of observations (vals[i] is node i's new
// value) and returns the top-k node ids in ascending order. The returned
// slice is a read-only view owned by the monitor, valid until the next
// step that changes the top set; use AppendTop to copy. Observe is the
// dense form of ObserveDelta: every node is treated as touched.
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
	// Validate fully before mutating any key, so a panic on bad input
	// leaves the monitor untouched (matching the runtime engine).
	prev := -1
	for _, id := range ids {
		if id <= prev || id >= m.cfg.N {
			panic(fmt.Sprintf("core: delta ids must be strictly increasing in [0, %d), got %d after %d", m.cfg.N, id, prev))
		}
		prev = id
	}
	return m.observe(ids, vals)
}

// observe runs one step in which vals[j] is the new value of node ids[j] —
// of node j when ids is nil, the dense form's implicit 0..n-1.
func (m *Monitor) observe(ids []int, vals []int64) []int {
	keys := m.field.Keys
	for j, v := range vals {
		id := j
		if ids != nil {
			id = ids[j]
		}
		keys[id] = m.encode(v, id)
	}
	m.step = m.mach.BeginStep()

	// Node-local filter checks (Algorithm 1 line 3), restricted to the
	// touched nodes: an untouched node's value lies inside its filter by
	// the per-step invariant. With k == n all filters are [−∞, +∞] and
	// this loop never fires.
	m.violTop, m.violOut = m.violTop[:0], m.violOut[:0]
	for j := range vals {
		id := j
		if ids != nil {
			id = ids[j]
		}
		if violated, _ := m.fs.Interval(id).Violates(keys[id]); !violated {
			continue
		}
		if m.fs.InTop(id) {
			m.violTop = append(m.violTop, id)
		} else {
			m.violOut = append(m.violOut, id)
		}
	}

	eff := m.mach.FinishStep(len(m.violTop) > 0, len(m.violOut) > 0)
	for eff.Kind != coord.EffDone {
		switch eff.Kind {
		case coord.EffExec:
			res := m.exec(eff)
			eff = m.mach.ExecDone(res.OK, res.ID, res.Key)
		case coord.EffResetBegin:
			m.beginReset()
			eff = m.mach.Ack()
		case coord.EffWinner:
			m.extract(eff.Target)
			eff = m.mach.Ack()
		case coord.EffMidpoint, coord.EffBounds:
			m.installMidpoint(eff)
			eff = m.mach.Ack()
		case coord.EffOrderCheck:
			key := keys[eff.Target]
			violated, _ := m.orderFilter(eff.Target).Violates(key)
			eff = m.mach.OrderDone(key, violated)
		case coord.EffOrderBounds:
			*m.orderFilter(eff.Target) = filter.Interval{Lo: eff.Lo, Hi: eff.Hi}
			eff = m.mach.Ack()
		default:
			panic(fmt.Sprintf("core: unknown coordinator effect %d", eff.Kind))
		}
	}
	return m.fs.Top()
}

// exec runs one protocol execution over the effect's cohort, dispatching
// per the UseGather ablation flag. Violation and handler executions run
// with the monitor's tolerance (a no-op at ε=0); reset extractions are
// always exact (see coord.TolerantTag).
func (m *Monitor) exec(eff coord.Effect) protocol.Result {
	m.enlist(eff.Tag)
	rec := m.mach.Recorder(eff.Phase)
	minimum := coord.MinimumTag(eff.Tag)
	if m.cfg.UseGather {
		return m.gather(minimum, rec)
	}
	tol := m.tol
	if !coord.TolerantTag(eff.Tag) {
		tol = order.Tol{}
	}
	return m.field.Run(&m.inPlay, eff.Bound, tol, minimum, rec, m.cfg.Trace, m.step)
}

// gather is the UseGather ablation's execution: it materializes the
// enlisted cohort for the naive gather-all protocol, which is the one
// consumer of participant records left (an experiment, never a hot path).
// Gathering flips no coin, so the records carry no generator.
func (m *Monitor) gather(minimum bool, rec comm.Recorder) protocol.Result {
	ids := m.inPlay.AppendTo(nil)
	parts := make([]protocol.Participant, len(ids))
	for i, id := range ids {
		parts[i] = protocol.Participant{ID: id, Key: m.field.Keys[id]}
	}
	if minimum {
		return protocol.GatherAllMin(parts, rec, m.cfg.Trace, m.step)
	}
	return protocol.GatherAll(parts, rec, m.cfg.Trace, m.step)
}

// enlist puts the cohort of one protocol tag in play. Violator cohorts
// were collected during the step's filter checks and the top-k side is the
// filter set's cached membership: short id lists. The outsider side is
// everyone but that membership and the reset cohort everyone but the
// winners extracted so far (beginReset/extract): dense cohorts, enlisted
// as the whole field minus a short skip list.
func (m *Monitor) enlist(tag uint8) {
	switch tag {
	case coord.TagViolMin:
		m.inPlay.Enlist(m.cfg.N, m.violTop)
	case coord.TagViolMax:
		m.inPlay.Enlist(m.cfg.N, m.violOut)
	case coord.TagHandMin:
		m.inPlay.Enlist(m.cfg.N, m.fs.Top())
	case coord.TagHandMax:
		m.inPlay.EnlistExcept(m.cfg.N, m.fs.Top())
	case coord.TagReset:
		m.inPlay.EnlistExcept(m.cfg.N, m.extracted)
	default:
		panic(fmt.Sprintf("core: unknown protocol tag %d", tag))
	}
}

// orderFilter returns member id's slot in the order-filter table.
func (m *Monitor) orderFilter(id int) *filter.Interval {
	i, ok := slices.BinarySearch(m.fs.Top(), id)
	if !ok {
		panic(fmt.Sprintf("core: order effect for non-member %d", id))
	}
	return &m.ord[i]
}

// beginReset starts FILTERRESET's extraction sequence: all nodes become
// candidates again.
func (m *Monitor) beginReset() {
	m.inReset = true
	m.extracted = m.extracted[:0]
}

// extract removes an extraction winner from the reset's candidates by
// inserting it into the ascending list of at most k+1 extracted ids.
func (m *Monitor) extract(id int) {
	i, found := slices.BinarySearch(m.extracted, id)
	if found {
		panic(fmt.Sprintf("core: extraction winner %d was extracted before", id))
	}
	m.extracted = slices.Insert(m.extracted, i, id)
}

// installMidpoint applies a midpoint (or ε-mode band) broadcast: after a
// reset it first installs the machine's freshly extracted membership
// (SetMembership does not retain its input), then re-anchors every
// filter.
func (m *Monitor) installMidpoint(eff coord.Effect) {
	payload := int64(eff.Mid)
	note, resetNote := "midpoint", "filter reset"
	if eff.Kind == coord.EffBounds {
		payload = int64(eff.Lo)
		note, resetNote = "bounds", "filter reset bounds"
		if m.cfg.Trace != nil {
			// Band installs carry Lo as the payload and the upper end in
			// the note, so ε-mode traces stay distinguishable from
			// point-midpoint installs and both ends are recoverable.
			note = fmt.Sprintf("bounds hi=%d", eff.Hi)
			resetNote = fmt.Sprintf("filter reset bounds hi=%d", eff.Hi)
		}
	}
	if m.inReset {
		m.inReset = false
		m.topBuf = m.mach.AppendTop(m.topBuf[:0])
		m.fs.SetMembership(m.topBuf)
		if !eff.Full {
			m.cfg.Trace.Append(comm.Event{Step: m.step, Kind: comm.Bcast, From: comm.Coordinator, To: comm.Everyone, Payload: payload, Note: resetNote})
		}
	} else {
		m.cfg.Trace.Append(comm.Event{Step: m.step, Kind: comm.Bcast, From: comm.Coordinator, To: comm.Everyone, Payload: payload, Note: note})
	}
	if eff.Kind == coord.EffBounds {
		m.fs.AssignBand(eff.Lo, eff.Hi)
	} else {
		m.fs.AssignMidpoint(eff.Mid) // k == n (eff.Full): [−∞, +∞] whatever the bound
	}
}

// Keys exposes the key vector of the last observed step (for invariant
// checks in tests).
func (m *Monitor) Keys() []order.Key {
	return slices.Clone(m.field.Keys)
}
