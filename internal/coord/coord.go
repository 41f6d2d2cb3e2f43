// Package coord is the sans-I/O core of Algorithm 1: the coordinator's
// decision logic — filter-violation handling, T+/T− tightening, midpoint
// broadcasts and FILTERRESET — as a pure state machine that consumes
// events and emits effects, with no knowledge of goroutines, channels or
// links.
//
// Every execution engine in the repository is a thin adapter that drives
// one Machine over its substrate, the nodes on the other side always
// hosted in Nodes banks:
//
//   - internal/core executes effects by direct calls on one bank over all
//     nodes (protocol executions as protocol.Exec's round loop over it);
//     its three effects that sweep a node range can instead be fanned out,
//     as batched commands, to internal/runtime's shard goroutines,
//   - internal/fanout encodes them as internal/wire frames on
//     transport.Links, to node hosts or through a tree of relays to leaf
//     hosts, each relay answering an execution with the bid log one host
//     of its subtree would write.
//
// The Machine owns the message ledger: it charges the midpoint broadcasts
// itself and hands adapters phase-scoped recorders for the protocol
// traffic they deliver, so all engines produce bit-identical counts and
// bytes for the same seed by construction.
//
// # Event/effect protocol
//
// One observation step is processed as
//
//	step := m.BeginStep()
//	// substrate: deliver observations, collect filter-violation flags
//	eff := m.FinishStep(anyTopViol, anyOutViol)
//	for eff.Kind != coord.EffDone {
//	    switch eff.Kind {
//	    case coord.EffExec:        // run one protocol execution for the
//	        ws := ...              // eff.Want best of cohort eff.Tag, bound
//	        eff = m.Deliver(ws)    // eff.Bound, charging m.Recorder(eff.Phase)
//	    case coord.EffResetBegin:  // clear membership on all nodes
//	        eff = m.Ack()
//	    case coord.EffWinner:      // tell node eff.Target it joins the top
//	        eff = m.Ack()          // set
//	    case coord.EffMidpoint:    // install filters around eff.Mid
//	        eff = m.Ack()          // (eff.Full: [-inf, +inf], k == n)
//	    case coord.EffBounds:      // ε mode: install the band [eff.Lo,
//	        eff = m.Ack()          // eff.Hi] instead of a point midpoint
//	    case coord.EffOrderCheck:  // ordered mode: node eff.Target checks
//	        key, out := ...        // its order filter and reports its key
//	        eff = m.OrderDone(key, out) // if it left it
//	    case coord.EffOrderBounds: // ordered mode: node eff.Target installs
//	        eff = m.Ack()          // the order filter [eff.Lo, eff.Hi]
//	    }
//	}
//	report := m.Top()
//
// Exactly one event answers each effect; the Machine panics on protocol
// misuse. Effects are emitted in the deterministic order Algorithm 1
// prescribes, and each execution's coins are a function of its step and
// tag, which is what keeps the engines' ledgers identical.
//
// A machine in the ordered mode (Config.Ordered, the paper's §5 outlook)
// settles the ranking of the top-k before it reports EffDone: wherever a
// set-mode machine would be done with the step, it first emits the two
// order effects until every member's key lies inside its order filter
// (ordered.go). A set-mode machine never emits them.
package coord

import (
	"fmt"
	"slices"

	"repro/internal/comm"
	"repro/internal/filter"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/wire"
)

// Protocol cohort tags. A tag names the node population of one protocol
// execution; membership is evaluated node-locally (see Nodes). The values
// are stable and ride verbatim in wire.Round.Tag.
const (
	// TagViolMin: former top-k nodes whose filter broke this step run
	// MINIMUMPROTOCOL (Algorithm 1 line 5).
	TagViolMin uint8 = iota
	// TagViolMax: violating outsiders run MAXIMUMPROTOCOL (line 7).
	TagViolMax
	// TagHandMin: all current top-k nodes, minimum (line 25).
	TagHandMin
	// TagHandMax: all current outsiders, maximum (line 23).
	TagHandMax
	// TagReset: every node, the k+1 largest keys in one execution.
	TagReset
)

// ValidTag reports whether t names a cohort: what a host checks of a tag
// that arrived in a frame before it hands it to Nodes.Round.
func ValidTag(t uint8) bool { return t <= TagReset }

// MinimumTag reports whether the tag's protocol computes a minimum (the
// order-dual execution over negated keys).
func MinimumTag(t uint8) bool { return t == TagViolMin || t == TagHandMin }

// TolerantTag reports whether the tag's protocol execution may run with
// the ε-tolerant cut in the approximate mode. Violation and handler
// executions only feed the T+/T− style bound tracking, where an ε-sharp
// extremum (suitably widened) is sound; a FILTERRESET's execution decides
// membership and always runs exactly, so its winners' keys come out in
// true descending order and the post-reset band provably contains every
// node.
func TolerantTag(t uint8) bool { return t != TagReset }

// ExecTol returns the tolerance an execution of cohort t runs with on a
// monitor of tolerance tol: tol itself when the tag is tolerant, zero
// otherwise.
func ExecTol(t uint8, tol order.Tol) order.Tol {
	if !TolerantTag(t) {
		return order.Tol{}
	}
	return tol
}

// EffectKind enumerates what a Machine can ask its adapter to do.
type EffectKind uint8

const (
	// EffDone: the step is fully processed; the report is available via
	// Top. Not answered by an event.
	EffDone EffectKind = iota
	// EffExec: run one protocol execution over cohort Tag for its Want best
	// keys with population bound Bound, charging Up/Bcast traffic to
	// Recorder(Phase), and answer with Deliver. Want is 1 for every
	// execution but a FILTERRESET's.
	EffExec
	// EffResetBegin: clear every node's membership flag ahead of a
	// FILTERRESET. Answer with Ack.
	EffResetBegin
	// EffWinner: notify node Target that the reset's execution put it in
	// the top-k set. Answer with Ack.
	EffWinner
	// EffMidpoint: have every node re-anchor its filter on Mid (top-k
	// nodes install [Mid, +inf], outsiders [-inf, Mid]); Full installs
	// [-inf, +inf] everywhere (the k == n degenerate case). The broadcast
	// is already charged. Answer with Ack.
	EffMidpoint
	// EffBounds: the ε-approximate counterpart of EffMidpoint — have every
	// node re-anchor on the tolerance band [Lo, Hi] (top-k nodes install
	// [Lo, +inf], outsiders [-inf, Hi]). Emitted only by machines with a
	// non-zero tolerance; the broadcast is already charged. Answer with
	// Ack.
	EffBounds
	// EffOrderCheck: ordered mode only — have member Target check its key
	// against its order filter. Answer with OrderDone.
	EffOrderCheck
	// EffOrderBounds: ordered mode only — have member Target install the
	// order filter [Lo, Hi]. Whatever it costs is already charged. Answer
	// with Ack.
	EffOrderBounds
)

// Effect is one instruction from the Machine to its adapter. Fields are
// meaningful per Kind; see the EffectKind constants.
type Effect struct {
	Kind  EffectKind
	Tag   uint8      // EffExec: cohort
	Want  int        // EffExec: how many winners the execution is to find
	Bound int        // EffExec: population bound of the execution
	Phase comm.Phase // EffExec: ledger phase protocol traffic charges to

	Target int // EffWinner: the new member's id; EffOrder*: the member

	Mid  order.Key // EffMidpoint: filter bound
	Full bool      // EffMidpoint: install [-inf, +inf] (k == n)

	Lo, Hi order.Key // EffBounds: tolerance band ends; EffOrderBounds: the order filter
}

// Stats exposes counters describing a Machine's execution so far. All
// engines report them identically for the same seed.
type Stats struct {
	Steps          int64 // observation steps processed
	ViolationSteps int64 // steps in which at least one filter was violated
	HandlerCalls   int64 // FILTERVIOLATIONHANDLER executions
	Resets         int64 // FILTERRESET executions (including initialization)
	// TopChanges counts steps whose reported set differed from the
	// previous step's, including the initial transition from the empty
	// pre-observation state to the first report.
	TopChanges int64
}

// Config parameterizes a Machine.
type Config struct {
	// N is the number of nodes, K the size of the monitored top set
	// (1 <= K <= N).
	N, K int
	// Tol is the relative tolerance ε of the approximate mode. The zero
	// value selects exact monitoring (bit-identical to a machine built
	// before the approximate mode existed); a non-zero tolerance anchors
	// filters on (1±ε) bands (EffBounds instead of EffMidpoint), lets
	// violation steps whose learned extrema still fit one band skip the
	// FILTERRESET, and marks violation/handler protocol executions as
	// tolerance-eligible (see TolerantTag).
	Tol order.Tol
	// Ordered selects the ordered mode: the machine also tracks the ranking
	// of the k members by value (AppendRanking) and settles it before every
	// EffDone; see ordered.go. A set-mode machine allocates nothing for it.
	// The public API combines it with neither Tol nor a checkpoint (ranks
	// have no ε semantics and no snapshot form yet).
	Ordered bool
}

// machState is the continuation point of the Machine between events.
type machState uint8

const (
	stIdle       machState = iota // between steps
	stObserving                   // BeginStep issued, FinishStep pending
	stViolMin                     // awaiting ExecDone of TagViolMin
	stViolMax                     // awaiting ExecDone of TagViolMax
	stHandMin                     // awaiting ExecDone of TagHandMin
	stHandMax                     // awaiting ExecDone of TagHandMax
	stMidAck                      // awaiting Ack of a midpoint install
	stResetBegin                  // awaiting Ack of EffResetBegin
	stResetExec                   // awaiting the winners of TagReset
	stResetWin                    // awaiting Ack of an EffWinner
	stOrdCheck                    // awaiting OrderDone of EffOrderCheck
	stOrdBounds                   // awaiting Ack of EffOrderBounds
)

// Machine is the sans-I/O coordinator. Create with New; it is not safe
// for concurrent use (the model's time steps are globally ordered).
type Machine struct {
	cfg Config
	led comm.Ledger

	// Pre-built phase recorders (constructing one per charge would box an
	// interface value on the heap).
	recViol  comm.Recorder
	recHand  comm.Recorder
	recReset comm.Recorder

	top []int // current membership, ascending; alias returned by Top
	tmp []int // scratch for membership rebuilds (swapped with top)

	keys []order.Key // the running reset's winner keys, best first

	tPlus  order.Key // T+(t0, t): min over top-k values since last reset
	tMinus order.Key // T−(t0, t): max over outside values since last reset

	// Approximate-mode band tracking: the ends of the currently installed
	// filter band — every top-k key is >= curLo and every outside key is
	// <= curHi between violations. Maintained only when cfg.Tol is
	// non-zero.
	curLo order.Key
	curHi order.Key

	step  int64
	init  bool
	stats Stats

	state  machState
	minKey order.Key
	maxKey order.Key
	minOK  bool
	maxOK  bool
	anyOut bool
	winIdx int // position in tmp of the pending EffWinner

	// Ordered mode (ordered.go); band stays nil in the set mode.
	band     []ranked // the k members, rank 1 first
	ordIdx   int      // band position of the pending check or install
	ordMoved bool     // a member of the running check pass reported
	ordReset bool     // a reset rebuilt the band: install every filter, free
}

// New validates the configuration and returns an idle Machine.
func New(cfg Config) *Machine {
	if cfg.N <= 0 {
		panic("coord: need N > 0")
	}
	if cfg.K < 1 || cfg.K > cfg.N {
		panic("coord: need 1 <= K <= N")
	}
	m := &Machine{
		cfg:   cfg,
		top:   make([]int, 0, cfg.K),
		tmp:   make([]int, 0, cfg.K),
		keys:  make([]order.Key, 0, cfg.K+1),
		curLo: order.NegInf,
		curHi: order.PosInf,
	}
	m.recViol = m.led.InPhase(comm.PhaseViolation)
	m.recHand = m.led.InPhase(comm.PhaseHandler)
	m.recReset = m.led.InPhase(comm.PhaseReset)
	if cfg.Ordered {
		m.band = make([]ranked, 0, cfg.K)
	}
	return m
}

// N returns the node count.
func (m *Machine) N() int { return m.cfg.N }

// K returns the monitored top set size.
func (m *Machine) K() int { return m.cfg.K }

// Tol returns the machine's tolerance (zero for exact monitoring).
func (m *Machine) Tol() order.Tol { return m.cfg.Tol }

// Step returns the current observation step (0 before the first
// BeginStep).
func (m *Machine) Step() int64 { return m.step }

// Stats returns execution counters.
func (m *Machine) Stats() Stats { return m.stats }

// Ledger returns the machine's message ledger (total and per-phase).
func (m *Machine) Ledger() *comm.Ledger { return &m.led }

// Counts returns the total message counts charged so far.
func (m *Machine) Counts() comm.Counts { return m.led.Total() }

// Bytes returns the total encoded size of the charged messages.
func (m *Machine) Bytes() comm.Bytes { return m.led.TotalBytes() }

// Recorder returns the pre-built recorder attributing to phase p — the
// recorder adapters charge protocol traffic to when executing EffExec.
func (m *Machine) Recorder(p comm.Phase) comm.Recorder {
	switch p {
	case comm.PhaseViolation:
		return m.recViol
	case comm.PhaseHandler:
		return m.recHand
	case comm.PhaseReset:
		return m.recReset
	default:
		panic("coord: unknown phase")
	}
}

// Top returns the current top-k ids ascending. The slice is a read-only
// view owned by the machine: it stays valid (reporting the last completed
// membership) while a step is in flight and is invalidated by the
// completion of a step that changes the top set. Use AppendTop to copy.
func (m *Machine) Top() []int { return m.top }

// AppendTop appends the current top-k ids (ascending) to dst and returns
// the extended slice. The appended values are copies; mutating them never
// affects the machine.
func (m *Machine) AppendTop(dst []int) []int { return append(dst, m.top...) }

// BeginStep starts one observation step and returns its step number, the
// value adapters stamp observation commands with (node-side violation
// cohorts are selected per step).
func (m *Machine) BeginStep() int64 {
	if m.state != stIdle {
		panic("coord: BeginStep with a step in flight")
	}
	m.state = stObserving
	m.step++
	m.stats.Steps++
	return m.step
}

// FinishStep delivers the aggregated node-side filter-check outcome of the
// step begun by BeginStep — whether any former top-k node and whether any
// outsider violated — and returns the first effect to execute.
func (m *Machine) FinishStep(anyTopViol, anyOutViol bool) Effect {
	if m.state != stObserving {
		panic("coord: FinishStep without BeginStep")
	}
	if !m.init {
		// The paper's time-0 initialization: a full FILTERRESET.
		m.init = true
		return m.startReset()
	}
	if !anyTopViol && !anyOutViol {
		return m.settle()
	}
	m.stats.ViolationSteps++
	m.minOK, m.maxOK = false, false
	m.minKey, m.maxKey = order.NegInf, order.NegInf
	m.anyOut = anyOutViol
	if anyTopViol {
		m.state = stViolMin
		return Effect{Kind: EffExec, Tag: TagViolMin, Want: 1, Bound: m.cfg.K, Phase: comm.PhaseViolation}
	}
	return m.startViolMax()
}

// startViolMax continues the violation phase with the outsider maximum (or
// straight into the handler when no outsider violated).
func (m *Machine) startViolMax() Effect {
	if m.anyOut {
		m.state = stViolMax
		return Effect{Kind: EffExec, Tag: TagViolMax, Want: 1, Bound: m.cfg.N - m.cfg.K, Phase: comm.PhaseViolation}
	}
	return m.startHandler()
}

// startHandler is FILTERVIOLATIONHANDLER's missing-side protocol
// (Algorithm 1 lines 22-25).
func (m *Machine) startHandler() Effect {
	m.stats.HandlerCalls++
	if !m.maxOK {
		m.state = stHandMax
		return Effect{Kind: EffExec, Tag: TagHandMax, Want: 1, Bound: m.cfg.N - m.cfg.K, Phase: comm.PhaseHandler}
	}
	m.state = stHandMin
	return Effect{Kind: EffExec, Tag: TagHandMin, Want: 1, Bound: m.cfg.K, Phase: comm.PhaseHandler}
}

// tighten applies lines 27-33: update T+/T− with the learned extrema, then
// either reset or broadcast a fresh midpoint.
func (m *Machine) tighten() Effect {
	if !m.cfg.Tol.Zero() {
		return m.tightenTol()
	}
	if m.minOK {
		m.tPlus = order.Min(m.tPlus, m.minKey)
	}
	if m.maxOK {
		m.tMinus = order.Max(m.tMinus, m.maxKey)
	}
	if m.tPlus < m.tMinus {
		return m.startReset() // line 30
	}
	mid := m.midpoint()
	m.recHand.RecordSized(comm.Bcast, 1, wire.SizeMidpoint(int64(mid)))
	m.state = stMidAck
	return Effect{Kind: EffMidpoint, Mid: mid}
}

// tightenTol is the approximate mode's violation-handler conclusion.
// From this step's protocol results it derives conservative bounds on the
// two sides — every top-k key is >= lb, every outside key is <= ub — and,
// when some threshold's (1±ε) band still covers both, re-anchors the
// filters on that band instead of resetting: the current membership is
// then still a valid ε-approximation, so the FILTERRESET is saved. Only when no band fits does it fall through to
// the exact FILTERRESET.
//
// The widening accounts for the ε-tolerant cut of the violation and
// handler executions: a tolerant MINIMUM's result m̃ only guarantees that
// every cohort key is >= WidenLo(m̃), and dually for a MAXIMUM.
func (m *Machine) tightenTol() Effect {
	var lb, ub order.Key
	if m.anyOut {
		// The handler ran MINIMUM over all current top-k nodes: minKey is
		// an ε-sharp minimum of the whole top side.
		lb = m.cfg.Tol.WidenLo(m.minKey)
		// Outsiders: the non-violating ones are still <= curHi, the
		// violating ones <= the widened violation maximum.
		ub = m.curHi
		if m.maxOK {
			ub = order.Max(ub, m.cfg.Tol.WidenHi(m.maxKey))
		}
	} else {
		// The handler ran MAXIMUM over all outsiders: maxKey is an ε-sharp
		// maximum of the whole outside.
		ub = m.cfg.Tol.WidenHi(m.maxKey)
		// Top-k nodes: non-violating ones are still >= curLo, violating
		// ones >= the widened violation minimum.
		lb = m.curLo
		if m.minOK {
			lb = order.Min(lb, m.cfg.Tol.WidenLo(m.minKey))
		}
	}
	th, ok := m.cfg.Tol.Witness(lb, ub)
	if !ok {
		return m.startReset()
	}
	band := filter.Band(th, m.cfg.Tol)
	m.curLo, m.curHi = band.Lo, band.Hi
	m.recHand.RecordSized(comm.Bcast, 1, wire.SizeApproxBounds(int64(m.curLo), int64(m.curHi)))
	m.state = stMidAck
	return Effect{Kind: EffBounds, Lo: m.curLo, Hi: m.curHi}
}

// startReset begins FILTERRESET. Where Algorithm 1 (lines 36-42) runs k+1
// maximum executions one after the other, the reset here is one execution
// for the k+1 largest keys (protocol.Exec), after which the k members are
// told and the filters installed.
func (m *Machine) startReset() Effect {
	m.stats.Resets++
	m.state = stResetBegin
	return Effect{Kind: EffResetBegin}
}

// midpoint is the exact mode's broadcast, Algorithm 1 lines 33 and 41: the
// midpoint of T− and T+. Installed derives the bounds it makes from it.
func (m *Machine) midpoint() order.Key { return order.Midpoint(m.tMinus, m.tPlus) }

// Installed returns the bounds every node's filter derives from after the
// last install the machine completed, a function of what its checkpoint
// frame records: unbounded before the time-0 reset and when k == n; the
// band the machine tracks in ε mode; otherwise the point midpoint of T−
// and T+. Between steps a bank's installed bounds are exactly these.
func (m *Machine) Installed() filter.Bounds {
	switch {
	case !m.init || m.cfg.K == m.cfg.N:
		return filter.Unbounded()
	case !m.cfg.Tol.Zero():
		return filter.Bounds{Lo: m.curLo, Hi: m.curHi}
	}
	mid := m.midpoint()
	return filter.Bounds{Lo: mid, Hi: mid}
}

// Filters returns the filter assignment the machine has installed — its
// membership under the Installed bounds — as the filter.Set the Lemma 2.2
// checks of tests and soak runs read (core.Monitor.Filters). A restore
// checks the bank it installs it into instead (RestoreChain).
func (m *Machine) Filters() *filter.Set {
	fs := filter.NewSet(m.cfg.N, m.cfg.K)
	if len(m.top) == m.cfg.K {
		fs.SetMembership(m.top)
	}
	in := m.Installed()
	fs.AssignBand(in.Lo, in.Hi)
	return fs
}

// resetWant is the number of winners a reset's execution is to find: the k
// members and the best outsider (k == n: there is no (k+1)-st value).
func (m *Machine) resetWant() int { return min(m.cfg.K+1, m.cfg.N) }

// resetExec asks for the winners of the reset's execution still owed: all
// of them at first.
func (m *Machine) resetExec() Effect {
	m.state = stResetExec
	return Effect{Kind: EffExec, Tag: TagReset, Want: m.resetWant() - len(m.keys), Bound: m.cfg.N, Phase: comm.PhaseReset}
}

// nextWinner tells the next member, in rank order, that it is one, or
// finishes the reset once all k know.
func (m *Machine) nextWinner() Effect {
	if m.winIdx == len(m.tmp) {
		return m.finishReset()
	}
	id := m.tmp[m.winIdx]
	m.winIdx++
	m.state = stResetWin
	return Effect{Kind: EffWinner, Target: id}
}

// finishReset installs the new membership and filters from the winners.
func (m *Machine) finishReset() Effect {
	// The members by id are the reported set; track whether it changed.
	slices.Sort(m.tmp)
	if !slices.Equal(m.tmp, m.top) {
		m.stats.TopChanges++
	}
	m.top, m.tmp = m.tmp, m.top
	m.ordReset = m.cfg.Ordered

	if m.cfg.K == m.cfg.N {
		// Degenerate case: every node is in the top set; filters are
		// unconstrained and the monitor never communicates again. The
		// install broadcast is free — membership never changes.
		m.tPlus = m.keys[len(m.keys)-1]
		m.tMinus = order.NegInf
		m.curLo, m.curHi = order.NegInf, order.PosInf
		m.state = stMidAck
		return Effect{Kind: EffMidpoint, Full: true}
	}
	kth, kPlus1 := m.keys[m.cfg.K-1], m.keys[m.cfg.K]
	m.tPlus, m.tMinus = kth, kPlus1
	mid := m.midpoint()
	if !m.cfg.Tol.Zero() {
		// Approximate mode: anchor the filters on the (1±ε) band around
		// the midpoint. The reset's execution runs exactly, so the winners'
		// keys descend and the band contains every node: top keys are
		// >= kth >= mid >= WidenLo(mid), outside keys <= kPlus1 <= mid <=
		// WidenHi(mid).
		band := filter.Band(mid, m.cfg.Tol)
		m.curLo, m.curHi = band.Lo, band.Hi
		m.recReset.RecordSized(comm.Bcast, 1, wire.SizeApproxBounds(int64(m.curLo), int64(m.curHi)))
		m.state = stMidAck
		return Effect{Kind: EffBounds, Lo: m.curLo, Hi: m.curHi}
	}
	// Line 41: one broadcast lets every node derive its new filter.
	m.recReset.RecordSized(comm.Bcast, 1, wire.SizeMidpoint(int64(mid)))
	m.state = stMidAck
	return Effect{Kind: EffMidpoint, Mid: mid}
}

// Deliver answers an EffExec with the execution's outcome — its winners,
// best first; none: the cohort was empty — and returns the next effect.
func (m *Machine) Deliver(winners []protocol.Winner) Effect {
	if len(winners) == 0 {
		return m.ExecDone(false, -1, order.NegInf)
	}
	var eff Effect
	for _, w := range winners {
		eff = m.ExecDone(true, w.ID, order.Key(w.Key))
	}
	if m.state == stResetExec {
		panic("coord: reset execution found fewer participants than it wanted")
	}
	return eff
}

// ExecDone is the single event Deliver is made of: one winner of the
// pending execution, in the order best first (ok false: an empty cohort's
// one answer). While an execution is still owed winners it returns that
// execution's EffExec again, Want lowered to what is owed — which a driver
// that has the whole list ignores, and one that scripts a machine may
// answer as an execution of its own — and otherwise the next effect.
func (m *Machine) ExecDone(ok bool, id int, key order.Key) Effect {
	switch m.state {
	case stViolMin:
		m.minOK, m.minKey = ok, key
		return m.startViolMax()
	case stViolMax:
		m.maxOK, m.maxKey = ok, key
		return m.startHandler()
	case stHandMax:
		m.maxOK, m.maxKey = ok, key
		return m.tighten()
	case stHandMin:
		m.minOK, m.minKey = ok, key
		return m.tighten()
	case stResetExec:
		if !ok {
			panic("coord: reset execution found fewer participants than it wanted")
		}
		if len(m.keys) < m.cfg.K {
			m.tmp = append(m.tmp, id)
			if m.cfg.Ordered {
				m.band = append(m.band, ranked{id: id, est: key})
			}
		}
		if m.keys = append(m.keys, key); len(m.keys) < m.resetWant() {
			return m.resetExec()
		}
		m.winIdx = 0
		return m.nextWinner()
	default:
		panic(fmt.Sprintf("coord: ExecDone in state %d", m.state))
	}
}

// Abort discards an in-flight step or protocol execution and returns the
// machine to idle. It exists for failover: when a peer dies mid-step the
// adapter cannot deliver the events the machine is waiting for, so it
// aborts, reassigns the dead peer's range, and drives a ForceReset to
// re-converge. Top() still reports the last completed membership (the
// report stream never regresses), but the membership flags may be
// mid-rebuild — an abort must be followed by ForceReset before the next
// regular step, which clears and rebuilds them. Statistics of the aborted
// step remain charged; failover is observable in the counters by design.
func (m *Machine) Abort() {
	m.state = stIdle
}

// ForceReset starts an out-of-band FILTERRESET from the idle state: the
// recovery primitive the ROADMAP names. The adapter drives the returned
// effect exactly like a FinishStep effect chain (the execution, winner
// notifications, the closing filter install). After the chain completes
// the machine's membership, filters and T+/T− bounds are freshly derived
// from current node values, so reports re-converge to the oracle within
// this one reset regardless of what state a failed peer took with it.
// ForceReset panics if a step is in flight (Abort first).
func (m *Machine) ForceReset() Effect {
	if m.state != stIdle {
		panic("coord: ForceReset with a step in flight")
	}
	// A forced reset is also valid initialization: if it runs before the
	// first observation step, the time-0 reset of FinishStep is subsumed.
	m.init = true
	return m.startReset()
}

// Ack answers an EffResetBegin, EffWinner, EffMidpoint, EffBounds or
// EffOrderBounds and returns the next effect.
func (m *Machine) Ack() Effect {
	switch m.state {
	case stResetBegin:
		// Nodes have cleared their membership; select the new one.
		m.keys, m.band, m.tmp = m.keys[:0], m.band[:0], m.tmp[:0]
		return m.resetExec()
	case stResetWin:
		return m.nextWinner()
	case stMidAck:
		return m.settle()
	case stOrdBounds:
		return m.nextOrderBounds()
	default:
		panic(fmt.Sprintf("coord: Ack in state %d", m.state))
	}
}
