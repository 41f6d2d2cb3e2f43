// Package fanout is the link engine: Algorithm 1's coordinator over
// links to the processes that host the monitored nodes, both ends of those
// links, and the coordinator tree between them — the tree of the
// domain-monitoring follow-up (Bemmann et al., arXiv:1706.03568) with the
// pruned logs of the distributed top-k data structure of Biermeier et al.
// (arXiv:1709.07259).
//
// Fan is the link fan: one transport.Link per peer, each peer hosting a
// contiguous range of the monitored nodes (directly, or as the root of a
// coordinator subtree). It owns everything about driving those links that
// is not a protocol decision — the ranges and the routing by range, the
// per-peer queue of deferred commands, the one send path and the one gather
// path with their batch framing, the ledger that prices every sub-frame,
// the Assign/Ready handshake, the uncharged StatsPoll sweep, Shutdown — and
// is told one thing by its user: what a link failure means.
//
// Engine is the root: Algorithm 1 driven over a Fan, where everything the
// coordinator learns arrives in wire-encoded frames, plus what only a root
// has — the last-value mirror, failover and Join, checkpoints. Its answer
// to a link failure is to mark the peer dead and schedule recovery. Its
// links lead to a flat set of node hosts (topk.Transport, topkmon -engine
// net) or, with Config.Tree, to the subtrees of a coordinator tree
// (topk.Config.Tree, topkmon -tree); the engine is the same either way,
// and so are its reports and its algorithm ledger, which equal the
// sequential engine's bit for bit.
//
// The serving side is one serve loop in two roles: Serve, the leaf, a node
// host answering each protocol execution with its bid log (LogRound), and
// ServeRelay, a relay — itself a Fan over its children — answering with the
// log one host of its subtree would write (exchange.go has the bid-log
// exchange, all three parts of it). The relay's answer to a link failure is
// to end, which its parent sees as the loss of the subtree. Frames is the
// arena every reply and command frame is built in.
//
// # Relation to the other engines
//
// The coordinator's decision logic is the shared sans-I/O state machine of
// internal/coord; this package contributes only the substrate, executing
// the machine's effects as wire messages:
//
//	coord effect              frames
//	(observation step)        wire.Observe / wire.ObserveDelta
//	EffExec                   wire.Round, one per execution (exchange.go)
//	EffResetBegin             wire.ResetBegin
//	EffWinner                 wire.Winner
//	EffMidpoint               wire.Midpoint
//	EffBounds (ε mode)        wire.ApproxBounds
//	(reply to any command)    wire.Reply, or a Round's wire.BidLog
//
// Every transport frame is answered by exactly one transport frame, so a
// link never carries more than one outstanding exchange, and replies are
// processed in ascending peer (hence node id) order — the same
// deterministic order the in-process engines use, which is what makes the
// engines' bids arrive, and ties resolve, identically.
//
// # Pipelined fan-out
//
// The engine pipelines its I/O, and runs no other way:
//
//   - Exchanges fan out first and gather afterwards: the engine sends one
//     frame to every involved peer, then collects the answers and
//     processes them in ascending peer order. Wall-clock per exchange
//     follows the slowest peer, not the peer count.
//   - Ack-only commands are deferred and coalesced: ResetBegin, Winner,
//     Midpoint and ApproxBounds need no data back, so instead of paying a
//     round trip each they are queued per peer and ride in one
//     wire.Batch envelope with the next data-bearing frame to that peer
//     (the next protocol Round), with any remainder drained in one final
//     batched exchange at the end of the step. Servers answer an n-frame
//     batch with an n-frame batch of replies, so every command still has
//     its own reply.
//
// How a gather waits is the engine's one fork, selected at construction
// from runtime.GOMAXPROCS(0) alone: above one processor a reader goroutine
// per link collects the answers concurrently; on a single processor, where
// the readers' channel hops are pure context-switch overhead, the engine
// drains the links directly in peer order — the frames are in flight
// either way. Each side wins where it is selected (DESIGN.md "Pipelined
// substrate" has the measurement), and both produce the same frames. An
// interior relay always drains directly: it already is the goroutine that
// overlaps its sibling subtrees.
//
// Determinism: per link, commands and replies keep their exact order (a
// batch is processed sub-frame by sub-frame in order); across links the
// only join points are the gathers, which the engine processes in
// ascending peer order. Every node therefore sees the command sequence,
// and the coordinator feeds the machine the event sequence, of the
// sequential engine — reports, counts and bytes are bit-identical to it, which the equivalence tests pin under both
// gathers.
//
// # Accounting
//
// Two ledgers, deliberately separate:
//
//   - The algorithm ledger (Counts/Bytes/Ledger) charges model messages
//     exactly as the in-process engines do: one Up per sampler bid
//     (wire.SizeBid bytes), one Bcast per protocol round (wire.SizeBest)
//     and per midpoint broadcast (wire.SizeMidpoint). The paper's Theorem
//     4.2 bounds this ledger.
//   - The link ledger (Overhead/OverheadBytes) charges the coordination
//     frames themselves, beside every send and every gather: each
//     coordinator→peer command as a Down of its encoded size, each
//     peer→coordinator reply as an Up. Coalesced commands are charged
//     sub-frame by sub-frame — the batch envelope itself is transport
//     framing, visible in TransportStats — so the ledger counts what a
//     strict one-command-one-round-trip cycle would put on the links, and
//     the coalescing shows as TransportStats frames below it. topk surfaces
//     it for a tree monitor, as the price of splitting the coordinator, and
//     not for a networked one, whose link traffic is the protocol itself.
//
// # Failure and recovery
//
// Peers are fail-stop: a link that dies or misbehaves mid-step makes the
// engine abandon the step (returning the last-good report) and schedule
// recovery, which runs at the start of the next observation call. Recovery
// (1) redials a replacement for each dead peer when Config.Redial is set,
// or merges the dead range into a surviving neighbor otherwise, (2)
// re-runs the Assign handshake on every peer — servers rebuild their node
// banks from scratch — (3) replays the coordinator-side mirror of the
// current node values, and (4) forces a FILTERRESET, after which reports
// match the oracle again. Observation frames carry each value's change
// from what the receiving bank holds (internal/wire), which the mirror
// tells; step (2) is what keeps that sound, since every fault that can
// leave a bank off the mirror — a frame lost, duplicated or applied in
// part — ends its link, and a bank rebuilt by Assign holds zero, which is
// what step (3) codes the mirror's values against. A pass that fails is
// retried: at most three attempts, 10 ms apart at first, jittered and
// doubling to a 1 s cap. Failures and
// recoveries are surfaced through Health and the Config.OnEvent callback;
// Err reports only terminal degradation (retry budget exhausted, or no
// peers left). Late joiners
// attach mid-stream through Join, which splits the widest range using the
// same machinery. A crashed coordinator process comes back as the engine
// New builds plus Resume, which runs steps (3) and (4) alone: New's
// handshake has just done step (2).
//
// Rebuilt banks draw fresh RNG streams from the configured seed. The
// protocols are Las Vegas — randomness affects message counts, never
// reported sets — so post-recovery reports still match the oracle exactly,
// while ledgers may diverge from an undisturbed run (recovery cost is
// visible in the counters by design).
package fanout

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config mirrors core.Config for the link-backed engines.
type Config struct {
	N, K int
	Seed uint64
	// Epsilon selects the ε-approximate mode, exactly as in core.Config.
	// The tolerance rides to the peers in the Assign handshake (as its
	// exact fixed-point numerator), so their samplers and band installs
	// agree with the coordinator bit for bit.
	Epsilon float64

	// Redial, when set, is called during failover to obtain a replacement
	// link for a dead peer; the replacement adopts the dead peer's exact
	// node range. When nil (or when a redial fails), the range is merged
	// into a surviving neighbor instead.
	Redial func() (transport.Link, error)
	// OnEvent, when set, receives failover events (peer death, range
	// reassignment, recovery, terminal degradation) synchronously from the
	// engine's own goroutine. The callback must not call back into the
	// engine.
	OnEvent func(coord.Event)
	// Tree declares the links to be subtree roots of a coordinator tree
	// (see Tree): New then requires exactly Tree.Branch links and at least
	// Tree.Branch^Tree.Depth nodes. The zero value is a flat peer set.
	Tree Tree
}

// Exec carries the machine's EffExec — one protocol execution over all
// nodes — to the peers: it runs the execution through Engine.Round
// exchanges and returns its winners, best first (a view valid until its
// next call), having charged the execution's model messages to
// Engine.Recorder(eff.Phase). New's is the bid-log exchange (execRounds);
// NewWith takes another, for a test to hold that one to.
type Exec func(e *Engine, eff coord.Effect) ([]protocol.Winner, error)

// Engine is the coordinator of a link-backed monitor. It satisfies
// sim.Algorithm and sim.DeltaAlgorithm. Like the other engines it is not
// safe for concurrent Observe calls (the model's time steps are globally
// ordered).
type Engine struct {
	cfg     Config
	exec    Exec
	mach    *coord.Machine
	fan     *Fan                // the links; its ledger is the link ledger
	retired transport.LinkStats // traffic of links recovery has closed

	step   int64
	closed bool
	err    error // terminal failure (recovery abandoned); sticky

	// Failover state: last mirrors every node's most recent value (what
	// every bank holds, so what observation frames are change-coded
	// against, and what recovery replays into rebuilt banks against zero),
	// at the width its values need, as a bank's column is;
	// pendingRecovery schedules a recovery pass for the next observation
	// call, and the counters feed Health.
	last            coord.Column
	pendingRecovery bool
	failures        int64
	recoveries      int64
	rrng            *rng.RNG // jitters the recovery backoff schedule
}

// New performs the Assign/Ready handshake over the given links — peer i
// hosts the i-th contiguous node range (see Split) — and returns the
// coordinator. It requires 1 <= len(links) <= N so every peer hosts at
// least one node, and a link count cfg.Tree fits. Callers must Close the
// engine to release the peers. On a bad configuration or a handshake error
// New closes every link before returning: a half-handshaken link is in an
// indeterminate protocol state and cannot be reused.
func New(cfg Config, links []transport.Link) (*Engine, error) {
	return NewWith(cfg, links, execRounds())
}

// NewWith is New with the executions carried by exec.
func NewWith(cfg Config, links []transport.Link, exec Exec) (*Engine, error) {
	tol, err := order.NewTol(cfg.Epsilon)
	switch {
	case cfg.N <= 0:
		err = errors.New("need N > 0")
	case cfg.K < 1 || cfg.K > cfg.N:
		err = fmt.Errorf("need 1 <= K <= N, got K=%d N=%d", cfg.K, cfg.N)
	case len(links) == 0 || len(links) > cfg.N:
		err = fmt.Errorf("need 1 <= peers <= N, got %d peers for N=%d", len(links), cfg.N)
	}
	if err == nil {
		err = cfg.checkTree(len(links))
	}
	if err != nil {
		closeAll(links)
		return nil, fmt.Errorf("fanout: %w", err)
	}
	e := &Engine{
		cfg:  cfg,
		exec: exec,
		mach: coord.New(coord.Config{N: cfg.N, K: cfg.K, Tol: tol}),
		last: coord.NewColumn(cfg.N),
		rrng: rng.New(cfg.Seed, 0xbacc),
	}
	e.fan = newFan(links, e.fail)
	// A failed handshake fails New; it is not a failover event. The range
	// layout does not affect reports or ledgers, only which link carries
	// which frames.
	e.cfg.OnEvent = nil
	if err := e.fan.Assign(e.assignment()); err != nil {
		closeAll(links)
		return nil, err
	}
	e.cfg.OnEvent = cfg.OnEvent
	// The gather is selected here, from the processor count alone (see
	// startReader).
	e.fan.readers = runtime.GOMAXPROCS(0) > 1
	if e.fan.readers {
		for _, p := range e.fan.peers {
			startReader(p)
		}
	}
	return e, nil
}

// MirrorTier returns the width the root keeps its last-value mirror at
// (coord.Column): the narrowest tier that holds every value it was given,
// Tier24 before the first.
func (e *Engine) MirrorTier() coord.Tier { return e.last.Tier() }

// closeAll closes every link of a failed construction.
func closeAll(links []transport.Link) {
	for _, l := range links {
		l.Close()
	}
}

// Loopback builds one in-process server behind a pipe — serve is Serve or
// a ServeRelay over its children — and returns the coordinator end: the
// loopback analogue of one remote peer dialing in, usable as a New link, a
// Config.Redial factory or a Join argument. A server exits cleanly when
// its link closes; on a server error it closes its link, which the
// coordinator observes as a dead peer and handles through the regular
// failover path — a hostile or buggy frame cannot panic the process.
func Loopback(serve func(transport.Link) error) transport.Link {
	coordEnd, serveEnd := transport.Pipe()
	go func() {
		if err := serve(serveEnd); err != nil {
			serveEnd.Close()
		}
	}()
	return coordEnd
}

// Loopbacks builds n Loopback links.
func Loopbacks(n int, serve func(transport.Link) error) []transport.Link {
	links := make([]transport.Link, n)
	for i := range links {
		links[i] = Loopback(serve)
	}
	return links
}

// Close sends every peer a Shutdown frame, closes the links and stops the
// reader goroutines (see Fan.Close). Idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.fan.Close()
}

// Counts returns the total model message counts charged so far.
func (e *Engine) Counts() comm.Counts { return e.mach.Counts() }

// Ledger exposes the per-phase message and byte breakdown.
func (e *Engine) Ledger() *comm.Ledger { return e.mach.Ledger() }

// Bytes returns the total charged model bytes.
func (e *Engine) Bytes() comm.Bytes { return e.mach.Bytes() }

// Stats returns execution counters (maintained by the shared coordinator
// core, identical across engines for the same seed).
func (e *Engine) Stats() coord.Stats { return e.mach.Stats() }

// Overhead returns the link ledger's frame counts: Down counts
// coordinator→peer commands, Up counts peer→coordinator replies.
// Coalesced commands count individually, so the numbers do not depend on
// how the transport framed them.
func (e *Engine) Overhead() comm.Counts { return e.fan.ledger.Snapshot() }

// OverheadBytes returns the encoded byte volume of the link ledger.
func (e *Engine) OverheadBytes() comm.Bytes { return e.fan.ledger.BytesSnapshot() }

// TransportStats sums the per-link transport statistics over all peers,
// links retired by recovery included: the frames and framed bytes that
// actually crossed the links, control plane included.
func (e *Engine) TransportStats() transport.LinkStats {
	s := e.retired
	for _, p := range e.fan.peers {
		s = s.Add(transport.StatsOf(p.link))
	}
	return s
}

// Peers returns the number of peer links.
func (e *Engine) Peers() int { return e.fan.Peers() }

// Top returns the current top-k ids ascending, as a read-only view owned
// by the engine: it is invalidated by the next step that changes the top
// set, and mutating it corrupts the engine (see AppendTop).
func (e *Engine) Top() []int { return e.mach.Top() }

// AppendTop appends the current top-k ids (ascending) to dst and returns
// the extended slice. The appended values are copies owned by the caller:
// they stay valid across later steps, and mutating them never affects the
// engine.
func (e *Engine) AppendTop(dst []int) []int { return e.mach.AppendTop(dst) }

// Step returns the time step being processed, for an Exec strategy's
// Round frames.
func (e *Engine) Step() int64 { return e.step }

// Tol returns the monitor's tolerance, for an Exec strategy whose
// executions run with it (coord.ExecTol).
func (e *Engine) Tol() order.Tol { return e.mach.Tol() }

// Recorder returns the algorithm ledger's recorder for one phase, for an
// Exec strategy to charge an execution's model messages to.
func (e *Engine) Recorder(p comm.Phase) comm.Recorder { return e.mach.Recorder(p) }

// collect gathers peer pi's reply to the last ship (see Fan.gather) and
// consumes the acks of the commands that rode ahead of the shipped frame —
// empty Replies, decoded only to validate the reply framing — leaving that
// frame's own answer for the caller to consume (Fan.Next, Fan.Reply).
// Collects happen in ascending peer order.
func (e *Engine) collect(pi int, op string) error {
	subs, err := e.fan.gather(pi, op)
	for i := 1; i < len(subs) && err == nil; i++ {
		_, err = e.fan.Reply(pi, op)
	}
	return err
}

// Round runs one wire.Round exchange with every peer on behalf of the Exec
// strategy: the request fans out (a peer's frame carries the commands
// queued for it since its last exchange), and each is called for every
// peer in ascending peer order with the peer's node range and its answer
// frame. An answer frame stays valid until its link's next exchange, so a
// strategy may keep every peer's and read them all once Round returns. An
// error from each marks that peer as misbehaving and abandons the step like
// any link failure.
func (e *Engine) Round(m wire.Round, each func(lo, hi int, answer []byte) error) error {
	for pi := range e.fan.peers {
		e.fan.Queue(pi, m.Append)
		if err := e.fan.ship(pi, "round"); err != nil {
			return err
		}
	}
	for pi, p := range e.fan.peers {
		if err := e.collect(pi, "round"); err != nil {
			return err
		}
		if err := each(p.lo, p.hi, e.fan.Next(pi)); err != nil {
			return e.fail(pi, "round", err)
		}
	}
	return nil
}

// queueAll defers one encoded broadcast command on every peer.
func (e *Engine) queueAll(enc func([]byte) []byte) {
	for pi := range e.fan.peers {
		e.fan.Queue(pi, enc)
	}
}

// drainPending flushes every peer's queued ack-only commands as one
// fanned-out exchange and checks the matching acks. Called at the end of
// an effect chain, so server state, reply framing and both ledgers are
// step-aligned.
func (e *Engine) drainPending() error {
	if err := e.fan.Exchange("drain"); err != nil {
		return err
	}
	for pi, p := range e.fan.peers {
		for len(p.subs) > 0 {
			if _, err := e.fan.Reply(pi, "drain"); err != nil {
				return err
			}
		}
	}
	return nil
}

// ready is the common prologue of every call that uses the links: it
// refuses a closed or terminal engine and runs a pending recovery first.
func (e *Engine) ready(op string) error {
	if e.closed {
		return errors.New("fanout: " + op + " after Close")
	}
	if e.err != nil {
		return e.err
	}
	if e.pendingRecovery {
		return e.recoverNow()
	}
	return nil
}

// checkStep reports whether an observation step may run; observing a
// closed engine is a caller bug and panics.
func (e *Engine) checkStep(op string) bool {
	if e.closed {
		panic("fanout: " + op + " after Close")
	}
	return e.ready(op) == nil
}

// Observe processes one dense time step and returns the reported top-k
// ids ascending (a read-only view). It panics after Close; on a dead link
// it abandons the step (see Health, Err) and returns the last-good report.
func (e *Engine) Observe(vals []int64) []int {
	if len(vals) != e.cfg.N {
		panic(fmt.Sprintf("fanout: observed %d values for %d nodes", len(vals), e.cfg.N))
	}
	if !e.checkStep("Observe") {
		return e.mach.Top()
	}
	e.step = e.mach.BeginStep()
	// Each peer's frame is coded against its range of the mirror, straight
	// into the buffer its link lends, and the mirror then takes the new
	// values, widening where one needs it (Put); whatever happens to the
	// step, the mirror ends it holding all of them.
	for pi, p := range e.fan.peers {
		e.queueFrame(pi, e.step, nil, vals)
		e.last.Put(p.lo, vals[p.lo:p.hi])
		if e.fan.ship(pi, "observe") != nil {
			e.last.Put(p.hi, vals[p.hi:])
			return e.mach.Top()
		}
	}
	return e.finishStep("observe")
}

// queueFrame queues peer pi's observation frame of step, coded against the
// mirror at its width: a sparse one giving node ids[j] vals[j] when ids is
// set, else a dense one of pi's range of vals against its range of the
// mirror, or, when vals is nil too, the replay of its range of the mirror
// against the zero a rebuilt bank holds. It is the mirror's one width
// dispatch.
func (e *Engine) queueFrame(pi int, step int64, ids []int, vals []int64) {
	switch c := &e.last; c.Tier() {
	case coord.Tier64:
		queueCells(e.fan, pi, step, ids, vals, c.Int64s())
	case coord.Tier48:
		queueCells(e.fan, pi, step, ids, vals, c.Int48s())
	case coord.Tier32:
		queueCells(e.fan, pi, step, ids, vals, c.Int32s())
	default:
		queueCells(e.fan, pi, step, ids, vals, c.Int24s())
	}
}

// queueCells is queueFrame over a mirror of one width: sparse vals coded
// against mirror[ids[j]], dense ones against the peer's range of it, or
// the peer's range of it against zero.
func queueCells[P wire.Value](f *Fan, pi int, step int64, ids []int, vals []int64, mirror []P) {
	p := f.peers[pi]
	switch {
	case ids != nil:
		f.Queue(pi, func(dst []byte) []byte { return wire.AppendObserveDelta(dst, step, ids, vals, mirror) })
	case vals != nil:
		f.Queue(pi, func(dst []byte) []byte { return wire.AppendObserve(dst, step, vals[p.lo:p.hi], mirror[p.lo:p.hi]) })
	default:
		f.Queue(pi, func(dst []byte) []byte { return wire.AppendObserve(dst, step, mirror[p.lo:p.hi], []P(nil)) })
	}
}

// ObserveDelta processes one sparse time step: vals[j] is node ids[j]'s
// new value, every other node repeats. ids must be strictly increasing.
// Only peers owning a touched node exchange observation frames, so a
// violation-free sparse step costs transport traffic proportional to the
// touched peers; protocol work still reaches every peer (cohort membership
// is node-local). Semantics match core.Monitor.ObserveDelta exactly;
// failure behaves as in Observe.
func (e *Engine) ObserveDelta(ids []int, vals []int64) []int {
	if len(ids) != len(vals) {
		panic(fmt.Sprintf("fanout: delta has %d ids but %d values", len(ids), len(vals)))
	}
	prev := -1
	for _, id := range ids {
		if id <= prev || id >= e.cfg.N {
			panic(fmt.Sprintf("fanout: delta ids must be strictly increasing in [0, %d), got %d after %d", e.cfg.N, id, prev))
		}
		prev = id
	}
	if !e.checkStep("ObserveDelta") {
		return e.mach.Top()
	}
	e.step = e.mach.BeginStep()
	// Ship each peer its slice of the (sorted) delta, coded against the
	// mirror as in Observe.
	start := 0
	for pi := range e.fan.peers {
		stop := e.fan.Share(pi, ids, start)
		if stop > start {
			e.queueFrame(pi, e.step, ids[start:stop], vals[start:stop])
			e.remember(ids[start:stop], vals[start:stop])
			if e.fan.ship(pi, "observe-delta") != nil {
				e.remember(ids[stop:], vals[stop:])
				return e.mach.Top()
			}
		}
		start = stop
	}
	return e.finishStep("observe-delta")
}

// remember writes a sparse update into the mirror.
func (e *Engine) remember(ids []int, vals []int64) {
	for j, id := range ids {
		e.last.Set(id, vals[j])
	}
}

// finishStep gathers the violation flags of the peers the step touched —
// the ones that were shipped an observation frame and so owe a reply — and
// drives the coordinator machine through the rest of the step. On a link
// failure it abandons the step and returns the last-good report.
func (e *Engine) finishStep(op string) []int {
	anyTop, anyOut := false, false
	for pi, p := range e.fan.peers {
		if p.owed == 0 {
			continue
		}
		if e.collect(pi, op) != nil {
			return e.mach.Top()
		}
		rep, err := e.fan.Reply(pi, op)
		if err != nil {
			return e.mach.Top()
		}
		anyTop = anyTop || rep.TopViol
		anyOut = anyOut || rep.OutViol
	}
	_ = e.runEffects(e.mach.FinishStep(anyTop, anyOut))
	return e.mach.Top()
}

// runEffects drives one effect chain — a step's FinishStep chain, or the
// forced FILTERRESET of a recovery — to EffDone, executing effects as
// frames. On a link failure it abandons the chain with the failure
// recorded.
//
// The ack-only effects do not synchronize one by one: their commands are
// queued per peer, the machine is advanced immediately (the acks carry no
// information), and the queued frames ride with the next data-bearing
// exchange to each peer — a FILTERRESET's ResetBegin rides with its
// execution's Round request, saving the round trip outright — while whatever
// is still queued when the machine reports EffDone (a reset's k Winner
// notifications and the trailing midpoint/bounds install) drains as one
// final batched exchange. Per-link command order
// is preserved exactly, so every node applies the same state transitions
// in the same places as if each effect had been a round trip of its own.
func (e *Engine) runEffects(eff coord.Effect) error {
	for eff.Kind != coord.EffDone {
		switch eff.Kind {
		case coord.EffExec:
			winners, err := e.exec(e, eff)
			if err != nil {
				return err
			}
			eff = e.mach.Deliver(winners)
			continue
		case coord.EffResetBegin:
			e.queueAll(func(dst []byte) []byte { return wire.AppendBare(dst, wire.TypeResetBegin) })
		case coord.EffWinner:
			e.fan.Queue(e.fan.Owner(eff.Target), wire.Winner{Target: eff.Target, IsTop: true}.Append)
		case coord.EffMidpoint:
			e.queueAll(wire.Midpoint{Mid: int64(eff.Mid), Full: eff.Full}.Append)
		case coord.EffBounds:
			e.queueAll(wire.ApproxBounds{Lo: int64(eff.Lo), Hi: int64(eff.Hi)}.Append)
		default:
			panic(fmt.Sprintf("fanout: unknown coordinator effect %d", eff.Kind))
		}
		eff = e.mach.Ack()
	}
	return e.drainPending()
}

// TreeStats polls the peers' diagnostic plane and returns the aggregated
// hierarchy statistics (see Fan.TreeStats): one coordination-traffic
// summary per tree level, deepest first, with the engine's own link ledger
// as the last entry; the poll itself is uncharged. Over leaf peers the
// result degenerates to the single root level.
//
// The engine must be quiescent — between observation steps, as for any
// other accessor — and a pending recovery is run first, exactly as an
// observation call would. A link failure during the poll is handled by
// the regular failover path and reported as an error.
func (e *Engine) TreeStats() (wire.TreeStats, error) {
	if err := e.ready("TreeStats"); err != nil {
		return wire.TreeStats{}, err
	}
	return e.fan.TreeStats()
}
