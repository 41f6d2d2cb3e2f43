// Package netrun is the networked execution engine: the fan-out core of
// internal/fanout — peers, pipelining, accounting, failover, checkpoints;
// see that package for all of it — instantiated with node-level protocol
// executions. Each peer process hosts a contiguous range of the monitored
// nodes; with TCP links the monitor spans real processes (cmd/topkmon
// -serve / -join), with loopback pipes it runs in-process and is
// message-count- and byte-identical to the sequential engine, which the
// equivalence test in this package pins.
//
// What is netrun's own is how a protocol execution reaches the nodes: as
// one exchange per peer, whatever the execution's ⌈log₂ N⌉ + 1 rounds.
// The coordinator sends every peer one wire.Round request; each host runs
// the whole execution over its range against its own running cut
// (coord.Nodes.Run) and answers with its bid log — every bid it made,
// grouped by round (wire.BidLog). The coordinator replays the logs round
// by round against the true cut (protocol.Exec.Replay), which keeps
// exactly the bids the round-by-round execution would have heard: one Up
// is charged per delivered bid and one Bcast per round, exactly like the
// in-process engines. The frames carry additional scheduling fields
// (bounds, the bids the true cut drops, batching); their true framed
// volume is visible separately through TransportStats. The paper's
// Theorem 4.2 bounds the former; a deployment pays the latter.
package netrun

import (
	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/fanout"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config is the fan-out core's configuration; the networked engine adds
// nothing to it.
type Config = fanout.Config

// Engine is the networked monitor's coordinator: a fanout.Engine whose
// protocol executions its node hosts run and it replays.
type Engine struct{ *fanout.Engine }

// New performs the Assign/Ready handshake over the given links — peer i
// hosts the i-th contiguous node range — and returns the coordinator,
// under fanout.New's contract.
func New(cfg Config, links []transport.Link) (*Engine, error) {
	e, err := fanout.New(cfg, links, execRounds())
	if err != nil {
		return nil, err
	}
	return &Engine{e}, nil
}

// LoopbackLink builds a single in-process host behind a pipe and returns
// the coordinator end (see fanout.Loopback).
func LoopbackLink() transport.Link { return fanout.Loopback(Serve) }

// LoopbackLinks builds one LoopbackLink per peer. It is the link factory
// behind topk.Loopback, the networked engine's default mode (topkmon
// -engine net); New over it is the configuration the equivalence tests run.
func LoopbackLinks(peers int) []transport.Link { return fanout.Loopbacks(peers, Serve) }

// Serve runs the node-host side of the networked engine on one link: the
// leaf server of fanout.Serve, answering each Round request with logRound.
func Serve(link transport.Link) error { return fanout.Serve(link, logRound()) }

// logRound returns a node host's answer to a Round request: run the whole
// execution over the local nodes (coord.Nodes.Run) and answer with its bid
// log, written straight into the reply frame.
func logRound() fanout.RoundFunc {
	var ex protocol.Exec // the host's own cut
	var log wire.BidLogWriter
	return func(bank *coord.Nodes, m wire.Round, dst []byte) []byte {
		log.Begin(dst, bank.Lo())
		ex.Begin(m.Bound, m.Want, coord.MinimumTag(m.Tag), comm.Discard, nil, m.Step)
		bank.Run(m.Tag, m.Step, &ex, &log)
		return log.End()
	}
}

// execRounds is the networked engine's Exec strategy: one protocol
// execution over the effect's cohort as one exchange — one Round request
// to every peer, one bid log back — replayed in place: each log is read
// where its answer frame lies, which stays valid until its link's next
// exchange, long after the replay. A log that is malformed, or names a
// node outside its peer's range or a round the execution does not have,
// fails that peer like a dead link.
func execRounds() fanout.Exec {
	var ex protocol.Exec // its winner buffer is sized by the first reset
	var logs []wire.BidLog
	return func(e *fanout.Engine, eff coord.Effect) ([]protocol.Winner, error) {
		rounds := protocol.Rounds(eff.Bound)
		req := wire.Round{Tag: eff.Tag, Best: int64(order.NegInf), Bound: eff.Bound, Step: e.Step(), Want: eff.Want}
		logs = logs[:0]
		err := e.Round(req, func(lo, hi int, answer []byte) error {
			logs = append(logs, wire.BidLog{})
			return logs[len(logs)-1].Open(answer, lo, hi, rounds)
		})
		if err == nil {
			ex.Begin(eff.Bound, eff.Want, coord.MinimumTag(eff.Tag), e.Recorder(eff.Phase), nil, e.Step())
			ex.Replay(logs, coord.ExecTol(eff.Tag, e.Tol()))
		}
		clear(logs) // hold no answer frame past the exchange
		if err != nil {
			return nil, err
		}
		return ex.Winners(), nil
	}
}

// A flat peer set has no coordinator hierarchy to price or to poll: its
// link traffic is the protocol itself, reported by TransportStats. The
// core still keeps its link ledger; the networked engine just does not
// surface it, so Overhead and TreeStats report the documented zero.

// Overhead returns zero (see above).
func (e *Engine) Overhead() comm.Counts { return comm.Counts{} }

// OverheadBytes returns zero (see above).
func (e *Engine) OverheadBytes() comm.Bytes { return comm.Bytes{} }

// TreeStats returns the zero value (see above).
func (e *Engine) TreeStats() (wire.TreeStats, error) { return wire.TreeStats{}, nil }

// AppendCheckpoint appends one sealed frame of the engine's checkpoint chain, of
// generation gen, to dst: a base frame, or with base != 0 a delta on it
// (see fanout.Engine.AppendCheckpoint).
func (e *Engine) AppendCheckpoint(dst []byte, gen, base uint64, dirty []uint64) ([]byte, error) {
	return e.Engine.AppendCheckpoint(dst, wire.EngineNet, gen, base, dirty)
}
