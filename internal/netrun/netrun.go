// Package netrun is the networked execution engine: the fan-out core of
// internal/fanout — peers, pipelining, accounting, failover, checkpoints;
// see that package for all of it — instantiated with node-level protocol
// rounds. Each peer process hosts a contiguous range of the monitored
// nodes; with TCP links the monitor spans real processes (cmd/topkmon
// -serve / -join), with loopback pipes it runs in-process and is
// message-count- and byte-identical to the sequential engine, which the
// equivalence test in this package pins.
//
// What is netrun's own is how a protocol execution reaches the nodes:
// the coordinator runs the protocol's round loop itself (protocol.Exec),
// every round is one wire.Round exchange with all peers, and the hosts
// answer with the bids of their sampling nodes in a wire.Reply. One Up is
// charged per bid and one Bcast per round, exactly like the in-process
// engines. The frames carry additional scheduling fields (round numbers,
// bounds, batching); their true framed volume is visible separately
// through TransportStats. The paper's Theorem 4.2 bounds the former; a
// deployment pays the latter.
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
// protocol executions run round by round over the node hosts.
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
// behind both NewLoopback and topk.Loopback.
func LoopbackLinks(peers int) []transport.Link { return fanout.Loopbacks(peers, Serve) }

// NewLoopback builds an in-process engine over LoopbackLinks. It is the
// networked engine's default mode (topkmon -engine net) and the
// configuration the equivalence tests run.
func NewLoopback(cfg Config, peers int) (*Engine, error) {
	return New(cfg, LoopbackLinks(peers))
}

// Serve runs the node-host side of the networked engine on one link: the
// leaf server of fanout.Serve, answering each protocol round with the
// bids of the local nodes that sample in it.
func Serve(link transport.Link) error {
	var reply wire.Reply // reusable bid list
	return fanout.Serve(link, func(bank *coord.Nodes, m wire.Round, dst []byte) []byte {
		reply.IDs, reply.Keys = reply.IDs[:0], reply.Keys[:0]
		bank.Round(m.Tag, m.Round, order.Key(m.Best), m.Bound, m.Step, func(id int, key order.Key) {
			reply.IDs = append(reply.IDs, id)
			reply.Keys = append(reply.Keys, int64(key))
		})
		return reply.Append(dst)
	})
}

// execRounds is the networked engine's Exec strategy: one protocol
// execution over the effect's cohort, each round one fan-out/gather
// exchange, charging Up per bid and Bcast per round exactly like the
// in-process engines.
func execRounds() fanout.Exec {
	var reply wire.Reply // reusable decode target
	var ex protocol.Exec // its winner buffer is sized by the first reset
	return func(e *fanout.Engine, eff coord.Effect) ([]protocol.Winner, error) {
		ex.Begin(eff.Bound, eff.Want, coord.MinimumTag(eff.Tag), e.Recorder(eff.Phase), nil, e.Step())
		for ex.More() {
			round := wire.Round{Tag: eff.Tag, Round: ex.Round(), Best: int64(ex.Best()), Bound: eff.Bound, Step: e.Step(), Want: eff.Want}
			err := e.Round(round, func(_, _ int, answer []byte) error {
				if err := reply.Decode(answer); err != nil {
					return err
				}
				for j, id := range reply.IDs {
					ex.Bid(id, order.Key(reply.Keys[j]))
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			ex.EndRound()
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
