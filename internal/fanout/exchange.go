package fanout

import (
	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/wire"
)

// The bid-log exchange: a protocol execution crosses a link as one
// exchange, whatever its ⌈log₂ N⌉ + 1 rounds. The coordinator sends every
// peer one wire.Round request; a host runs the whole execution over its
// range against its own running cut and answers with its bid log — every
// bid it made, grouped by round (wire.BidLog) — and the coordinator
// replays the logs round by round against the true cut
// (protocol.Exec.Replay), which keeps exactly the bids the round-by-round
// execution would have heard. A relay stands between the two as a host of
// its whole subtree: it replays its children's logs against the subtree's
// own cut and writes what it keeps as one log (subtreeLog).

// LogRound returns a node host's answer to a Round request: run the whole
// execution over the local nodes (coord.Nodes.Run) and answer with its bid
// log, written straight into the reply frame. It is the leaf's RoundFunc.
func LogRound() RoundFunc {
	var ex protocol.Exec // the host's own cut
	var log wire.BidLogWriter
	return func(bank *coord.Nodes, m wire.Round, dst []byte) []byte {
		log.Begin(dst, bank.Lo())
		ex.Begin(m.Bound, m.Want, coord.MinimumTag(m.Tag), comm.Discard, nil, m.Step)
		bank.Run(m.Tag, m.Step, &ex, &log)
		return log.End()
	}
}

// execRounds is the root's Exec: one protocol execution over the effect's
// cohort as one exchange — one Round request to every peer, one bid log
// back — replayed in place: each log is read where its answer frame lies,
// which stays valid until its link's next exchange, long after the replay.
// A peer may be one host or a relay answering for its subtree; the root
// cannot tell them apart. One Up is charged per delivered bid and one
// Bcast per round, exactly as the in-process engines charge. A log that is
// malformed, or names a node outside its peer's range or a round the
// execution does not have, fails that peer like a dead link.
func execRounds() Exec {
	var ex protocol.Exec // its winner buffer is sized by the first reset
	var logs []wire.BidLog
	return func(e *Engine, eff coord.Effect) ([]protocol.Winner, error) {
		rounds := protocol.Rounds(eff.Bound)
		req := wire.Round{Tag: eff.Tag, Best: int64(order.NegInf), Bound: eff.Bound, Step: e.Step(), Want: eff.Want}
		logs = logs[:0]
		err := e.Round(req, func(lo, hi int, answer []byte) error {
			logs = append(logs, wire.BidLog{})
			return logs[len(logs)-1].Open(answer, lo, hi, rounds)
		})
		if err == nil {
			ex.Begin(eff.Bound, eff.Want, coord.MinimumTag(eff.Tag), e.Recorder(eff.Phase), nil, e.Step())
			ex.Replay(logs, coord.ExecTol(eff.Tag, e.Tol()), nil)
		}
		clear(logs) // hold no answer frame past the exchange
		if err != nil {
			return nil, err
		}
		return ex.Winners(), nil
	}
}

// subtreeLog is what a relay answers an execution with: its children's
// bid logs, in range order, replayed against the subtree's own running cut
// (protocol.Exec.Replay), each bid the replay keeps written into one log —
// the log one host of the children's nodes would have written, byte for
// byte. The replay is exact, whatever the monitor's tolerance: the root's
// replay widens the cut, and only over exact logs is that replay the true
// execution. The zero value is ready to use and keeps its buffers.
type subtreeLog struct {
	ex  protocol.Exec // the subtree's own cut
	log wire.BidLogWriter
}

// append appends to dst the log for execution m of a subtree whose first
// node is lo, from its children's opened logs.
func (s *subtreeLog) append(dst []byte, lo int, m wire.Round, logs []wire.BidLog) []byte {
	s.log.Begin(dst, lo)
	s.ex.Begin(m.Bound, m.Want, coord.MinimumTag(m.Tag), comm.Discard, nil, m.Step)
	s.ex.Replay(logs, order.Tol{}, &s.log)
	return s.log.End()
}
