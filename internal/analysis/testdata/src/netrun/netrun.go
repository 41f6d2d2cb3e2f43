// Package netrun is the chargedsend analyzer's fixture: every
// transport.Link.Send must live in a function that — directly or through
// same-package helpers — records to a comm ledger or drives the coord
// machine.
package netrun

import (
	"comm"
	"coord"
	"transport"
)

// uncharged emits a frame no ledger can see.
func uncharged(l transport.Link) {
	_ = l.Send(nil) // want "not visible to any comm ledger"
}

// flushOnly only releases already-counted bytes; Flush is not checked.
func flushOnly(l transport.Link) {
	_ = transport.Flush(l)
}

// charged records the frame beside the send, the shardrun overhead
// pattern.
func charged(l transport.Link, c *comm.Counter) error {
	if err := l.Send(nil); err != nil {
		return err
	}
	c.RecordSized(0, 1, 1)
	return nil
}

// driven ships a frame from a charged context: the coord machine it
// steps owns the model ledger.
func driven(l transport.Link, m *coord.Machine) error {
	m.BeginStep()
	return l.Send(nil)
}

// viaHelper charges transitively through a same-package helper.
func viaHelper(l transport.Link, c *comm.Counter) error {
	charge(c)
	return l.Send(nil)
}

func charge(c *comm.Counter) { c.RecordSized(0, 1, 1) }

// wrapper is the audited-exception fixture: a pure transmit wrapper
// whose callers have already charged the frame.
func wrapper(l transport.Link, frame []byte) error {
	//lint:topk chargedsend pure transmit wrapper; callers charge via machine effects (fixture)
	return l.Send(frame)
}
