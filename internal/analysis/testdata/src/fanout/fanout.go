// Package fanout pins that the chargedsend analyzer's scope covers the
// fan-out core: the engine packages' sends moved here, so an uncharged
// Send in a package of this name must still be a diagnostic.
package fanout

import (
	"comm"
	"transport"
)

// uncharged emits a frame no ledger can see.
func uncharged(l transport.Link) {
	_ = l.Send(nil) // want "not visible to any comm ledger"
}

// unchargedLent emits a lent frame no ledger can see.
func unchargedLent(l transport.Lender) {
	_ = l.SendLent(l.Lend()) // want "not visible to any comm ledger"
}

// ship charges the link ledger beside the send, the core's one send
// path.
func ship(l transport.Link, c *comm.Counter, frame []byte) error {
	if err := l.Send(frame); err != nil {
		return err
	}
	c.RecordSized(0, 1, int64(len(frame)))
	return nil
}

// shipLent charges the link ledger beside a lent send.
func shipLent(l transport.Lender, c *comm.Counter) error {
	frame := append(l.Lend(), 1)
	if err := l.SendLent(frame); err != nil {
		return err
	}
	c.RecordSized(0, 1, int64(len(frame)))
	return nil
}
