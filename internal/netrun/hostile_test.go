package netrun

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/coord"
	"repro/internal/fanout"
	"repro/internal/fanout/fanouttest"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wire"
)

// hostileLog hand-codes a bid log: after the type byte, each field as a
// uvarint, whatever they say (see wire.BidLog for the layout).
func hostileLog(fields ...uint64) []byte {
	p := []byte{wire.TypeBidLog}
	for _, f := range fields {
		p = wire.AppendUvarint(p, f)
	}
	return p
}

// TestHostileBidLogFailsThePeer feeds the coordinator, from one of its
// peers, a bid log of each kind wire.BidLog.Open refuses — an id outside
// the peer's range, a round the execution does not have, rounds out of
// order, an id that does not ascend within its round, a count the frame
// cannot hold — at the first execution it asks the peer for. The log must
// fail that peer through the failover path, as the wire error it is, and
// never panic: beside an honest peer the engine merges the range into it
// and reports oracle-exact sets from the next call on; alone, it goes
// cleanly terminal and keeps the last good report. Under both gathers.
func TestHostileBidLogFailsThePeer(t *testing.T) {
	const n, k = 16, 3
	rows := map[string]func(lo, hi, rounds int) []byte{
		"id outside the range": func(lo, hi, _ int) []byte { return hostileLog(0, 1, uint64(hi-lo), 8) },
		"round past the last":  func(_, _, rounds int) []byte { return hostileLog(uint64(rounds), 1, 0, 8) },
		"rounds out of order":  func(_, _, _ int) []byte { return hostileLog(2, 1, 0, 8, 1, 1, 1, 8) },
		"ids not ascending":    func(_, _, _ int) []byte { return hostileLog(1, 2, 1, 8, 0, 8) },
		"count past the frame": func(_, _, _ int) []byte { return hostileLog(0, 40, 0, 8) },
	}
	for name, row := range rows {
		for _, alone := range []bool{false, true} {
			shape := "beside an honest peer"
			if alone {
				shape = "alone"
			}
			t.Run(name+"/"+shape, func(t *testing.T) {
				fanouttest.EachGather(t, func(t *testing.T) {
					hostile := fanout.Loopback(func(link transport.Link) error {
						return fanout.ServeWith(link, func(bank *coord.Nodes, m wire.Round, dst []byte) []byte {
							return append(dst, row(bank.Lo(), bank.Hi(), protocol.Rounds(m.Bound))...)
						})
					})
					links := []transport.Link{fanout.Loopback(Serve), hostile}
					if alone {
						links = links[1:]
					}
					var downs []error
					e, err := fanout.New(fanout.Config{N: n, K: k, Seed: 3, OnEvent: func(ev coord.Event) {
						if ev.Kind == coord.EventPeerDown {
							downs = append(downs, ev.Err)
						}
					}}, links)
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1 << 12, MaxStep: 200, Seed: 4})
					vals := make([]int64, n)
					src.Step(vals)
					if got := e.Observe(vals); len(got) != 0 {
						t.Fatalf("the step whose reset met the hostile log reported %v, want the empty last-good report", got)
					}
					if len(downs) != 1 || !errors.Is(downs[0], wire.ErrMalformed) {
						t.Fatalf("peer failures %v, want one: the log's wire.ErrMalformed", downs)
					}
					for s := 0; s < 20; s++ {
						src.Step(vals)
						got := e.Observe(vals)
						if alone {
							if e.Err() == nil || len(got) != 0 {
								t.Fatalf("step %d: a monitor whose one peer lied is not terminal (%v), reports %v", s, e.Err(), got)
							}
							continue
						}
						if want := order.Oracle(vals, k); e.Err() != nil || !slices.Equal(got, want) {
							t.Fatalf("step %d after the hostile log: reports %v (err %v), want oracle %v", s, got, e.Err(), want)
						}
					}
					if h := e.Health(); !alone && (h.Recoveries != 1 || len(h.Peers) != 1) {
						t.Fatalf("health after the merge: %+v, want one recovery and one peer", h)
					}
				})
			})
		}
	}
}
