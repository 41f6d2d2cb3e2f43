package netrun

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/fanout"
	"repro/internal/fanout/fanouttest"
	"repro/internal/transport"
	"repro/internal/wire"
)

// opLog records the frames a host receives, in FaultPlan's operation
// count: the type byte of each frame a Recv returned, 0 for a Send.
type opLog struct {
	transport.Link
	mu  sync.Mutex
	ops []byte
}

func (l *opLog) Send(p []byte) error {
	l.mu.Lock()
	l.ops = append(l.ops, 0)
	l.mu.Unlock()
	return l.Link.Send(p)
}

func (l *opLog) Recv() ([]byte, error) {
	p, err := l.Link.Recv()
	l.mu.Lock()
	if err == nil {
		l.ops = append(l.ops, p[0])
	} else {
		l.ops = append(l.ops, 0)
	}
	l.mu.Unlock()
	return p, err
}

// TestChaosDupOnObserveFrame lands a DupAt on the host end of a link, on
// the Recv of a dense Observe frame: the host is handed one step's changes
// twice and applies them twice, which leaves its bank off the
// coordinator's mirror. The fault model is what keeps that harmless — the
// duplicate comes with a cut, so the host never answers from that bank,
// and recovery re-Assigns every bank before the next change-coded frame —
// and RunChaos holds the run to its two-step window, not widened for it.
// The operation index is found on a recorded run of the same engine and
// inputs.
func TestChaosDupOnObserveFrame(t *testing.T) {
	const victim, atStep = 2, 30
	host := func(wrap func(transport.Link) transport.Link) []transport.Link {
		return slices.Insert(LoopbackLinks(fanouttest.ChaosLinks-1), victim, fanout.Loopback(func(l transport.Link) error { return Serve(wrap(l)) }))
	}
	fanouttest.EachGather(t, func(t *testing.T) {
		rec := &opLog{}
		e, err := New(Config{N: fanouttest.ChaosN, K: fanouttest.ChaosK, Seed: 5},
			host(func(l transport.Link) transport.Link { rec.Link = l; return rec }))
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]int64, fanouttest.ChaosN)
		for s := 0; s <= atStep; s++ {
			fanouttest.Driven(s, vals)
			e.Observe(vals)
		}
		rec.mu.Lock()
		at := int64(0)
		for i, typ := range rec.ops {
			if typ == wire.TypeObserve {
				at = int64(i + 1) // the last Observe frame so far, 1-based
			}
		}
		rec.mu.Unlock()
		e.Close()
		if at == 0 {
			t.Fatal("the recorded run sent the victim no Observe frame")
		}

		plan := transport.FaultPlan{DupAt: at}
		e, err = New(Config{N: fanouttest.ChaosN, K: fanouttest.ChaosK, Seed: 5},
			host(func(l transport.Link) transport.Link { return transport.NewFaulty(l, plan) }))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		fanouttest.RunChaos(t, e.Engine, 80)
		if h := e.Health(); h.Failures == 0 || h.Recoveries == 0 {
			t.Fatalf("the duplicated Observe frame at operation %d never cut the link: %+v", at, h)
		}
	})
}
