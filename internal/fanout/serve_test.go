package fanout_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/netrun"
	"repro/internal/shardrun"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestHostileRoundFrameEndsServeWithError pins the leaf server's promise
// for the three Round fields the codec cannot vet: after a valid Assign, a
// population bound of 0, a cohort tag no protocol has or a winner count
// outside [1, bound] ends the serve loop with an error — the link closes and the coordinator's failover
// takes over — on both servers. Each of them would panic inside the
// bank or the execution, and a Loopback host lives in the monitor's process.
func TestHostileRoundFrameEndsServeWithError(t *testing.T) {
	servers := map[string]func(transport.Link) error{"netrun.Serve": netrun.Serve, "shardrun.ServeShard": shardrun.ServeShard}
	frames := map[string]wire.Round{
		"bound 0":          {Tag: coord.TagReset, Round: 0, Best: 0, Bound: 0, Step: 1, Want: 1},
		"tag 9":            {Tag: 9, Round: 0, Best: 0, Bound: 8, Step: 1, Want: 1},
		"want 0":           {Tag: coord.TagReset, Round: 0, Best: 0, Bound: 8, Step: 1},
		"want above bound": {Tag: coord.TagReset, Round: 0, Best: 0, Bound: 8, Step: 1, Want: 9},
	}
	for sname, serve := range servers {
		for fname, round := range frames {
			t.Run(sname+"/"+fname, func(t *testing.T) {
				near, far := transport.Pipe()
				done := make(chan error, 1)
				go func() { done <- serve(far) }()
				if err := near.Send(wire.Assign{Lo: 0, Hi: 8, N: 8, K: 2, Seed: 3}.Append(nil)); err != nil {
					t.Fatal(err)
				}
				if ready, err := near.Recv(); err != nil || len(ready) != 1 || ready[0] != wire.TypeReady {
					t.Fatalf("assignment answered by %x, %v", ready, err)
				}
				if err := near.Send(round.Append(nil)); err != nil {
					t.Fatal(err)
				}
				select {
				case err := <-done:
					if err == nil || !strings.Contains(err.Error(), "round frame") {
						t.Fatalf("serve loop ended with %v, want the round frame's rejection", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("serve loop still running after a hostile round frame")
				}
				near.Close()
			})
		}
	}
}
