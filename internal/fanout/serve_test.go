package fanout_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/fanout"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestHostileRoundFrameEndsServeWithError pins the leaf server's promise
// for the three Round fields the codec cannot vet: after a valid Assign, a
// population bound of 0, a cohort tag no protocol has or a winner count
// outside [1, bound] ends the serve loop with an error — the link closes
// and the coordinator's failover takes over. Each of them would panic
// inside the bank or the execution, and a Loopback host lives in the
// monitor's process. (The two rows are one server now, fanout.Serve, under
// the names of the two packages that used to wrap it; the ids stay.)
func TestHostileRoundFrameEndsServeWithError(t *testing.T) {
	servers := map[string]func(transport.Link) error{"netrun.Serve": fanout.Serve, "shardrun.ServeShard": fanout.Serve}
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

// TestOlderBuildAssignRefused pins the handshake gate of the bid-log
// answer from the host's side: an Assign as the build that answered a
// Round request one round at a time wrote it — the change-coding flag
// alone — ends the leaf's loop with the refusal (both rows, as above),
// before any Ready: a
// coordinator that would read a bid log as one round's bids never gets a
// peer to send it one.
func TestOlderBuildAssignRefused(t *testing.T) {
	frame := wire.Assign{Lo: 0, Hi: 8, N: 8, K: 2, Seed: 3}.Append(nil)
	frame[len(frame)-1] = 0x04 // the flags byte of the round-by-round build
	servers := map[string]func(transport.Link) error{"netrun.Serve": fanout.Serve, "shardrun.ServeShard": fanout.Serve}
	for name, serve := range servers {
		t.Run(name, func(t *testing.T) {
			near, far := transport.Pipe()
			done := make(chan error, 1)
			go func() { done <- serve(far) }()
			if err := near.Send(frame); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if !errors.Is(err, wire.ErrMalformed) || !strings.Contains(err.Error(), "without bid-log answers") {
					t.Fatalf("serve loop ended with %v, want the assignment's refusal", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("serve loop still running after an older build's assignment")
			}
			near.Close()
		})
	}
}
