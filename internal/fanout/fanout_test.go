package fanout_test

import (
	"bytes"
	"testing"

	"repro/internal/fanout"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestSplit pins the one range layout of the system: contiguous,
// covering, near-even, the first (hi-lo) mod parts ranges one node wider.
func TestSplit(t *testing.T) {
	for _, tc := range []struct{ lo, hi, parts int }{{0, 12, 3}, {0, 13, 4}, {5, 12, 7}, {3, 20, 1}, {0, 4096, 16}} {
		next := tc.lo
		base := (tc.hi - tc.lo) / tc.parts
		for i := 0; i < tc.parts; i++ {
			lo, hi := fanout.Split(tc.lo, tc.hi, tc.parts, i)
			want := base
			if i < (tc.hi-tc.lo)%tc.parts {
				want++
			}
			if lo != next || hi-lo != want {
				t.Fatalf("Split(%d, %d, %d, %d) = [%d, %d), want [%d, %d)", tc.lo, tc.hi, tc.parts, i, lo, hi, next, next+want)
			}
			next = hi
		}
		if next != tc.hi {
			t.Fatalf("Split(%d, %d, %d, ·) covers up to %d", tc.lo, tc.hi, tc.parts, next)
		}
	}
}

// TestDeadLinkKeepsTransportStats pins that recovery retires a dead
// link's traffic instead of forgetting it: TransportStats must be
// monotone through a peer's death and its merge or redial, over a flat
// peer set and over the star of the same leaves (the labels are from when
// the star delegated its executions). (Summing only the current links made
// the dead peer's frames vanish: SentFrames 11552 → 8785 in the scenario
// that showed it.)
func TestDeadLinkKeepsTransportStats(t *testing.T) {
	const n, k, seed, peers = 24, 3, 7, 4
	shapes := []struct {
		name string
		tree fanout.Tree
	}{
		{"rounds", fanout.Tree{}},
		{"delegated", fanout.Tree{Branch: peers, Depth: 1}},
	}
	for _, sh := range shapes {
		for _, variant := range []string{"merge", "redial"} {
			t.Run(sh.name+"/"+variant, func(t *testing.T) {
				cfg := fanout.Config{N: n, K: k, Seed: seed, Tree: sh.tree}
				if variant == "redial" {
					cfg.Redial = func() (transport.Link, error) { return fanout.Loopback(fanout.Serve), nil }
				}
				links := fanout.Loopbacks(peers, fanout.Serve)
				e, err := fanout.New(cfg, links)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				src := stream.NewIID(stream.IIDConfig{N: n, Seed: 3, Dist: stream.Uniform, Lo: 0, Hi: 1 << 20})
				vals := make([]int64, n)
				prev := e.TransportStats()
				step := func(s int) {
					src.Step(vals)
					e.Observe(vals)
					cur := e.TransportStats()
					if cur.SentFrames < prev.SentFrames || cur.SentBytes < prev.SentBytes ||
						cur.RecvFrames < prev.RecvFrames || cur.RecvBytes < prev.RecvBytes {
						t.Fatalf("step %d: TransportStats went backwards: %+v -> %+v", s, prev, cur)
					}
					prev = cur
				}
				for s := 0; s < 200; s++ {
					step(s)
				}
				links[1].Close()
				for s := 200; s < 210; s++ {
					step(s)
				}
				if e.Err() != nil {
					t.Fatalf("recovery went terminal: %v", e.Err())
				}
				if h := e.Health(); h.Recoveries == 0 || h.Degraded {
					t.Fatalf("the dead link was never recovered from: %+v", h)
				}
			})
		}
	}
}

// TestSubframesKeepNoEarlierFrame pins that the serving side's decode
// storage holds nothing of an earlier frame: after a batch of three
// commands, a lone command leaves every other slot empty, so a buffer the
// link let go (transport.Retention) is not kept alive by a stale slot.
func TestSubframesKeepNoEarlierFrame(t *testing.T) {
	var b wire.Batch
	batch := wire.Batch{Frames: [][]byte{
		wire.AppendBare(nil, wire.TypeResetBegin),
		wire.Midpoint{Mid: 9}.Append(nil),
		wire.AppendBare(nil, wire.TypeResetBegin),
	}}.Append(nil)
	if subs, batched, err := fanout.Subframes(&b, batch); err != nil || !batched || len(subs) != 3 {
		t.Fatalf("batch of three: %d sub-frames, batched %v, err %v", len(subs), batched, err)
	}
	subs, batched, err := fanout.Subframes(&b, wire.AppendBare(nil, wire.TypeShutdown))
	if err != nil || batched || len(subs) != 1 {
		t.Fatalf("lone command: %d sub-frames, batched %v, err %v", len(subs), batched, err)
	}
	for i, sub := range b.Frames[1:cap(b.Frames)] {
		if sub != nil {
			t.Fatalf("slot %d still holds %x from the batch before", i+1, sub)
		}
	}
}

// TestFramesSizeTheirBufferByTheirFrames pins that an arena's buffer is its
// link's and follows the link's transport.Retention — here Lending's, over
// a link that cannot lend: an arena a large share grew is let go once two
// shares in a row have needed under half of it, while a batch of more than
// 1 KiB of protocol commands between two shares above the 2 KiB floor — a
// large-k reset's Winners, queued on a relay's child — lets nothing go, so
// that cycle allocates nothing.
func TestFramesSizeTheirBufferByTheirFrames(t *testing.T) {
	link := transport.Lending(discard{})
	a := fanout.NewFrames(link)
	carry := func(p []byte) (capacity int) {
		a.Add(func(dst []byte) []byte { return append(dst, p...) })
		frame := a.Frame(false)
		capacity = cap(frame)
		if err := link.SendLent(frame); err != nil {
			t.Fatal(err)
		}
		a.Reset()
		return capacity
	}
	big, share, batch := make([]byte, 400<<10), make([]byte, 100<<10), make([]byte, 3<<10)
	carry(big)
	if c := carry(share); c < len(big) {
		t.Fatalf("the share after a %d-byte one went out of a %d-byte arena; want the one it grew", len(big), c)
	}
	carry(share)
	if c := carry(share); c >= 2*len(share) {
		t.Fatalf("a %d-byte share still goes out of a %d-byte arena after two of its size", len(share), c)
	}
	if avg := testing.AllocsPerRun(50, func() { carry(share); carry(batch) }); avg != 0 {
		t.Fatalf("shares with a reset batch between them allocate %.2f per cycle, want 0", avg)
	}
}

// discard is a link that cannot lend and sends nowhere.
type discard struct{}

func (discard) Send([]byte) error     { return nil }
func (discard) Recv() ([]byte, error) { return nil, transport.ErrClosed }
func (discard) Close() error          { return nil }

// TestFramesWriteTheBatchLayout pins that an arena's frame is the one
// wire.Batch.Append would encode for its sub-frames — or the lone
// sub-frame itself — whatever their lengths, the sub-frames of 128 bytes
// or more that it moves up behind another to make room for their length
// prefixes included.
func TestFramesWriteTheBatchLayout(t *testing.T) {
	link := transport.Lending(discard{})
	a := fanout.NewFrames(link)
	for _, lens := range [][]int{{}, {1}, {127}, {128}, {1, 2}, {200, 3}, {3, 200}, {127, 128, 16384, 5}, {20000, 1, 300}} {
		for _, batch := range []bool{false, true} {
			if len(lens) == 0 && !batch {
				continue
			}
			var want wire.Batch
			for i, l := range lens {
				sub := make([]byte, l)
				for j := range sub {
					sub[j] = byte(i + j + 1)
				}
				sub[0] = wire.TypeMidpoint
				want.Frames = append(want.Frames, sub)
				a.Add(func(dst []byte) []byte { return append(dst, sub...) })
			}
			got := a.Frame(batch)
			if !batch && len(lens) == 1 {
				if !bytes.Equal(got, want.Frames[0]) {
					t.Fatalf("lone sub-frame of %d bytes went out as %d bytes", lens[0], len(got))
				}
			} else if !bytes.Equal(got, want.Append(nil)) {
				t.Fatalf("sub-frames of %v bytes (batch %v) went out as %d bytes, not as their wire.Batch of %d", lens, batch, len(got), len(want.Append(nil)))
			}
			if err := link.SendLent(got); err != nil {
				t.Fatal(err)
			}
			a.Reset()
		}
	}
}
