package shardrun

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/fanout"
	"repro/internal/fanout/fanouttest"
	"repro/internal/order"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wire"
)

// transcript is every frame that crossed the links of one tree level, by
// direction, as their parent-side ends saw them.
type transcript struct {
	mu       sync.Mutex
	down, up [][]byte
}

func (tr *transcript) tap(l transport.Link) transport.Link {
	record := func(dir *[][]byte) func([]byte) {
		return func(frame []byte) {
			tr.mu.Lock()
			*dir = append(*dir, slices.Clone(frame))
			tr.mu.Unlock()
		}
	}
	return &tap{Link: l, onSend: record(&tr.down), onRecv: record(&tr.up)}
}

// TestInteriorChainIsIdentity pins that an interior is a fan over links like
// the root: behind one child it must put on the child link exactly what its
// parent put on its own, and hand up exactly what came back. A root drives
// the chain root → interior → interior → shard; the three links' transcripts
// must be byte-identical frame for frame in both directions — through
// batches, unicast extractions, a leaf killed mid-stream with the recovery
// that rebuilds the chain, and the teardown — except for TreeStats replies,
// where each level reports the level below plus its own LevelIO.
func TestInteriorChainIsIdentity(t *testing.T) {
	const n, k, seed, steps = 64, 4, 41, 300
	type feed func(s int) (ids []int, vals []int64) // nil ids: a dense step
	cases := []struct {
		name string
		cfg  Config
		feed func() feed
	}{
		{"dense", Config{N: n, K: k, Seed: seed}, func() feed {
			src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 900, Seed: 2})
			vals := make([]int64, n)
			return func(int) ([]int, []int64) { src.Step(vals); return nil, vals }
		}},
		{"delta", Config{N: n, K: k, Seed: seed}, func() feed {
			src := stream.NewSparseWalk(stream.SparseWalkConfig{N: n, Changed: 16, MaxStep: 1 << 17, Lo: 0, Hi: 1 << 20, Seed: 11})
			ids, vals := make([]int, n), make([]int64, n)
			return func(int) ([]int, []int64) {
				c := src.StepDelta(ids, vals)
				return ids[:c], vals[:c]
			}
		}},
		{"distinct", Config{N: n, K: k, Seed: seed}, func() feed { // values pairwise distinct by construction
			vals := make([]int64, n)
			return func(s int) ([]int, []int64) {
				for i := range vals {
					vals[i] = int64(i) + 1000*int64((s*(i+3)+7*i)%60)
				}
				return nil, vals
			}
		}},
		{"eps", Config{N: n, K: k, Seed: seed, Epsilon: 0.05}, func() feed {
			src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 1 << 16, Hi: 1 << 17, MaxStep: 20000, Seed: 5})
			vals := make([]int64, n)
			return func(int) ([]int, []int64) { src.Step(vals); return nil, vals }
		}},
	}
	for _, g := range fanouttest.Gathers {
		for _, tc := range cases {
			t.Run(g.Name+"/"+tc.name, func(t *testing.T) {
				fanouttest.SetGather(t, g.Procs)
				var levels [3]transcript
				var leaves sync.WaitGroup
				var mu sync.Mutex
				var leafEnd transport.Link // the serving end of the last leaf started
				up := func(level int, l transport.Link) transport.Link { return levels[level-1].tap(l) }
				leaf := func(l transport.Link) error {
					defer leaves.Done()
					mu.Lock()
					leafEnd = l
					mu.Unlock()
					return ServeShard(l)
				}
				chain := func() (transport.Link, error) {
					leaves.Add(1)
					return rigSubtree(1, 3, 1, up, leaf), nil
				}
				cfg := tc.cfg
				cfg.Redial = chain
				link, _ := chain()
				e, err := New(cfg, []transport.Link{link})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()

				next := tc.feed()
				for s := 0; s < steps; s++ {
					if s == steps/2 {
						// Kill the leaf between steps: this step dies on every
						// level, the next one redials a whole new chain.
						mu.Lock()
						leafEnd.Close()
						mu.Unlock()
					}
					if ids, vals := next(s); ids == nil {
						e.Observe(vals)
					} else {
						e.ObserveDelta(ids, vals)
					}
					if s%50 == 49 {
						if ts, err := e.TreeStats(); err != nil || len(ts.Levels) != 3 {
							t.Fatalf("step %d: TreeStats over two interiors and the root reports %d levels, %v", s, len(ts.Levels), err)
						}
					}
				}
				if err := e.Err(); err != nil {
					t.Fatal(err)
				}
				if h := e.Health(); h.Recoveries != 1 || h.Degraded {
					t.Fatalf("the killed leaf was not recovered from exactly once: %+v", h)
				}
				if st := e.Stats(); st.Resets < 3 || st.HandlerCalls == 0 {
					t.Fatalf("trace too quiet to compare anything: %+v", st)
				}
				// The teardown is part of the transcript: every serve loop has
				// seen its Shutdown once the leaves are gone.
				e.Close()
				gone := make(chan struct{})
				go func() { leaves.Wait(); close(gone) }()
				select {
				case <-gone:
				case <-time.After(10 * time.Second):
					t.Fatal("the chain's leaves are still serving 10 s after Close")
				}

				for lv := 0; lv < 2; lv++ {
					above, below := &levels[lv], &levels[lv+1]
					if len(above.down) != len(below.down) || len(above.up) != len(below.up) {
						t.Fatalf("level %d carried %d frames down and %d up, level %d %d and %d",
							lv+1, len(above.down), len(above.up), lv+2, len(below.down), len(below.up))
					}
					for i, frame := range above.down {
						if !bytes.Equal(frame, below.down[i]) {
							t.Fatalf("frame %d down: level %d sent %x, level %d %x", i, lv+1, frame, lv+2, below.down[i])
						}
					}
					for i, frame := range above.up {
						if frame[0] != wire.TypeTreeStats {
							if !bytes.Equal(frame, below.up[i]) {
								t.Fatalf("frame %d up: level %d received %x, level %d %x", i, lv+1, frame, lv+2, below.up[i])
							}
							continue
						}
						var a, b wire.TreeStats
						if err := a.Decode(frame); err != nil {
							t.Fatal(err)
						}
						if err := b.Decode(below.up[i]); err != nil {
							t.Fatal(err)
						}
						if len(a.Levels) != len(b.Levels)+1 || !slices.Equal(a.Levels[:len(b.Levels)], b.Levels) {
							t.Fatalf("frame %d up: level %d's TreeStats %+v is not level %d's %+v plus one LevelIO", i, lv+1, a, lv+2, b)
						}
					}
				}
				top := &levels[0]
				batches := 0
				for _, frame := range top.down {
					if frame[0] == wire.TypeBatch {
						batches++
					}
				}
				if last := top.down[len(top.down)-1]; len(top.down) <= steps || batches == 0 || last[0] != wire.TypeShutdown {
					t.Fatalf("transcript too thin to pin anything: %d frames down, %d batches, last frame %x", len(top.down), batches, last)
				}
			})
		}
	}
}

// FuzzInteriorRespond is fanout.FuzzLeafRespond one level up: an interior
// over three loopback shards that holds a valid assignment is fed two
// arbitrary frames. Whatever arrives, respond answers or returns an error —
// it never panics and never hangs — and once the relay is gone its
// children's serve loops exit.
func FuzzInteriorRespond(f *testing.F) {
	assign := wire.Assign{Lo: 4, Hi: 20, N: 24, K: 3, Seed: 5}.Append(nil)
	reset := wire.Round{Tag: coord.TagReset, Round: 0, Best: int64(order.NegInf), Bound: 24, Step: 1, Want: 4}.Append(nil)
	// Observation frames are split by their bytes, so one that turns
	// malformed mid-run does so with some children's shares already queued.
	dense := wire.Observe{Step: 1, Vals: []int64{1 << 40, -7, 0, 300, 5, 1 << 20, 9, 9, -1 << 33, 2, 4, 8, 16, 32, 64, 128}}.Append(nil)
	delta := wire.ObserveDelta{Step: 1, IDs: []int{4, 9, 12, 19}, Vals: []int64{5, -1 << 30, 1 << 30, -5}}.Append(nil)
	for _, seed := range [][]byte{
		dense, dense[:len(dense)/2], dense[:len(dense)-1], append(dense[:len(dense):len(dense)], 0),
		delta, delta[:len(delta)/2], delta[:len(delta)-1],
		wire.ObserveDelta{Step: 1, IDs: []int{3, 9}, Vals: []int64{1, 2}}.Append(nil),  // an id below the range
		wire.ObserveDelta{Step: 1, IDs: []int{9, 20}, Vals: []int64{1, 2}}.Append(nil), // an id beyond it
		reset, // three list digests to merge
		wire.Round{Tag: coord.TagReset, Round: 0, Best: int64(order.NegInf), Bound: 24, Step: 1, Want: 24}.Append(nil), // every node a winner
		wire.Round{Tag: coord.TagReset, Round: 0, Best: int64(order.NegInf), Bound: 24, Step: 1}.Append(nil),           // no winner wanted
		wire.Round{Tag: coord.TagReset, Round: 0, Best: int64(order.NegInf), Bound: 24, Step: 1, Want: 25}.Append(nil), // more than the bound
		wire.Round{Tag: coord.TagHandMin, Round: 0, Best: int64(order.NegInf), Bound: 1 << 50, Step: 1, Want: 1 << 49}.Append(nil),
		wire.Round{Tag: coord.TagReset, Round: 2, Best: 7, Bound: 0, Step: 1, Want: 1}.Append(nil),
		wire.Round{Tag: 9, Round: 0, Best: 7, Bound: 24, Step: 1, Want: 1}.Append(nil),
		wire.Round{Tag: coord.TagViolMin, Round: 70, Best: -3, Bound: 1 << 40, Step: 9, Want: 1}.Append(nil),
		wire.ObserveDelta{Step: 1, IDs: []int{4, 19}, Vals: []int64{5, -5}}.Append(nil),
		wire.Winner{Target: 19, IsTop: true}.Append(nil),
		wire.Winner{Target: 3}.Append(nil),
		wire.Midpoint{Mid: 12}.Append(nil),
		wire.ApproxBounds{Lo: 3, Hi: 9}.Append(nil),
		wire.AppendBare(nil, wire.TypeResetBegin),
		wire.AppendBare(nil, wire.TypeStatsPoll),
		wire.Batch{Frames: [][]byte{wire.AppendBare(nil, wire.TypeResetBegin), wire.Round{Tag: 5, Bound: 3, Want: 1}.Append(nil)}}.Append(nil),
		wire.Assign{Lo: 0, Hi: 2, N: 2, K: 2, Seed: 1}.Append(nil),
		wire.Batch{Frames: [][]byte{wire.AppendBare(nil, wire.TypeResetBegin), reset}}.Append(nil),
		wire.Batch{Frames: [][]byte{wire.Winner{Target: 19, IsTop: true}.Append(nil), wire.Midpoint{Mid: 12}.Append(nil)}}.Append(nil),
		wire.Observe{Step: 1, Vals: make([]int64, 16)}.Append(nil),
		wire.Assign{Lo: 4, Hi: 6, N: 24, K: 3, Seed: 5}.Append(nil), // narrower than the children
		wire.AppendBare(nil, wire.TypeShutdown),
	} {
		f.Add(seed, seed)
	}
	f.Fuzz(func(t *testing.T, first, second []byte) {
		for _, frame := range [][]byte{first, second} {
			// A reassignment builds the banks it names; keep the fuzzer from
			// asking for ones the machine cannot hold.
			if a, err := wire.DecodeAssign(frame); err == nil && a.Hi-a.Lo > 1<<16 {
				t.Skip()
			}
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			var leaves sync.WaitGroup
			leaves.Add(3)
			children := fanout.Loopbacks(3, func(l transport.Link) error {
				defer leaves.Done()
				return ServeShard(l)
			})
			parent, _ := transport.Pipe()
			r := newInterior(parent, children)
			if cont, err := r.respond(assign); err != nil || !cont {
				t.Errorf("valid assignment refused: %v", err)
			}
			for _, frame := range [][]byte{first, second} {
				if cont, err := r.respond(frame); err != nil || !cont {
					break // the serve loop ends here
				}
			}
			for _, c := range children {
				c.Close() // as ServeInterior does on its way out
			}
			leaves.Wait()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("the interior or one of its children hung")
		}
	})
}
