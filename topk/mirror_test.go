package topk

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/coord"
	"repro/internal/fanout"
	"repro/internal/order"
	"repro/internal/transport"
)

// TestMirrorWidensMidRun holds a link-backed root's last-value mirror to
// the tier of its values across a run in which a value crosses 2²³ at step
// int32At, another 2³¹ at step widenAt and another 2⁴⁷ at step widestAt,
// over Loopback(2) and a 2x2
// tree, on dense steps and on sparse ones. The mirror is what frames are
// coded against, what a failover replays into rebuilt banks and what a
// checkpoint stores, so each of those is run over the 6-byte mirror:
//
//   - a plain run: at every step the report and Bytes equal the sequential
//     engine's, and the mirror is 3 bytes a node until step int32At, 4
//     until step widenAt, 6 until step widestAt and 8 from then on;
//   - a failover: a root link, wrapped in a transport.Faulty, is cut ahead
//     of step cutAt, which returns the last good report; the next step
//     redials, replays the 6-byte mirror and forces a FILTERRESET, and
//     every report after it equals the sequential engine's (Bytes do up to
//     the cut; the recovery's reset is charged on top);
//   - a Restore from a checkpoint taken at step restoreAt: the restored
//     mirror is 6 bytes a node, and every report after it equals the
//     sequential engine's.
func TestMirrorWidensMidRun(t *testing.T) {
	const n, k, seed, steps = 64, 4, 9, 14
	const int32At, widenAt, cutAt, restoreAt, widestAt = 2, 5, 8, 7, 10
	shapes := []struct {
		name string
		cfg  func() Config
		// build builds the shape's engine over root links whose second is cut.
		build func(cut transport.Link) (engine, error)
	}{
		{"loopback", func() Config { return Config{Nodes: n, K: k, Seed: seed, Transport: Loopback(2)} },
			func(cut transport.Link) (engine, error) {
				redial := func() (transport.Link, error) { return fanout.Loopback(fanout.Serve), nil }
				return fanout.New(fanout.Config{N: n, K: k, Seed: seed, Redial: redial}, []transport.Link{fanout.Loopback(fanout.Serve), cut})
			}},
		{"tree", func() Config { return Config{Nodes: n, K: k, Seed: seed, Tree: Tree{Branch: 2, Depth: 2}} },
			func(cut transport.Link) (engine, error) {
				redial := func() (transport.Link, error) { return fanout.LoopbackSubtree(2, 2), nil }
				cfg := fanout.Config{N: n, K: k, Seed: seed, Tree: fanout.Tree{Branch: 2, Depth: 2}, Redial: redial}
				return fanout.New(cfg, []transport.Link{fanout.LoopbackSubtree(2, 2), cut})
			}},
	}
	for _, sh := range shapes {
		for _, sparse := range []bool{false, true} {
			arm := "dense"
			if sparse {
				arm = "sparse"
			}
			t.Run(sh.name+"/"+arm, func(t *testing.T) {
				tr := newWideningTrace(n, int32At, widenAt, widestAt, sparse)
				tier := func(s int) coord.Tier {
					switch {
					case s < int32At:
						return coord.Tier24
					case s < widenAt:
						return coord.Tier32
					case s < widestAt:
						return coord.Tier48
					}
					return coord.Tier64
				}
				seq, err := New(Config{Nodes: n, K: k, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				defer seq.Close()
				var reports [][]int
				var bytes []Bytes
				for s := 0; s < steps; s++ {
					reports = append(reports, slices.Clone(tr.observe(t, seq, s)))
					bytes = append(bytes, seq.Bytes())
				}

				// The plain run.
				m, err := New(sh.cfg())
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < steps; s++ {
					where := fmt.Sprintf("plain run, step %d", s)
					holdToSeq(t, where, tr.observe(t, m, s), reports[s], m.Bytes(), bytes[s])
					holdMirror(t, where, m, tier(s))
				}
				m.Close()

				// The failover.
				cut := transport.NewFaulty(fanout.Loopback(fanout.Serve), transport.FaultPlan{})
				if sh.name == "tree" {
					cut = transport.NewFaulty(fanout.LoopbackSubtree(2, 2), transport.FaultPlan{})
				}
				eng, err := sh.build(cut)
				if err != nil {
					t.Fatal(err)
				}
				f := &Monitor{cfg: sh.cfg(), maxVal: order.MaxValueFor(n), eng: eng}
				for s := 0; s < steps; s++ {
					where := fmt.Sprintf("failover run, step %d", s)
					if s == cutAt {
						cut.Close()
					}
					got := tr.observe(t, f, s)
					switch {
					case s < cutAt:
						holdToSeq(t, where, got, reports[s], f.Bytes(), bytes[s])
					case s == cutAt:
						if !slices.Equal(got, reports[s-1]) {
							t.Fatalf("%s: the cut step reports %v, want the last good report %v", where, got, reports[s-1])
						}
					default:
						if !slices.Equal(got, reports[s]) {
							t.Fatalf("%s: reports %v after the failover, seq %v", where, got, reports[s])
						}
					}
					holdMirror(t, where, f, tier(s))
				}
				if h := f.Health(); h.Failures == 0 || h.Recoveries == 0 || h.Degraded || h.Terminal != nil {
					t.Fatalf("failover run: health %+v, want one recovered failure", h)
				}
				f.Close()

				// The restore.
				cfg := sh.cfg()
				cfg.Checkpoint = Checkpoint{Store: MemCheckpoints()}
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s <= restoreAt; s++ {
					tr.observe(t, c, s)
				}
				if _, err := c.Checkpoint(context.Background()); err != nil {
					t.Fatal(err)
				}
				c.Close()
				again := sh.cfg()
				r, err := Restore(cfg.Checkpoint.Store, again)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				holdMirror(t, "restored", r, tier(restoreAt))
				for s := restoreAt + 1; s < steps; s++ {
					where := fmt.Sprintf("restored run, step %d", s)
					if got := tr.observe(t, r, s); !slices.Equal(got, reports[s]) {
						t.Fatalf("%s: reports %v, seq %v", where, got, reports[s])
					}
					holdMirror(t, where, r, tier(s))
				}
			})
		}
	}
}

// wideningTrace is the run TestMirrorWidensMidRun feeds every monitor:
// values in 24 bits until step int32At, where node 11 crosses 2²³; in int32
// until step widenAt, where node 3 crosses 2³¹, and node n-5 crosses -2³¹ a
// step later; values in 48 bits until step widestAt, where node 7 crosses
// 2⁴⁷; dense steps, or sparse ones that move every fifth node and the four
// that cross (step 0 is every node).
type wideningTrace struct {
	n, int32At, widenAt, widestAt int
	sparse                        bool
	vals                          []int64
	ids                           []int
}

func newWideningTrace(n, int32At, widenAt, widestAt int, sparse bool) *wideningTrace {
	return &wideningTrace{n: n, int32At: int32At, widenAt: widenAt, widestAt: widestAt, sparse: sparse, vals: make([]int64, n)}
}

// observe feeds monitor m step s and returns its report.
func (tr *wideningTrace) observe(t *testing.T, m *Monitor, s int) []int {
	t.Helper()
	tr.ids = tr.ids[:0]
	for i := range tr.vals {
		v := int64((i*7919+s*104729)%100003) - 50000
		switch {
		case i == 3 && s >= tr.widenAt:
			v = 1<<31 + int64(s)
		case i == tr.n-5 && s > tr.widenAt:
			v = -1<<31 - 1 - int64(s)
		case i == 7 && s >= tr.widestAt:
			v = 1<<47 + int64(s)
		case i == 11 && s >= tr.int32At:
			v = 1<<23 + int64(s)
		}
		if s == 0 || !tr.sparse || i%5 == s%5 || i == 3 || i == tr.n-5 || i == 7 || i == 11 {
			tr.vals[len(tr.ids)] = v
			tr.ids = append(tr.ids, i)
		}
	}
	var got []int
	var err error
	if tr.sparse {
		got, err = m.ObserveDelta(tr.ids, tr.vals[:len(tr.ids)])
	} else {
		got, err = m.Observe(tr.vals)
	}
	if err != nil {
		t.Fatalf("step %d: %v", s, err)
	}
	return got
}

// holdToSeq fails unless a monitor's report and Bytes equal the sequential
// engine's.
func holdToSeq(t *testing.T, where string, got, want []int, gotBytes, wantBytes Bytes) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: reports %v, seq %v", where, got, want)
	}
	if gotBytes != wantBytes {
		t.Fatalf("%s: Bytes %+v, seq %+v", where, gotBytes, wantBytes)
	}
}

// holdMirror fails unless a link-backed monitor's root keeps its mirror at
// tier want.
func holdMirror(t *testing.T, where string, m *Monitor, want coord.Tier) {
	t.Helper()
	if got := m.eng.(interface{ MirrorTier() coord.Tier }).MirrorTier(); got != want {
		t.Fatalf("%s: mirror at %d bytes a node, want %d", where, got, want)
	}
}
