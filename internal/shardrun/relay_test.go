package shardrun

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/fanout"
	"repro/internal/fanout/fanouttest"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// installs is the sequence of filter installs a root shipped: every
// Midpoint and ApproxBounds command as it crossed the root's first link
// (each goes to every link).
type installs []string

func (in *installs) tap(l transport.Link) transport.Link {
	return &tap{Link: l, onSend: func(frame []byte) {
		wiretest.Subframes(frame, func(sub []byte) {
			if m, err := wire.DecodeMidpoint(sub); err == nil {
				*in = append(*in, fmt.Sprintf("mid %d full=%v", m.Mid, m.Full))
			}
			if m, err := wire.DecodeApproxBounds(sub); err == nil {
				*in = append(*in, fmt.Sprintf("band [%d, %d]", m.Lo, m.Hi))
			}
		})
	}}
}

// TestIncrementalMergeMatchesFullRemerge drives a root over S relays, each
// over two leaf shards, and a root over one host of all n nodes, side by
// side. (The name is from when a root merged its shards' winner lists and
// was checked against a full re-merge of their heads; the ids stay.) A
// relay answers with the log one host of its range would write, so the
// root's replay of S relays' logs is its replay of one host's: everything
// must be the same at every step and every S — reports, the machine's
// counters, every installed midpoint or band, the algorithm ledger and its
// phases.
func TestIncrementalMergeMatchesFullRemerge(t *testing.T) {
	const n, k, seed, steps = 24, 5, 41, 200
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
			src := stream.NewSparseWalk(stream.SparseWalkConfig{N: n, Changed: 4, MaxStep: 5000, Lo: 0, Hi: 1 << 20, Seed: 11})
			ids, vals, dense := make([]int, n), make([]int64, n), make([]int64, n)
			return func(s int) ([]int, []int64) {
				c := src.StepDelta(ids, vals)
				for j := 0; j < c; j++ {
					dense[ids[j]] = vals[j]
				}
				if s%7 == 3 { // a dense step now and then
					return nil, dense
				}
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
			src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 1 << 16, Hi: 1 << 17, MaxStep: 3000, Seed: 5})
			vals := make([]int64, n)
			return func(int) ([]int, []int64) { src.Step(vals); return nil, vals }
		}},
	}
	build := func(t *testing.T, cfg Config, links []transport.Link, log *installs) *Engine {
		t.Helper()
		links[0] = log.tap(links[0])
		e, err := New(cfg, links)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, g := range fanouttest.Gathers {
		for _, tc := range cases {
			for _, shards := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/S=%d", g.Name, tc.name, shards), func(t *testing.T) {
					fanouttest.SetGather(t, g.Procs)
					var fullLog, incLog installs
					full := build(t, tc.cfg, []transport.Link{fanout.Loopback(ServeShard)}, &fullLog)
					defer full.Close()
					relays := make([]transport.Link, shards)
					for i := range relays {
						relays[i] = fanout.Loopback(func(parent transport.Link) error { return ServeInterior(parent, fanout.Loopbacks(2, ServeShard)) })
					}
					inc := build(t, tc.cfg, relays, &incLog)
					defer inc.Close()
					next := tc.feed()
					for s := 0; s < steps; s++ {
						ids, vals := next(s)
						var a, b []int
						if ids == nil {
							a, b = full.Observe(vals), inc.Observe(vals)
						} else {
							a, b = full.ObserveDelta(ids, vals), inc.ObserveDelta(ids, vals)
						}
						if !slices.Equal(a, b) {
							t.Fatalf("step %d: reports differ: one host %v, relays %v", s, a, b)
						}
						if full.Stats() != inc.Stats() {
							t.Fatalf("step %d: stats differ: one host %+v, relays %+v", s, full.Stats(), inc.Stats())
						}
						if fmt.Sprint(fullLog) != fmt.Sprint(incLog) {
							t.Fatalf("step %d: installs differ:\none host %v\nrelays   %v", s, fullLog, incLog)
						}
						fullLog, incLog = fullLog[:0], incLog[:0]
						if full.Counts() != inc.Counts() || full.Bytes() != inc.Bytes() {
							t.Fatalf("step %d: ledgers differ: one host %v/%v, relays %v/%v", s, full.Counts(), full.Bytes(), inc.Counts(), inc.Bytes())
						}
					}
					for _, ph := range comm.Phases() {
						if full.Ledger().PhaseCounts(ph) != inc.Ledger().PhaseCounts(ph) || full.Ledger().PhaseBytes(ph) != inc.Ledger().PhaseBytes(ph) {
							t.Fatalf("phase %v ledgers differ", ph)
						}
					}
					if err := inc.Err(); err != nil {
						t.Fatal(err)
					}
					if st := inc.Stats(); st.Resets < 2 || st.HandlerCalls == 0 {
						t.Fatalf("trace too quiet to compare anything: %+v", st)
					}
				})
			}
		}
	}
}
