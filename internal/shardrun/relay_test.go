package shardrun

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/fanout"
	"repro/internal/fanout/fanouttest"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// relayScript is one small population in a state where every cohort can
// have members: observed at step 1, its k largest keys made the top set
// and filters installed around them, then observed at step 2 with every
// value moved a little, so both sides violate. It builds a bank of any
// sub-range of the population in that state; banks of the same script flip
// the same coins, whatever range they host.
type relayScript struct {
	n, lo, k   int // the population is [lo, lo+n) of n+2 nodes
	seed       uint64
	tol        order.Tol
	vals, next []int64 // the step-1 and step-2 values, by offset from lo
	top        []int
	mid        order.Key
	band       [2]order.Key // the ε install, when tol is not zero
}

func newRelayScript(t *testing.T, n, k int, seed uint64, eps float64) *relayScript {
	t.Helper()
	tol, err := order.NewTol(eps)
	if err != nil {
		t.Fatal(err)
	}
	s := &relayScript{n: n, lo: 1, k: k, seed: seed, tol: tol}
	r := rng.New(seed, 0x7e1a)
	probe := coord.NewNodes(n+2, 0, n+2, seed, false, tol)
	keys := make([]order.Key, n)
	ranked := make([]int, n)
	for i := range n {
		s.vals = append(s.vals, 1000+r.Int63n(24))
		s.next = append(s.next, s.vals[i]+r.Int63n(25)-12)
		keys[i], _ = probe.Encode(s.lo+i, s.vals[i])
		ranked[i] = i
	}
	slices.SortFunc(ranked, func(a, b int) int { return cmp.Compare(keys[b], keys[a]) })
	for _, i := range ranked[:k] {
		s.top = append(s.top, s.lo+i)
	}
	if k < n {
		s.mid = order.Midpoint(keys[ranked[k]], keys[ranked[k-1]])
		s.band = [2]order.Key{keys[ranked[k]], keys[ranked[k-1]]}
	}
	return s
}

// bank builds the bank of nodes [lo, hi) in the script's state.
func (s *relayScript) bank(t *testing.T, lo, hi int) *coord.Nodes {
	t.Helper()
	b := coord.NewNodes(s.n+2, lo, hi, s.seed, false, s.tol)
	observe := func(vals []int64, step int64) {
		for id := lo; id < hi; id++ {
			if _, _, err := b.Observe(id, vals[id-s.lo], step); err != nil {
				t.Fatal(err)
			}
		}
	}
	observe(s.vals, 1)
	b.ResetBegin()
	for _, id := range s.top {
		if id >= lo && id < hi {
			b.Winner(id, true)
		}
	}
	switch {
	case s.k == s.n:
		b.Midpoint(0, true)
	case s.tol != (order.Tol{}):
		b.ApplyBounds(s.band[0], s.band[1])
	default:
		b.Midpoint(s.mid, false)
	}
	observe(s.next, 2)
	return b
}

// hostLog is the bid log a host of b's nodes answers execution m with: the
// leaves' code (netrun's logRound).
func hostLog(b *coord.Nodes, m wire.Round) []byte {
	var ex protocol.Exec
	var w wire.BidLogWriter
	w.Begin(nil, b.Lo())
	ex.Begin(m.Bound, m.Want, coord.MinimumTag(m.Tag), comm.Discard, nil, m.Step)
	b.Run(m.Tag, m.Step, &ex, &w)
	return w.End()
}

// relayLog is the log a relay over the given children answers m with, each
// child's log and range as the relay's fan would hand them over.
func relayLog(t *testing.T, m wire.Round, frames [][]byte, ranges [][2]int) []byte {
	t.Helper()
	logs := make([]wire.BidLog, len(frames))
	for i, f := range frames {
		if err := logs[i].Open(f, ranges[i][0], ranges[i][1], protocol.Rounds(m.Bound)); err != nil {
			t.Fatalf("child [%d, %d)'s log refused: %v", ranges[i][0], ranges[i][1], err)
		}
	}
	var sub subtreeLog
	return sub.append(nil, ranges[0][0], m, logs)
}

// splits returns every way to cut [lo, lo+n) into parts contiguous
// non-empty ranges, in range order.
func splits(lo, n, parts int) [][][2]int {
	if parts == 1 {
		return [][][2]int{{{lo, lo + n}}}
	}
	var out [][][2]int
	for first := 1; first <= n-parts+1; first++ {
		for _, rest := range splits(lo+first, n-first, parts-1) {
			out = append(out, append([][2]int{{lo, lo + first}}, rest...))
		}
	}
	return out
}

// TestRelayLogIsOneHostsLog is the relay's contract in small scope,
// exhaustively: for every split of n ≤ 6 nodes into two or three children,
// every cohort tag, every want up to 3 and exact and ε banks, the log a
// relay writes from its children's logs (subtreeLog) is byte for byte the
// log one host of the whole range writes (coord.Nodes.Run) — and so is a
// chain of two relays' over a three-way split, nested either way. The
// population starts at node 1, so the relay's log counts from a first node
// that is not zero.
func TestRelayLogIsOneHostsLog(t *testing.T) {
	tags := []uint8{coord.TagViolMin, coord.TagViolMax, coord.TagHandMin, coord.TagHandMax, coord.TagReset}
	checked, bids := 0, 0
	for n := 2; n <= 6; n++ {
		for _, k := range []int{1, (n + 1) / 2, n} {
			for _, eps := range []float64{0, 0.05} {
				for seed := uint64(1); seed <= 3; seed++ {
					s := newRelayScript(t, n, k, seed, eps)
					for _, tag := range tags {
						bound := map[uint8]int{coord.TagViolMin: k, coord.TagHandMin: k, coord.TagViolMax: n - k, coord.TagHandMax: n - k, coord.TagReset: n}[tag]
						for want := 1; want <= min(3, bound); want++ {
							m := wire.Round{Tag: tag, Best: int64(order.NegInf), Bound: bound, Step: 2, Want: want}
							whole := hostLog(s.bank(t, s.lo, s.lo+n), m)
							var l wire.BidLog
							if err := l.Open(whole, s.lo, s.lo+n, protocol.Rounds(bound)); err != nil {
								t.Fatal(err)
							}
							for r := range protocol.Rounds(bound) {
								for _, _, ok := l.Next(r); ok; _, _, ok = l.Next(r) {
									bids++
								}
							}
							log := func(rg [2]int) []byte { return hostLog(s.bank(t, rg[0], rg[1]), m) }
							name := fmt.Sprintf("n=%d k=%d eps=%g seed=%d tag=%d want=%d", n, k, eps, seed, tag, want)
							for parts := 2; parts <= min(3, n); parts++ {
								for _, sp := range splits(s.lo, n, parts) {
									frames := make([][]byte, len(sp))
									for i, rg := range sp {
										frames[i] = log(rg)
									}
									if got := relayLog(t, m, frames, sp); !bytes.Equal(got, whole) {
										t.Fatalf("%s, children %v: relay log %x, one host's %x", name, sp, got, whole)
									}
									checked++
									if parts < 3 {
										continue
									}
									// Two relays: the first two children under an
									// inner one, or the last two.
									left := relayLog(t, m, frames[:2], sp[:2])
									lr := [2]int{sp[0][0], sp[1][1]}
									if got := relayLog(t, m, [][]byte{left, frames[2]}, [][2]int{lr, sp[2]}); !bytes.Equal(got, whole) {
										t.Fatalf("%s, children (%v %v) %v: chained relay log %x, one host's %x", name, sp[0], sp[1], sp[2], got, whole)
									}
									right := relayLog(t, m, frames[1:], sp[1:])
									rr := [2]int{sp[1][0], sp[2][1]}
									if got := relayLog(t, m, [][]byte{frames[0], right}, [][2]int{sp[0], rr}); !bytes.Equal(got, whole) {
										t.Fatalf("%s, children %v (%v %v): chained relay log %x, one host's %x", name, sp[0], sp[1], sp[2], got, whole)
									}
									checked += 2
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d relay logs checked, over one-host logs of %d bids in all", checked, bids)
	if bids == 0 {
		t.Fatal("no host logged a bid: the scripts compare empty logs")
	}
}

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
					full := build(t, tc.cfg, []transport.Link{LoopbackLink()}, &fullLog)
					defer full.Close()
					relays := make([]transport.Link, shards)
					for i := range relays {
						relays[i] = fanout.Loopback(func(parent transport.Link) error { return ServeInterior(parent, LoopbackLinks(2)) })
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
