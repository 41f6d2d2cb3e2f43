package fanout

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/coord"
	"repro/internal/order"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/wire"
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
// leaves' code (LogRound).
func hostLog(b *coord.Nodes, m wire.Round) []byte { return LogRound()(b, m, nil) }

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
