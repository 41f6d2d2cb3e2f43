package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/order"
	"repro/internal/stream"
	"repro/internal/wire"
)

// updateGolden rewrites testdata/seq_golden.txt from this build. The lines
// committed there were recorded from the monitor that kept a node side of
// its own (flat keys, a filter.Set, cohorts described by short id lists), at
// the last commit that had it.
var updateGolden = flag.Bool("update", false, "rewrite testdata/seq_golden.txt from this build")

const goldenFile = "testdata/seq_golden.txt"

// goldenStreams are the seven workload families of
// runtime.TestOrderedEquivalenceWithSequential — k = n and k = 1 among
// them — and a monitor of one node.
var goldenStreams = []struct {
	name string
	n, k int
	src  func(n int) stream.Source
}{
	{"walk", 10, 3, func(n int) stream.Source {
		return stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 600, Seed: 31})
	}},
	{"iid", 8, 2, func(n int) stream.Source {
		return stream.NewIID(stream.IIDConfig{N: n, Seed: 32, Dist: stream.Uniform, Lo: 0, Hi: 1 << 18})
	}},
	{"twoband-churn", 12, 4, func(n int) stream.Source {
		return stream.NewTwoBand(stream.TwoBandConfig{N: n, K: 4, Seed: 33, Gap: 1 << 16, BandWidth: 1 << 10, MaxStep: 1 << 8, SwapEvery: 40})
	}},
	{"rotation", 6, 2, func(n int) stream.Source {
		return stream.NewRotation(stream.RotationConfig{N: n, Period: 3, Base: 10, Peak: 5000})
	}},
	{"k-equals-n", 5, 5, func(n int) stream.Source {
		return stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 10000, MaxStep: 400, Seed: 34})
	}},
	{"walk-wide", 200, 17, func(n int) stream.Source {
		return stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 600, Seed: 35})
	}},
	{"k-one", 6, 1, func(n int) stream.Source {
		return stream.NewBursty(stream.BurstyConfig{N: n, Seed: 36, Lo: 0, Hi: 1 << 20, Noise: 5, BurstProb: 0.05, BurstMax: 1 << 16})
	}},
	{"single-node", 1, 1, func(n int) stream.Source {
		return stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 1000, MaxStep: 50, Seed: 37})
	}},
}

// goldenLine runs one monitor for 250 steps and renders everything the run
// decided and consumed: a hash of the report sequence (and, in the ordered
// mode, of the rankings), the ledger in total and by phase in messages and
// bytes, and the statistics. feed picks the ingestion: every step dense, every step
// after the first as the delta of the nodes that moved, or the two mixed;
// newMonitor picks the host.
func goldenLine(t *testing.T, newMonitor func(Config) *Monitor, cfg Config, feed string, src stream.Source) string {
	t.Helper()
	m := newMonitor(cfg)
	vals, prev := make([]int64, cfg.N), make([]int64, cfg.N)
	var ids []int
	var moved []int64
	reports := fnv.New64a()
	for s := 0; s < 250; s++ {
		src.Step(vals)
		if cfg.DistinctValues {
			// The caller's contract: pairwise distinct at every step.
			for i := range vals {
				vals[i] = vals[i]*int64(cfg.N) + int64(cfg.N-1-i)
			}
		}
		var top []int
		if feed == "dense" || s == 0 || feed == "mixed" && s%3 == 0 {
			top = m.Observe(vals)
		} else {
			ids, moved = ids[:0], moved[:0]
			for i, v := range vals {
				if v != prev[i] {
					ids, moved = append(ids, i), append(moved, v)
				}
			}
			top = m.ObserveDelta(ids, moved)
		}
		copy(prev, vals)
		fmt.Fprint(reports, top, m.AppendRanking(nil))
	}
	led := m.Ledger()
	// Messages and bytes as up/down/bcast: the total, then the three phases.
	cell := func(c comm.Counts, b comm.Bytes) string {
		return fmt.Sprintf("%d/%d/%d %d/%d/%dB", c.Up, c.Down, c.Bcast, b.Up, b.Down, b.Bcast)
	}
	line := fmt.Sprintf("reports=%016x %s", reports.Sum64(), cell(led.Total(), led.TotalBytes()))
	for _, p := range comm.Phases() {
		line += " | " + cell(led.PhaseCounts(p), led.PhaseBytes(p))
	}
	return line + fmt.Sprintf(" | %+v", m.Stats())
}

// bankFrame is the monitor's bank frame, which the ordered mode's machine
// does not stop the bank from writing.
func bankFrame(m *Monitor) []byte { return m.bank.Snapshot(nil) }

// views is a Host of up to three disjoint views of the bank, swept one
// after the other on the calling goroutine: the seam with everything a
// partitioned host keeps per view — a violator list and an in-play set each,
// a sparse batch cut at the view boundaries — and no scheduler.
type views []*coord.Nodes

func threeViews(bank *coord.Nodes) Host {
	var h views
	for n, lo := bank.Len(), 0; lo < n; lo += (n + 2) / 3 {
		h = append(h, bank.Sub(lo, min(lo+(n+2)/3, n)))
	}
	return h
}

func (h views) Observe(ids []int, vals []int64, step int64) (anyTop, anyOut bool, err error) {
	for _, v := range h {
		top, out, err := ObserveRange(v, ids, vals, step)
		if err != nil {
			return anyTop, anyOut, err
		}
		anyTop, anyOut = anyTop || top, anyOut || out
	}
	return anyTop, anyOut, nil
}

func (h views) Round(tag uint8, r int, best order.Key, bound int, step int64, bid func(int, order.Key)) {
	for _, v := range h {
		v.Round(tag, r, best, bound, step, bid)
	}
}

func (views) Engine() uint8 { return wire.EngineSeq }
func (views) Close()        {}

// TestCohortsMatchNodeLocalMembership holds the monitor — one coord.Machine
// over one coord.Nodes bank, where every node decides its own cohort
// membership — to the engine it replaced, which described each cohort by a
// short id list (violators from the step's filter checks, the top side from
// the filter set's cached membership, outsiders as everyone but that
// membership, reset candidates as everyone but the winners extracted so
// far): every line of testdata/seq_golden.txt, recorded from that engine
// over eight workload shapes × {dense, delta, mixed ingestion} × {ε = 0,
// 0.05} × {tie-break injection, DistinctValues} × {set, ordered}, must
// reproduce — reports, ledgers by phase in messages and bytes, statistics;
// a ledger says each execution enlisted exactly the nodes the description
// named, since whoever is enlisted is asked its coin. Every line must
// reproduce a second time through the Host seam cut three ways (views),
// where a cohort is assembled from per-view violator lists and in-play sets.
func TestCohortsMatchNodeLocalMembership(t *testing.T) {
	run := func(newMonitor func(Config) *Monitor) (got []string) {
		for _, gs := range goldenStreams {
			for _, feed := range []string{"dense", "delta", "mixed"} {
				for _, eps := range []float64{0, 0.05} {
					for _, distinct := range []bool{false, true} {
						for _, ordered := range []bool{false, true} {
							cfg := Config{N: gs.n, K: gs.k, Seed: 71, Epsilon: eps, DistinctValues: distinct, Ordered: ordered}
							name := fmt.Sprintf("%s/%s/eps=%g/distinct=%v/ordered=%v", gs.name, feed, eps, distinct, ordered)
							got = append(got, name+": "+goldenLine(t, newMonitor, cfg, feed, gs.src(gs.n)))
						}
					}
				}
			}
		}
		return got
	}
	if *updateGolden {
		if err := os.WriteFile(goldenFile, []byte(strings.Join(run(New), "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	recorded, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(recorded), "\n"), "\n")
	for host, newMonitor := range map[string]func(Config) *Monitor{
		"inline":      New,
		"three views": func(cfg Config) *Monitor { return NewOn(cfg, threeViews) },
	} {
		got := run(newMonitor)
		if len(want) != len(got) {
			t.Fatalf("%s holds %d lines for %d cases", goldenFile, len(want), len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("the monitor on the %s host left the recorded run:\n got %s\nwant %s", host, got[i], want[i])
			}
		}
	}
}

// TestRepeatedFilterResetZeroAllocs pins that FILTERRESET runs out of the
// monitor's own buffers: once the first reset has sized the in-play set and
// the winner buffer, every later reset — one execution for the k+1 largest
// keys over all n nodes — allocates nothing.
func TestRepeatedFilterResetZeroAllocs(t *testing.T) {
	const n, k = 512, 8
	m := New(Config{N: n, K: k, Seed: 3})
	// Two vectors with disjoint top-k sets: every switch between them
	// violates filters on both sides and forces a reset.
	a, b := make([]int64, n), make([]int64, n)
	for i := range a {
		a[i], b[i] = int64(i), int64(n-i)
	}
	m.Observe(a)
	m.Observe(b)
	flip := false
	before := m.Stats().Resets
	const runs = 50
	if avg := testing.AllocsPerRun(runs, func() {
		if flip = !flip; flip {
			m.Observe(a)
		} else {
			m.Observe(b)
		}
	}); avg != 0 {
		t.Fatalf("an Observe that resets allocates %.2f per step, want 0", avg)
	}
	if got := m.Stats().Resets - before; got != runs+1 { // AllocsPerRun warms up once
		t.Fatalf("%d resets over %d flips: the pin did not measure resets", got, runs+1)
	}
}
