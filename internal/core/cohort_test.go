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
	"repro/internal/stream"
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

// views is a Host of disjoint views of the bank, swept one after the
// other on the calling goroutine: the seam with everything a partitioned
// host keeps per view — a violator list and an in-play set each, a dense
// batch cut at the view boundaries, an execution run whole on each view
// and replayed — and no scheduler. A monitor on it sweeps every dense
// step, however small, and runs the delta steps on the bank in place.
type views []*coord.Nodes

func threeViews(bank *coord.Nodes) Host {
	var h views
	for n, lo := bank.Len(), 0; lo < n; lo += (n + 2) / 3 {
		h = append(h, bank.Sub(lo, min(lo+(n+2)/3, n)))
	}
	return h
}

func (h views) Views() []*coord.Nodes { return h }
func (h views) Sweep(f func(int)) {
	for v := range h {
		f(v)
	}
}
func (views) Close() {}

// TestCohortsMatchNodeLocalMembership holds the monitor — one coord.Machine
// over one coord.Nodes bank, where every node decides its own cohort
// membership — to the engine it replaced, which described each cohort by a
// short id list (violators from the step's filter checks, the top side from
// the filter set's cached membership, outsiders as everyone but that
// membership, reset candidates as everyone but the winners extracted so
// far): every line of testdata/seq_golden.txt, recorded from that engine
// over eight workload shapes × {dense, delta, mixed ingestion} × {ε = 0,
// 0.05} × {set, ordered}, must reproduce — reports, ledgers by phase in
// messages and bytes, statistics; a ledger says each execution enlisted
// exactly the nodes the description named, since whoever is enlisted is
// asked its coin. Every line must reproduce a second time through the Host
// seam cut three ways (views), where a cohort is assembled from
// per-view violator lists and in-play sets and every execution of a dense
// step is three logged runs replayed against the true cut (a delta step
// runs on the bank in place).
func TestCohortsMatchNodeLocalMembership(t *testing.T) {
	run := func(newMonitor func(Config) *Monitor) (got []string) {
		for _, gs := range goldenStreams {
			for _, feed := range []string{"dense", "delta", "mixed"} {
				for _, eps := range []float64{0, 0.05} {
					for _, ordered := range []bool{false, true} {
						cfg := Config{N: gs.n, K: gs.k, Seed: 71, Epsilon: eps, Ordered: ordered}
						name := fmt.Sprintf("%s/%s/eps=%g/ordered=%v", gs.name, feed, eps, ordered)
						got = append(got, name+": "+goldenLine(t, newMonitor, cfg, feed, gs.src(gs.n)))
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
