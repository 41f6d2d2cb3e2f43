package coord_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/netrun"
	"repro/internal/order"
	"repro/internal/runtime"
	"repro/internal/shardrun"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// engine is what every engine shape shares with the reference monitor.
type engine interface {
	Observe(vals []int64) []int
	ObserveDelta(ids []int, vals []int64) []int
	Stats() coord.Stats
}

// subject is one engine under test: how to read the bounds it has installed
// and (ordered mode) its ranking, and how to let go of it.
type subject struct {
	engine
	bounds  func() filter.Bounds
	ranking func() []int
	close   func()
}

// inProcess wraps a core.Monitor on either host.
func inProcess(m *core.Monitor) subject {
	return subject{
		engine:  m,
		bounds:  func() filter.Bounds { return m.Filters().Bounds() },
		ranking: func() []int { return m.AppendRanking(nil) },
		close:   m.Close,
	}
}

// installTap remembers the last filter install that crossed a link: every
// install goes to every peer, so one root link sees them all.
type installTap struct {
	transport.Link
	last filter.Bounds
}

func (l *installTap) Send(p []byte) error {
	wiretest.Subframes(p, func(sub []byte) {
		if m, err := wire.DecodeMidpoint(sub); err == nil {
			l.last = filter.Bounds{Lo: order.Key(m.Mid), Hi: order.Key(m.Mid)}
			if m.Full {
				l.last = filter.Unbounded()
			}
		}
		if m, err := wire.DecodeApproxBounds(sub); err == nil {
			l.last = filter.Bounds{Lo: order.Key(m.Lo), Hi: order.Key(m.Hi)}
		}
	})
	return l.Link.Send(p)
}

func (l *installTap) Flush() error               { return transport.Flush(l.Link) }
func (l *installTap) Stats() transport.LinkStats { return transport.StatsOf(l.Link) }

// overLinks wraps a link-backed engine built by mk over links whose first
// is tapped.
func overLinks[E interface {
	engine
	Close()
	Err() error
}](t *testing.T, links []transport.Link, mk func([]transport.Link) (E, error)) subject {
	t.Helper()
	tap := &installTap{Link: links[0], last: filter.Unbounded()}
	links[0] = tap
	e, err := mk(links)
	if err != nil {
		t.Fatal(err)
	}
	return subject{
		engine: e,
		bounds: func() filter.Bounds {
			if err := e.Err(); err != nil {
				t.Fatal(err)
			}
			return tap.last
		},
		ranking: func() []int { return nil },
		close:   e.Close,
	}
}

// shapes are the engine shapes the sweep runs on. Every one must take the
// reference's decisions; the ordered mode exists in process only.
func shapes(t *testing.T, cfg coord.RefConfig) map[string]subject {
	cc := core.Config{N: cfg.N, K: cfg.K, Seed: cfg.Seed, DistinctValues: cfg.Distinct, Epsilon: cfg.Epsilon, Ordered: cfg.Ordered}
	out := map[string]subject{"seq": inProcess(core.New(cc))}
	for _, shards := range []int{1, 3, 8} {
		rc := runtime.Config{N: cfg.N, K: cfg.K, Seed: cfg.Seed, DistinctValues: cfg.Distinct, Epsilon: cfg.Epsilon, Ordered: cfg.Ordered, Shards: shards}
		out[fmt.Sprintf("conc/%d", shards)] = inProcess(runtime.New(rc))
	}
	if cfg.Ordered {
		return out
	}
	nc := netrun.Config{N: cfg.N, K: cfg.K, Seed: cfg.Seed, DistinctValues: cfg.Distinct, Epsilon: cfg.Epsilon}
	for _, peers := range []int{1, 2, 4} {
		out[fmt.Sprintf("net/%d", peers)] = overLinks(t, netrun.LoopbackLinks(peers), func(l []transport.Link) (*netrun.Engine, error) { return netrun.New(nc, l) })
	}
	sc := shardrun.Config{N: cfg.N, K: cfg.K, Seed: cfg.Seed, DistinctValues: cfg.Distinct, Epsilon: cfg.Epsilon}
	for _, s := range []int{1, 2, 4, 8} {
		out[fmt.Sprintf("star/%d", s)] = overLinks(t, shardrun.LoopbackLinks(s), func(l []transport.Link) (*shardrun.Engine, error) { return shardrun.New(sc, l) })
	}
	for _, depth := range []int{2, 3} {
		tc := sc
		tc.Tree = shardrun.Tree{Branch: 2, Depth: depth}
		links := []transport.Link{shardrun.LoopbackSubtree(2, depth), shardrun.LoopbackSubtree(2, depth)}
		out[fmt.Sprintf("tree/2^%d", depth)] = overLinks(t, links, func(l []transport.Link) (*shardrun.Engine, error) { return shardrun.New(tc, l) })
	}
	return out
}

// TestSweepMatchesReferenceReset drives the reference monitor — whose
// FILTERRESET is Algorithm 1's k+1 maximum executions, as this repository
// ran it until the reset became one execution — and every engine shape on
// the sweep side by side. The two resets draw different randomness and
// charge different ledgers; every decision must be the same one: the
// report, the ranking (ordered mode), the machine's counters and the
// installed midpoint or band, at every step. (Under ε a violation or
// handler execution returns an ε-sharp extremum that may depend on the
// draws, so there the agreement is a property of these traces, not a
// theorem; E19 records a trace where the two part ways, both ε-valid.)
func TestSweepMatchesReferenceReset(t *testing.T) {
	const n, k, seed, steps = 24, 5, 41, 200
	type feed func(s int) (ids []int, vals []int64) // nil ids: a dense step
	walk := func() feed {
		src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 0, Hi: 100000, MaxStep: 900, Seed: 2})
		vals := make([]int64, n)
		return func(int) ([]int, []int64) { src.Step(vals); return nil, vals }
	}
	cases := []struct {
		name string
		cfg  coord.RefConfig
		feed func() feed
	}{
		{"dense", coord.RefConfig{N: n, K: k, Seed: seed}, walk},
		{"delta", coord.RefConfig{N: n, K: k, Seed: seed}, func() feed {
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
		{"distinct", coord.RefConfig{N: n, K: k, Seed: seed, Distinct: true}, func() feed {
			vals := make([]int64, n)
			return func(s int) ([]int, []int64) {
				for i := range vals {
					vals[i] = int64(i) + 1000*int64((s*(i+3)+7*i)%60)
				}
				return nil, vals
			}
		}},
		{"eps", coord.RefConfig{N: n, K: k, Seed: seed, Epsilon: 0.05}, func() feed {
			src := stream.NewRandomWalk(stream.WalkConfig{N: n, Lo: 1 << 16, Hi: 1 << 17, MaxStep: 3000, Seed: 5})
			vals := make([]int64, n)
			return func(int) ([]int, []int64) { src.Step(vals); return nil, vals }
		}},
		{"ordered", coord.RefConfig{N: n, K: k, Seed: seed, Ordered: true}, walk},
		{"k-equals-n", coord.RefConfig{N: 8, K: 8, Seed: seed}, func() feed {
			src := stream.NewRandomWalk(stream.WalkConfig{N: 8, Lo: 0, Hi: 10000, MaxStep: 400, Seed: 34})
			vals := make([]int64, 8)
			return func(int) ([]int, []int64) { src.Step(vals); return nil, vals }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := coord.NewRefMonitor(tc.cfg)
			subjects := shapes(t, tc.cfg)
			for _, sub := range subjects {
				defer sub.close()
			}
			next := tc.feed()
			for s := 0; s < steps; s++ {
				ids, vals := next(s)
				step := func(e engine) []int {
					if ids == nil {
						return e.Observe(vals)
					}
					return e.ObserveDelta(ids, vals)
				}
				want := step(ref)
				for name, sub := range subjects {
					if got := step(sub); !slices.Equal(got, want) {
						t.Fatalf("step %d, %s: report %v, reference %v", s, name, got, want)
					}
					if got, want := sub.ranking(), ref.AppendRanking(nil); tc.cfg.Ordered && !slices.Equal(got, want) {
						t.Fatalf("step %d, %s: ranking %v, reference %v", s, name, got, want)
					}
					if sub.Stats() != ref.Stats() {
						t.Fatalf("step %d, %s: stats %+v, reference %+v", s, name, sub.Stats(), ref.Stats())
					}
					if got, want := sub.bounds(), ref.Bounds(); got != want {
						t.Fatalf("step %d, %s: installed bounds %+v, reference %+v", s, name, got, want)
					}
				}
			}
			if st := ref.Stats(); st.Resets < 2 && tc.cfg.K < tc.cfg.N || st.HandlerCalls == 0 && tc.cfg.K < tc.cfg.N {
				t.Fatalf("trace too quiet to compare anything: %+v", st)
			}
		})
	}
}

// parentStreams are core's goldenStreams: the eight workload shapes
// testdata/parent_seq_golden.txt was recorded over.
var parentStreams = []struct {
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

var updateRef = flag.Bool("update", false, "re-record testdata/ref_keyed_golden.txt from the reference monitor")

// ledgerCell matches one cell of a golden line's ledger — messages, then
// bytes, as up/down/bcast — and genHash the column of generator hashes the
// parent's lines end in.
var (
	ledgerCell = regexp.MustCompile(`(\d+)/(\d+)/(\d+) (\d+)/(\d+)/(\d+)B`)
	genHash    = regexp.MustCompile(` \| gens=[0-9a-f]{16}$`)
)

// coinFree masks, in a golden line, what the coins decide: how many nodes
// bid, and so the bytes of their bids and of the cuts broadcast back. What
// is left holds whatever the draws: the hash of the reports and rankings,
// the broadcasts — one a round, so the number and length of the executions
// — the ordered mode's unicasts with their bytes, and the statistics.
func coinFree(line string) string {
	return ledgerCell.ReplaceAllString(genHash.ReplaceAllString(line, ""), "·/$2/$3 ·/$5/·B")
}

// TestReferenceResetChargesTheParentLedger holds the reference to what it
// claims to be. testdata/parent_seq_golden.txt is core's
// testdata/seq_golden.txt as the last commit with a k+1-execution reset had
// it — 192 runs of the sequential engine: a hash of the reports and
// rankings, the ledger in total and by phase in messages and bytes, the
// statistics, a hash of every generator's final state. That engine's nodes
// drew from generators; the reference's flip keyed coins, so it reproduces
// of every line what no draw decides (coinFree) — it enlists, runs rounds
// and decides exactly as that engine did — and charges, for the rest, the
// ledger testdata/ref_keyed_golden.txt records of it (-update re-records).
// (The same lines from the sweep, core's golden today, keep every report
// hash and every statistic and differ in the reset phase's rounds.)
func TestReferenceResetChargesTheParentLedger(t *testing.T) {
	const refFile = "testdata/ref_keyed_golden.txt"
	read := func(file string) []string {
		recorded, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSuffix(string(recorded), "\n"), "\n")
	}
	var got []string
	for _, gs := range parentStreams {
		for _, feed := range []string{"dense", "delta", "mixed"} {
			for _, eps := range []float64{0, 0.05} {
				for _, distinct := range []bool{false, true} {
					for _, ordered := range []bool{false, true} {
						cfg := coord.RefConfig{N: gs.n, K: gs.k, Seed: 71, Epsilon: eps, Distinct: distinct, Ordered: ordered}
						name := fmt.Sprintf("%s/%s/eps=%g/distinct=%v/ordered=%v", gs.name, feed, eps, distinct, ordered)
						got = append(got, name+": "+parentLine(t, cfg, feed, gs.src(gs.n)))
					}
				}
			}
		}
	}
	if *updateRef {
		if err := os.WriteFile(refFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	parent, want := read("testdata/parent_seq_golden.txt"), read(refFile)
	if len(got) != len(parent) || len(got) != len(want) {
		t.Fatalf("the parent's golden holds %d lines, the reference's %d, for %d cases", len(parent), len(want), len(got))
	}
	for i := range got {
		if coinFree(got[i]) != coinFree(parent[i]) {
			t.Errorf("the reference left the parent's recorded run in more than its draws:\n got %s\nwant %s", coinFree(got[i]), coinFree(parent[i]))
		}
		if got[i] != want[i] {
			t.Errorf("the reference left its recorded ledger:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// parentLine is core's goldenLine over the reference monitor.
func parentLine(t *testing.T, cfg coord.RefConfig, feed string, src stream.Source) string {
	t.Helper()
	m := coord.NewRefMonitor(cfg)
	vals, prev := make([]int64, cfg.N), make([]int64, cfg.N)
	var ids []int
	var moved []int64
	reports := fnv.New64a()
	for s := 0; s < 250; s++ {
		src.Step(vals)
		if cfg.Distinct {
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
	cell := func(c comm.Counts, b comm.Bytes) string {
		return fmt.Sprintf("%d/%d/%d %d/%d/%dB", c.Up, c.Down, c.Bcast, b.Up, b.Down, b.Bcast)
	}
	line := fmt.Sprintf("reports=%016x %s", reports.Sum64(), cell(led.Total(), led.TotalBytes()))
	for _, p := range comm.Phases() {
		line += " | " + cell(led.PhaseCounts(p), led.PhaseBytes(p))
	}
	return line + fmt.Sprintf(" | %+v", m.Stats())
}
