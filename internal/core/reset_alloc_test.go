package core_test

import (
	gort "runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/runtime"
)

// TestRepeatedFilterResetZeroAllocs pins that FILTERRESET runs out of the
// monitor's own buffers: once the first reset has sized the in-play sets,
// the winner buffers and the bid logs, every later reset — one execution
// for the k+1 largest keys over all n nodes — allocates nothing, inline
// and on a shard pool of two views, where each view runs the execution
// whole and the monitor replays the logs.
func TestRepeatedFilterResetZeroAllocs(t *testing.T) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(2))
	const n, k = 512, 8
	for host, m := range map[string]*core.Monitor{
		"inline": core.New(core.Config{N: n, K: k, Seed: 3}),
		"pool":   runtime.New(runtime.Config{N: n, K: k, Seed: 3}),
	} {
		defer m.Close()
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
			t.Fatalf("%s: an Observe that resets allocates %.2f per step, want 0", host, avg)
		}
		if got := m.Stats().Resets - before; got != runs+1 { // AllocsPerRun warms up once
			t.Fatalf("%s: %d resets over %d flips: the pin did not measure resets", host, got, runs+1)
		}
	}
}
