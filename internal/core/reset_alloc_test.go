package core_test

import (
	"fmt"
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
// whole and the monitor replays the logs; with values in int32 and with
// values from 2⁴⁰, which the bank keeps in 6-byte cells.
func TestRepeatedFilterResetZeroAllocs(t *testing.T) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(2))
	const n, k = 512, 8
	for _, base := range []int64{0, 1 << 40} {
		for host, m := range map[string]*core.Monitor{
			"inline": core.New(core.Config{N: n, K: k, Seed: 3}),
			"pool":   runtime.New(runtime.Config{N: n, K: k, Seed: 3}),
		} {
			defer m.Close()
			resetsAllocNothing(t, fmt.Sprintf("%s, base %d", host, base), m, base)
		}
	}
}

// resetsAllocNothing is TestRepeatedFilterResetZeroAllocs on one monitor,
// its values from base.
func resetsAllocNothing(t *testing.T, host string, m *core.Monitor, base int64) {
	t.Helper()
	n := m.N()
	// Two vectors with disjoint top-k sets: every switch between them
	// violates filters on both sides and forces a reset.
	a, b := make([]int64, n), make([]int64, n)
	for i := range a {
		a[i], b[i] = base+int64(i), base+int64(n-i)
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
