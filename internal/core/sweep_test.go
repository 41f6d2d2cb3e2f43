package core

import (
	"slices"
	"testing"

	"repro/internal/coord"
)

// spy is a Host of two views of the bank, swept on the calling goroutine,
// that counts the sweeps its monitor asks of it.
type spy struct {
	views
	sweeps int
}

func (s *spy) Sweep(f func(int)) {
	s.sweeps++
	s.views.Sweep(f)
}

// TestMonitorSweepsOnlyDenseSteps pins which steps a monitor hands a host of
// two views: a dense step is swept — once for its batch and once for each
// protocol execution — and a sparse step is not swept at all, however many
// nodes it moves, its violation, handler and reset executions included: it
// runs whole on the bank in place. Reports stay the inline monitor's
// throughout.
func TestMonitorSweepsOnlyDenseSteps(t *testing.T) {
	const n, k = 96, 8
	cfg := Config{N: n, K: k, Seed: 1}
	h := &spy{}
	m := NewOn(cfg, func(bank *coord.Nodes) Host {
		h.views = views{bank.Sub(0, n/2), bank.Sub(n/2, n)}
		return h
	})
	ref := New(cfg)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i) * 10
	}
	top := func() int { return ref.Top()[0] } // a member of the top set
	// step runs one call on both monitors and returns the sweeps it cost
	// and the handler and reset executions it ran, read off the stats.
	step := func(what string, call func(*Monitor) []int) (sweeps, execs int) {
		t.Helper()
		h.sweeps = 0
		before := m.Stats()
		got, want := call(m), call(ref)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: report %v, inline %v", what, got, want)
		}
		after := m.Stats()
		return h.sweeps, int(after.HandlerCalls-before.HandlerCalls) + int(after.Resets-before.Resets)
	}

	if sweeps, execs := step("the first, dense step", func(m *Monitor) []int { return m.Observe(vals) }); execs != 1 || sweeps != 2 {
		t.Fatalf("the first step ran %d executions in %d sweeps, want the time-0 reset in 2: its batch and its execution", execs, sweeps)
	}

	// A top member drops below everyone, through a one-node delta: a
	// violation execution, the handler's and a reset's, all inline.
	id := top()
	vals[id] = -1
	sweeps, execs := step("a one-node delta", func(m *Monitor) []int { return m.ObserveDelta([]int{id}, []int64{-1}) })
	if execs != 2 || sweeps != 0 {
		t.Fatalf("a one-node delta that resets ran handler and reset (%d) in %d sweeps, want 2 in 0", execs, sweeps)
	}

	// A delta that moves every node, and drops the next top member below
	// everyone, is not swept either.
	id = top()
	ids, moved := []int{}, []int64{}
	for i := range vals {
		vals[i]++
		ids = append(ids, i)
	}
	vals[id] = -1
	moved = append(moved, vals...)
	sweeps, execs = step("a delta of every node", func(m *Monitor) []int { return m.ObserveDelta(ids, moved) })
	if execs != 2 || sweeps != 0 {
		t.Fatalf("a delta of every node that resets ran handler and reset (%d) in %d sweeps, want 2 in 0", execs, sweeps)
	}

	// The same drop in a dense step is swept: the batch, then the
	// violation, handler and reset executions, one sweep each.
	id = top()
	vals[id] = -2
	sweeps, execs = step("a dense step", func(m *Monitor) []int { return m.Observe(vals) })
	if execs != 2 || sweeps != 1+1+execs {
		t.Fatalf("a dense step that resets ran handler and reset (%d) in %d sweeps, want the batch, the violation execution and those", execs, sweeps)
	}
}
