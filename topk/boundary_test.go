package topk

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/order"
)

// engineConfigs enumerates the engine selections of the public API: the
// in-process engine at n nodes (seq) and at poolNodes (conc, on the shard
// pool at GOMAXPROCS ≥ 2), the networked and the sharded engine. Every
// boundary property must hold on all of them.
func engineConfigs(n, k int) map[string]Config {
	return map[string]Config{
		"seq":   {Nodes: n, K: k, Seed: 3},
		"conc":  {Nodes: poolNodes, K: k, Seed: 3},
		"net":   {Nodes: n, K: k, Seed: 3, Transport: Loopback(2)},
		"shard": {Nodes: n, K: k, Seed: 3, Tree: star(2)},
	}
}

// observeNoPanic calls Observe and converts any panic into a test
// failure, returning the method's normal results.
func observeNoPanic(t *testing.T, m *Monitor, vals []int64) (top []int, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Observe(%v) panicked: %v", vals, r)
		}
	}()
	return m.Observe(vals)
}

func observeDeltaNoPanic(t *testing.T, m *Monitor, ids []int, vals []int64) (top []int, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("ObserveDelta(%v, %v) panicked: %v", ids, vals, r)
		}
	}()
	return m.ObserveDelta(ids, vals)
}

// TestExtremeValuesErrorNotPanic is the regression test for the verified
// crash: Observe([]int64{math.MaxInt64, ...}) used to panic from deep
// inside order.Encode. Every engine must reject out-of-domain values with
// an error, leave the monitor fully usable, and accept the exact boundary
// magnitudes ±MaxValue.
func TestExtremeValuesErrorNotPanic(t *testing.T) {
	const k = 3
	for name, cfg := range engineConfigs(8, k) {
		t.Run(name, func(t *testing.T) {
			n := cfg.Nodes
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			mv := m.MaxValue()
			if want := order.NewCodec(n).MaxValue(); mv != want {
				t.Fatalf("MaxValue() = %d, want %d", mv, want)
			}

			// The boundary magnitudes themselves are legal, including the
			// original crash vector with MaxInt64 replaced by MaxValue.
			legal := make([]int64, n)
			legal[0], legal[1] = mv, -mv
			top, err := observeNoPanic(t, m, legal)
			if err != nil {
				t.Fatalf("boundary values rejected: %v", err)
			}
			want, err := Oracle(legal, k)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(top, want) {
				t.Fatalf("report %v, oracle %v", top, want)
			}

			countsBefore := m.Counts()
			stepsBefore := m.Stats().Steps
			for _, bad := range []int64{mv + 1, -mv - 1, math.MaxInt64, math.MinInt64} {
				vals := make([]int64, n)
				vals[2] = bad
				if _, err := observeNoPanic(t, m, vals); err == nil {
					t.Fatalf("value %d accepted", bad)
				}
				if _, err := observeDeltaNoPanic(t, m, []int{2}, []int64{bad}); err == nil {
					t.Fatalf("delta value %d accepted", bad)
				}
			}
			if m.Counts() != countsBefore || m.Stats().Steps != stepsBefore {
				t.Fatal("rejected steps advanced the monitor")
			}

			// The monitor keeps working after rejections, on both paths.
			if _, err := observeDeltaNoPanic(t, m, []int{2}, []int64{42}); err != nil {
				t.Fatalf("monitor wedged after rejected input: %v", err)
			}
			legal[2] = 42
			top, err = observeNoPanic(t, m, legal)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := Oracle(legal, k); !slices.Equal(top, want) {
				t.Fatalf("post-rejection report %v, oracle %v", top, want)
			}
		})
	}
}

// TestExtremeValuesProperty drives every engine through randomized steps
// drawn from the extreme corners of int64 (±MaxValue, ±(MaxValue+1),
// MinInt64, MaxInt64, 0, small values) and asserts, against the oracle on
// the accepted state: in-domain steps report exactly, out-of-domain steps
// error without perturbing the trajectory, and nothing ever panics. The
// draws go to the first six nodes; a larger monitor's others hold 0.
func TestExtremeValuesProperty(t *testing.T) {
	const drawn, k, steps = 6, 2, 120
	for name, cfg := range engineConfigs(drawn, k) {
		t.Run(name, func(t *testing.T) {
			n := cfg.Nodes
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			mv := m.MaxValue()
			pool := []int64{mv, -mv, mv + 1, -mv - 1, math.MaxInt64, math.MinInt64, 0, 1, -1, 1 << 20}
			rng := rand.New(rand.NewSource(99))
			state := make([]int64, n) // the accepted (applied) values
			vals := make([]int64, n)
			for s := 0; s < steps; s++ {
				legal := true
				for i := range vals[:drawn] {
					v := pool[rng.Intn(len(pool))]
					vals[i] = v
					if v > mv || v < -mv {
						legal = false
					}
				}
				top, err := observeNoPanic(t, m, vals)
				if !legal {
					if err == nil {
						t.Fatalf("step %d: out-of-domain vector accepted", s)
					}
					continue // state must be unchanged; verified by later exact steps
				}
				if err != nil {
					t.Fatalf("step %d: in-domain vector rejected: %v", s, err)
				}
				copy(state, vals)
				if want := order.Oracle(state, k); !slices.Equal(top, want) {
					t.Fatalf("step %d: report %v, oracle %v", s, top, want)
				}
			}
		})
	}
}

// TestDeltaOverflowRegression is the long-running-delta regression: a
// sparse feed whose per-node total keeps accumulating (doubling, here)
// must get a descriptive error on exactly the step that leaves the value
// domain — not a panic, not a silently wrapped key — and a caller that
// clamps to MaxValue, as the error suggests, continues cleanly.
func TestDeltaOverflowRegression(t *testing.T) {
	const k = 1
	for name, cfg := range engineConfigs(4, k) {
		t.Run(name, func(t *testing.T) {
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			mv := m.MaxValue()
			total := int64(1)
			crossed := false
			for step := 0; step < 80 && !crossed; step++ {
				top, err := observeDeltaNoPanic(t, m, []int{1}, []int64{total})
				if total > mv {
					if err == nil {
						t.Fatalf("accumulated total %d past MaxValue %d accepted", total, mv)
					}
					crossed = true
					break
				}
				if err != nil {
					t.Fatalf("in-domain total %d rejected: %v", total, err)
				}
				if !slices.Equal(top, []int{1}) {
					t.Fatalf("node 1 holds the only positive value, report %v", top)
				}
				if total > mv/2 {
					total = mv + 1 // next doubling would overflow int64 itself
				} else {
					total *= 2
				}
			}
			if !crossed {
				t.Fatal("walk never left the value domain")
			}
			// Clamping (the documented remedy) keeps the feed going.
			top, err := observeDeltaNoPanic(t, m, []int{1}, []int64{mv})
			if err != nil {
				t.Fatalf("clamped value rejected: %v", err)
			}
			if !slices.Equal(top, []int{1}) {
				t.Fatalf("post-clamp report %v", top)
			}
		})
	}
}

// TestOracleBoundary pins the no-panic contract on the package-level
// Oracle helper.
func TestOracleBoundary(t *testing.T) {
	if _, err := Oracle([]int64{math.MaxInt64, 0, 0}, 1); err == nil {
		t.Fatal("Oracle accepted MaxInt64")
	}
	mv := order.NewCodec(3).MaxValue()
	top, err := Oracle([]int64{-mv, mv, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(top, []int{1}) {
		t.Fatalf("top = %v", top)
	}
}

// TestLoopbackNoPanic pins that a bad peer count surfaces as a New error
// (public methods and constructors must not panic on any input).
func TestLoopbackNoPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Loopback(0) path panicked: %v", r)
		}
	}()
	if _, err := New(Config{Nodes: 4, K: 2, Transport: Loopback(0)}); err == nil {
		t.Fatal("empty transport accepted")
	}
	if _, err := New(Config{Nodes: 4, K: 2, Transport: Loopback(-3)}); err == nil {
		t.Fatal("negative peer count accepted")
	}
}

// TestOrderedBoundary extends the no-panic contract to the ordered
// monitor.
func TestOrderedBoundary(t *testing.T) {
	m, err := NewOrdered(Config{Nodes: 4, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Observe([]int64{math.MaxInt64, 0, 0, 0}); err == nil {
		t.Fatal("ordered monitor accepted MaxInt64")
	}
	if _, err := m.Observe([]int64{m.MaxValue(), 0, 0, 0}); err != nil {
		t.Fatalf("ordered monitor rejected boundary value: %v", err)
	}
	for _, cfg := range []Config{
		{Nodes: 4, K: 2, Epsilon: 0.1},
		{Nodes: 4, K: 2, Tree: star(2)},
		{Nodes: 4, K: 2, Transport: Loopback(2)},
	} {
		if _, err := NewOrdered(cfg); err == nil {
			t.Fatalf("NewOrdered accepted unsupported config %+v", cfg)
		}
	}
}
