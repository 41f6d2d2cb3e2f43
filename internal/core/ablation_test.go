package core

import (
	"strings"
	"testing"

	"repro/internal/stream"
)

func TestMonitorGatherAblationExact(t *testing.T) {
	m := New(Config{N: 10, K: 3, Seed: 51, UseGather: true})
	src := stream.NewRandomWalk(stream.WalkConfig{N: 10, Lo: 0, Hi: 50000, MaxStep: 300, Seed: 52})
	runChecked(t, m, src, 250)
}

func TestMonitorGatherAblationCostsMore(t *testing.T) {
	// With M(n) = n instead of O(log n), the same workload must cost more
	// at scale. Use an IID workload so protocols run constantly.
	const n, steps = 64, 150
	run := func(gather bool) int64 {
		m := New(Config{N: n, K: 2, Seed: 53, UseGather: gather})
		src := stream.NewIID(stream.IIDConfig{N: n, Seed: 54, Dist: stream.Uniform, Lo: 0, Hi: 1 << 24})
		vals := make([]int64, n)
		for s := 0; s < steps; s++ {
			src.Step(vals)
			m.Observe(vals)
		}
		return m.Ledger().Total().Total()
	}
	sampled, gathered := run(false), run(true)
	if gathered <= sampled {
		t.Fatalf("gather-all (%d msgs) should cost more than sampled protocol (%d msgs)", gathered, sampled)
	}
}

func TestMonitorGatherAblationKEqualsN(t *testing.T) {
	m := New(Config{N: 4, K: 4, Seed: 55, UseGather: true})
	src := stream.NewIID(stream.IIDConfig{N: 4, Seed: 56, Dist: stream.Uniform, Lo: 0, Hi: 1000})
	runChecked(t, m, src, 50)
}

// TestGatherLedgerRecorded pins the UseGather ablation's ledger — per
// execution one query broadcast, if anyone answered, and one bid per cohort
// member — on the inline host and on threeViews, where each view runs the
// gather as a logged execution of population bound 1 and the monitor
// replays the logs, to lines recorded from the monitor that ran the gather
// as one round swept over the views.
func TestGatherLedgerRecorded(t *testing.T) {
	want := []string{ // walk, twoband-churn, k-equals-n, walk-wide × ε = 0, 0.05
		"reports=cdd0e4e453d40b03 503/0/153 2515/0/317B | 45/0/45 225/0/45B | 188/0/54 940/0/110B | 270/0/54 1350/0/162B | {Steps:250 ViolationSteps:40 HandlerCalls:40 Resets:27 TopChanges:14}",
		"reports=5fd030476706d5cb 42/0/10 210/0/28B | 2/0/2 10/0/2B | 10/0/2 50/0/2B | 30/0/6 150/0/24B | {Steps:250 ViolationSteps:2 HandlerCalls:2 Resets:3 TopChanges:3}",
		"reports=e2b053d8b9e70d15 120/0/32 547/0/60B | 12/0/12 54/0/12B | 24/0/6 114/0/6B | 84/0/14 379/0/42B | {Steps:250 ViolationSteps:6 HandlerCalls:6 Resets:7 TopChanges:7}",
		"reports=e2b053d8b9e70d15 120/0/32 547/0/74B | 12/0/12 54/0/12B | 24/0/6 114/0/6B | 84/0/14 379/0/56B | {Steps:250 ViolationSteps:6 HandlerCalls:6 Resets:7 TopChanges:7}",
		"reports=62eb29cf58a04679 5/0/1 25/0/1B | 0/0/0 0/0/0B | 0/0/0 0/0/0B | 5/0/1 25/0/1B | {Steps:250 ViolationSteps:0 HandlerCalls:0 Resets:1 TopChanges:1}",
		"reports=62eb29cf58a04679 5/0/1 25/0/1B | 0/0/0 0/0/0B | 0/0/0 0/0/0B | 5/0/1 25/0/1B | {Steps:250 ViolationSteps:0 HandlerCalls:0 Resets:1 TopChanges:1}",
		"reports=b73c279b36567fb1 35331/0/594 222373/0/1304B | 234/0/189 1540/0/189B | 10697/0/161 67409/0/261B | 24400/0/244 153424/0/854B | {Steps:250 ViolationSteps:141 HandlerCalls:141 Resets:122 TopChanges:90}",
		"reports=95ef9dbc93706a42 1186/0/14 7445/0/46B | 3/0/3 18/0/3B | 383/0/3 2398/0/3B | 800/0/8 5029/0/40B | {Steps:250 ViolationSteps:3 HandlerCalls:3 Resets:4 TopChanges:4}",
	}
	for host, newMonitor := range map[string]func(Config) *Monitor{
		"inline":      New,
		"three views": func(cfg Config) *Monitor { return NewOn(cfg, threeViews) },
	} {
		var got []string
		for _, gs := range goldenStreams {
			if gs.name != "walk" && gs.name != "twoband-churn" && gs.name != "k-equals-n" && gs.name != "walk-wide" {
				continue
			}
			for _, eps := range []float64{0, 0.05} {
				cfg := Config{N: gs.n, K: gs.k, Seed: 72, Epsilon: eps, UseGather: true}
				got = append(got, goldenLine(t, newMonitor, cfg, "mixed", gs.src(gs.n)))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d lines for %d recorded:\n%s", host, len(got), len(want), strings.Join(got, "\n"))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: the gather left the recorded run:\n got %s\nwant %s", host, got[i], want[i])
			}
		}
	}
}
