package topk_test

import (
	"fmt"

	"repro/topk"
)

// ExampleMonitor shows the minimal monitoring loop: create a monitor, feed
// one observation vector per time step, read the top-k set.
func ExampleMonitor() {
	mon, err := topk.New(topk.Config{Nodes: 4, K: 2, Seed: 42})
	if err != nil {
		panic(err)
	}
	steps := [][]int64{
		{10, 40, 20, 30}, // nodes 1 and 3 lead
		{11, 41, 21, 31}, // small changes: no communication needed
		{12, 42, 22, 32},
		{90, 42, 22, 32}, // node 0 takes over
	}
	for _, vals := range steps {
		top, err := mon.Observe(vals)
		if err != nil {
			panic(err)
		}
		fmt.Println(top)
	}
	// Output:
	// [1 3]
	// [1 3]
	// [1 3]
	// [0 1]
}

// ExampleMonitor_ObserveDelta shows sparse ingestion: after the first
// (dense) step only the streams that changed are fed in, so a quiet step
// costs work proportional to the change, not to the fleet size — and a
// step where nothing moved costs nothing at all.
func ExampleMonitor_ObserveDelta() {
	mon, err := topk.New(topk.Config{Nodes: 6, K: 2, Seed: 7})
	if err != nil {
		panic(err)
	}
	// Dense bootstrap: every node reports its starting value.
	top, err := mon.Observe([]int64{10, 60, 20, 50, 30, 40})
	if err != nil {
		panic(err)
	}
	fmt.Println(top)

	// Only node 4 moves — and it surges past everyone.
	top, err = mon.ObserveDelta([]int{4}, []int64{99})
	if err != nil {
		panic(err)
	}
	fmt.Println(top)

	// A step in which nothing changed is free.
	top, err = mon.ObserveDelta(nil, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(top)
	// Output:
	// [1 3]
	// [1 4]
	// [1 4]
}

// ExampleOracle demonstrates the offline helper with deterministic
// tie-breaking (equal values: smaller node id wins).
func ExampleOracle() {
	top, err := topk.Oracle([]int64{7, 7, 3, 9}, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println(top)
	// Output:
	// [0 3]
}

// ExampleNewOrdered tracks the exact ranking of the top-k (the paper's
// §5 extension): AppendRanking reads ids largest-value-first.
func ExampleNewOrdered() {
	mon, err := topk.NewOrdered(topk.Config{Nodes: 4, K: 3, Seed: 1})
	if err != nil {
		panic(err)
	}
	if _, err := mon.Observe([]int64{10, 40, 20, 30}); err != nil {
		panic(err)
	}
	fmt.Println(mon.AppendRanking(nil))
	// Nodes 1 and 3 swap ranks; the board follows exactly.
	if _, err := mon.Observe([]int64{10, 29, 20, 30}); err != nil {
		panic(err)
	}
	fmt.Println(mon.AppendRanking(nil))
	// Output:
	// [1 3 2]
	// [3 1 2]
}
