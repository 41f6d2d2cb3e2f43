// Deltafeed: monitor a large fleet of mostly-idle streams through the
// sparse ingestion path.
//
// Run with:
//
//	go run ./examples/deltafeed
//
// A tick-based feed (market data, sensor fleets, leaderboards) naturally
// arrives as deltas: per step only a handful of the n streams report a new
// value. ObserveDelta ingests exactly those updates — the monitor performs
// O(#changed) work and zero heap allocations on a violation-free step, no
// matter how large n is — while the reports stay exactly as if every
// stream were re-read in full each step.
package main

import (
	"fmt"
	"log"

	"repro/topk"
)

func main() {
	const (
		nodes = 100_000 // fleet size; only a handful change per step
		k     = 5
		steps = 1_000
	)
	mon, err := topk.New(topk.Config{Nodes: nodes, K: k, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	defer mon.Close() // at this size the monitor may run a pool of shard goroutines

	// Initialize the fleet once, densely: stream i starts at value i.
	init := make([]int64, nodes)
	for i := range init {
		init[i] = int64(i)
	}
	if _, err := mon.Observe(init); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial top-%d: %v\n", k, mon.Top())

	// From here on, feed only what changed. Buffers are reused: the
	// monitor does not retain them.
	ids := make([]int, 0, 4)
	vals := make([]int64, 0, 4)
	for t := 1; t <= steps; t++ {
		ids, vals = ids[:0], vals[:0]
		// Three deterministic movers per step: a low stream twitches (it
		// stays far below the top band and costs nothing), and every 100th
		// step one stream surges past the leaders.
		low := (t * 7919) % (nodes / 2)
		ids = append(ids, low)
		vals = append(vals, int64(low)+int64(t%13))
		if t%100 == 0 {
			surger := nodes/2 + (t/100)*31%(nodes/2)
			if surger != low {
				ids, vals = orderedAppend(ids, vals, surger, int64(nodes)+int64(t))
			}
		}
		top, err := mon.ObserveDelta(ids, vals)
		if err != nil {
			log.Fatal(err)
		}
		if t%100 == 0 {
			fmt.Printf("t=%4d: top-%d = %v\n", t, k, top)
		}
	}

	c := mon.Counts()
	fmt.Printf("\nafter %d sparse steps over %d streams: %d messages (up=%d, down=%d, broadcast=%d)\n",
		steps, nodes, c.Total(), c.Up, c.Down, c.Broadcast)
	fmt.Printf("dense re-ingestion would have touched %d stream-observations; the delta feed touched ~%d\n",
		steps*nodes, steps*2)
}

// orderedAppend inserts (id, v) keeping ids strictly increasing, as
// ObserveDelta requires.
func orderedAppend(ids []int, vals []int64, id int, v int64) ([]int, []int64) {
	pos := len(ids)
	for pos > 0 && ids[pos-1] > id {
		pos--
	}
	ids = append(ids, 0)
	vals = append(vals, 0)
	copy(ids[pos+1:], ids[pos:])
	copy(vals[pos+1:], vals[pos:])
	ids[pos] = id
	vals[pos] = v
	return ids, vals
}
