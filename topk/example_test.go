package topk_test

import (
	"fmt"
	"slices"

	"repro/topk"
)

// ExampleMonitor shows the minimal monitoring loop: create a monitor, feed
// one observation vector per time step, read the top-k set. Small drifts
// cost nothing: every value stays inside the filter interval the
// coordinator assigned, so nobody speaks.
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
// step where nothing moved costs nothing at all. A tick-based feed (market
// data, sensor fleets, leaderboards) naturally arrives as such deltas.
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
// §5 extension): AppendRanking reads ids largest-value-first. A live
// leaderboard of slowly wandering ratings is the natural fit: the exact
// ranking stays current on very few messages.
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

// Example_adversarial prices the worst-case input of the paper's §2.1, a
// maximum that moves to another node every step, against a stable leader.
// On the first no algorithm can avoid communicating, and the monitor runs a
// FILTERRESET a step; on the second it is all but silent. Filters win
// exactly when the input is compressible, and never lose more than the
// O((log ∆ + k)·log n) factor the paper proves.
func Example_adversarial() {
	run := func(name string, gen func(t int, vals []int64)) {
		mon, err := topk.New(topk.Config{Nodes: 32, K: 1, Seed: 5})
		if err != nil {
			panic(err)
		}
		vals := make([]int64, 32)
		for t := 0; t < 1000; t++ {
			gen(t, vals)
			if _, err := mon.Observe(vals); err != nil {
				panic(err)
			}
		}
		st := mon.Stats()
		fmt.Printf("%s: %d msgs, %d resets, top changed %d times\n",
			name, mon.Counts().Total(), st.Resets, st.TopChanges)
	}
	run("rotating maximum", func(t int, vals []int64) {
		for i := range vals {
			vals[i] = 100
		}
		vals[t%len(vals)] = 10_000
	})
	run("stable leader", func(t int, vals []int64) {
		for i := range vals {
			vals[i] = 100 + int64((t*(i+3))%7)
		}
		vals[0] = 10_000 + int64(t%5)
	})
	// Output:
	// rotating maximum: 27127 msgs, 1000 resets, top changed 1000 times
	// stable leader: 20 msgs, 1 resets, top changed 1 times
}

// xorshift is the examples' deterministic generator.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// Example_sensors is the scenario of the paper's introduction: a fleet of
// sensors keeps the coordinator informed of the k locations with the
// highest readings. 48 stations sample temperature in milli-degrees for
// five days of 480 steps: a micro-climate offset each, a shared day/night
// wave of ±0.5°C, ±10 m°C of jitter, and now and then a local +30°C heat
// event that must enter the hot set. Values move slowly against the gaps
// between stations, so the monitor is quiet outside the events.
func Example_sensors() {
	const stations, days, day = 48, 5, 480
	mon, err := topk.New(topk.Config{Nodes: stations, K: 5, Seed: 2024})
	if err != nil {
		panic(err)
	}
	rng := xorshift(99)
	offsets := make([]int64, stations)
	for i := range offsets {
		offsets[i] = 15000 + int64(rng.next()%40000) - 20000 // 15°C ± 20°C
	}
	event, eventT := -1, 0
	vals := make([]int64, stations)
	var last []int
	for t := 0; t < days*day; t++ {
		// A common-mode wave is the expensive direction for absolute
		// filters, so it stays smaller than the station spread.
		wave := int64(t%day)*2000/day - 500
		if t%day >= day/2 {
			wave = 1500 - int64(t%day)*2000/day
		}
		if event < 0 && rng.next()%(day/2) == 0 {
			event, eventT = int(rng.next()%stations), 60
		}
		if eventT > 0 {
			if eventT--; eventT == 0 {
				event = -1
			}
		}
		for i := range vals {
			vals[i] = offsets[i] + wave + int64(rng.next()%21) - 10
			if i == event {
				vals[i] += 30000
			}
		}
		top, err := mon.Observe(vals)
		if err != nil {
			panic(err)
		}
		if !slices.Equal(last, top) {
			fmt.Printf("step %4d: hottest %v\n", t, top)
			last = mon.AppendTop(last[:0])
		}
	}
	st := mon.Stats()
	fmt.Printf("%d msgs (naive forwarding: %d), violations on %d of %d steps, %d resets\n",
		mon.Counts().Total(), days*day*stations, st.ViolationSteps, st.Steps, st.Resets)
	// Output:
	// step    0: hottest [19 20 27 29 36]
	// step  451: hottest [7 20 27 29 36]
	// step  510: hottest [19 20 27 29 36]
	// step  512: hottest [20 27 29 33 36]
	// step  571: hottest [19 20 27 29 36]
	// step  615: hottest [20 27 29 33 36]
	// step  674: hottest [19 20 27 29 36]
	// step 1456: hottest [9 20 27 29 36]
	// step 1515: hottest [19 20 27 29 36]
	// step 1774: hottest [20 27 29 32 36]
	// step 1833: hottest [19 20 27 29 36]
	// step 1838: hottest [20 27 29 36 47]
	// step 1897: hottest [19 20 27 29 36]
	// 5351 msgs (naive forwarding: 115200), violations on 210 of 2400 steps, 57 resets
}

// Example_netmon tracks the k most loaded of 96 network links from their
// per-second byte rates, the traffic-analysis task of the paper's related
// work. A few backbone links dominate (a Zipf-like base load with ±2%
// jitter), and now and then a flash crowd pushes an edge link into the top
// set for 80 seconds. Most messages go to the FILTERRESETs the flash crowds
// trigger; quiet periods cost nothing.
func Example_netmon() {
	const links, k = 96, 8
	mon, err := topk.New(topk.Config{Nodes: links, K: k, Seed: 31337})
	if err != nil {
		panic(err)
	}
	rng := xorshift(4242)
	base := make([]int64, links)
	for i := range base {
		base[i] = 10_000_000_000 / int64(i+1)
	}
	flash, flashT, seen := -1, 0, false
	vals := make([]int64, links)
	for t := 0; t < 3000; t++ {
		if flash < 0 && rng.next()%500 == 0 {
			flash, flashT, seen = links/2+int(rng.next()%(links/2)), 80, false
		}
		if flashT > 0 {
			if flashT--; flashT == 0 {
				flash = -1
			}
		}
		for i := range vals {
			vals[i] = base[i] + base[i]*(int64(rng.next()%41)-20)/1000
			if i == flash {
				vals[i] += 5_000_000_000
			}
		}
		top, err := mon.Observe(vals)
		if err != nil {
			panic(err)
		}
		if flash >= 0 && !seen && slices.Contains(top, flash) {
			seen = true
			fmt.Printf("step %4d: flash crowd on link %d: top-%d %v\n", t, flash, k, top)
		}
	}
	p := mon.Phases()
	fmt.Printf("%d msgs: violations %d, handler %d, resets %d\n",
		mon.Counts().Total(), p.Violation.Total(), p.Handler.Total(), p.Reset.Total())
	// Output:
	// step  416: flash crowd on link 73: top-8 [0 1 2 3 4 5 6 73]
	// step  562: flash crowd on link 51: top-8 [0 1 2 3 4 5 6 51]
	// step 1343: flash crowd on link 55: top-8 [0 1 2 3 4 5 6 55]
	// step 1473: flash crowd on link 70: top-8 [0 1 2 3 4 5 6 70]
	// step 1559: flash crowd on link 74: top-8 [0 1 2 3 4 5 6 74]
	// step 1797: flash crowd on link 49: top-8 [0 1 2 3 4 5 6 49]
	// step 2521: flash crowd on link 70: top-8 [0 1 2 3 4 5 6 70]
	// step 2933: flash crowd on link 86: top-8 [0 1 2 3 4 5 6 86]
	// 1027 msgs: violations 107, handler 171, resets 749
}

// ExampleLoopback runs the networked engine through the public API: four
// in-process peers host the nodes and speak the real wire protocol, the
// codec and framing topkmon -serve and -join use across machines. The
// model's messages and their canonical bytes are what every engine charges
// for the seed; TransportStats adds what crossed the links on top.
func ExampleLoopback() {
	const nodes = 64
	mon, err := topk.New(topk.Config{Nodes: nodes, K: 4, Seed: 2026, Transport: topk.Loopback(4)})
	if err != nil {
		panic(err)
	}
	defer mon.Close()
	// A drifting fleet with one periodically surging stream, so the top set
	// changes and every protocol phase runs.
	vals := make([]int64, nodes)
	for i := range vals {
		vals[i] = int64(1000 + 10*i)
	}
	for t := 0; t < 4000; t++ {
		for i := range vals {
			vals[i] += int64((t+i*7)%5 - 2)
		}
		vals[(t/500)%nodes] += 40
		if _, err := mon.Observe(vals); err != nil {
			panic(err)
		}
	}
	c, b := mon.Counts(), mon.Bytes()
	fmt.Printf("top changed %d times\n", mon.Stats().TopChanges)
	fmt.Printf("model: %d msgs (up=%d bcast=%d), %d bytes\n", c.Total(), c.Up, c.Broadcast, b.Total())
	ts := mon.TransportStats()
	fmt.Printf("transport: %d sent + %d received bytes in %d frames\n", ts.SentBytes, ts.RecvBytes, ts.SentFrames+ts.RecvFrames)
	// Output:
	// top changed 9 times
	// model: 850 msgs (up=447 bcast=403), 5636 bytes
	// transport: 341884 sent + 69910 received bytes in 32784 frames
}
