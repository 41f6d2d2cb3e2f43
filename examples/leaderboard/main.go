// Leaderboard: maintain a live, exactly-ordered top-5 of player scores
// with the ordered monitor — the extension the paper sketches as future
// work in §5 (top-k set plus the ranking within it), implemented here by
// combining the main algorithm's k-boundary with neighbor-midpoint
// filters inside the band.
//
// Run with:
//
//	go run ./examples/leaderboard
//
// 200 players carry a rating (points per rolling window) that wanders
// slowly around a per-player skill level; every now and then someone goes
// on a hot streak and climbs the board. Because ratings are mostly
// stable, the coordinator needs very few messages to keep the exact
// ranking current. (Cumulative totals, where the whole field climbs
// forever, would be the algorithm's worst case — absolute filters cannot
// absorb common-mode growth; ratings are the natural fit.)
package main

import (
	"fmt"
	"log"

	"repro/topk"
)

const (
	nPlayers = 200
	boardK   = 5
	steps    = 4000
)

func main() {
	board, err := topk.NewOrdered(topk.Config{Nodes: nPlayers, K: boardK, Seed: 1717})
	if err != nil {
		log.Fatal(err)
	}

	g := &game{rng: 55, skill: make([]int64, nPlayers), drift: make([]int64, nPlayers), streak: -1}
	for i := range g.skill {
		g.skill[i] = int64(g.next()%900000) + 100000 // 100k..1M rating
	}

	vals := make([]int64, nPlayers)
	var ranking, last []int
	for t := 0; t < steps; t++ {
		g.tick(vals)
		if _, err := board.Observe(vals); err != nil {
			log.Fatal(err)
		}
		ranking = board.AppendRanking(ranking[:0])
		if changed(last, ranking) {
			fmt.Printf("t=%4d leaderboard: %v\n", t, ranking)
			last = append(last[:0], ranking...)
		}
	}

	c := board.Counts()
	fmt.Printf("\n%d ticks, %d players, exact ordered top-%d at every tick\n", steps, nPlayers, boardK)
	fmt.Printf("messages: %d total (%.2f per tick) vs %d for naive forwarding (%.0fx saving)\n",
		c.Total(), float64(c.Total())/steps, steps*nPlayers, float64(steps*nPlayers)/float64(c.Total()))
}

// game drives slowly wandering ratings with occasional hot streaks.
type game struct {
	rng     uint64
	skill   []int64 // per-player base rating
	drift   []int64 // bounded wander around the base
	streak  int
	streakT int
}

func (g *game) next() uint64 {
	g.rng ^= g.rng << 13
	g.rng ^= g.rng >> 7
	g.rng ^= g.rng << 17
	return g.rng
}

func (g *game) tick(vals []int64) {
	if g.streak < 0 && g.next()%400 == 0 {
		g.streak = int(g.next() % uint64(len(g.skill)))
		g.streakT = 120
	}
	if g.streakT > 0 {
		g.streakT--
		if g.streakT == 0 {
			g.streak = -1
		}
	}
	for i := range g.skill {
		g.drift[i] += int64(g.next()%61) - 30 // ±30 wander per tick
		if g.drift[i] > 5000 {
			g.drift[i] = 5000
		}
		if g.drift[i] < -5000 {
			g.drift[i] = -5000
		}
		vals[i] = g.skill[i] + g.drift[i]
		if i == g.streak {
			vals[i] += 2_000_000 // a hot streak tops the board outright
		}
	}
}

func changed(a, b []int) bool {
	if len(a) != len(b) {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return true
		}
	}
	return false
}
