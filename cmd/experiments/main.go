// Command experiments regenerates every experiment table (E1..E17, E19
// and E24..E26) that EXPERIMENTS.md records: the empirical validation of
// the paper's theorems, lower bound, competitive-ratio analysis and
// comparison claims.
//
// Examples:
//
//	experiments                 # full scale, all experiments
//	experiments -scale quick    # fast smoke run
//	experiments -only E4,E5     # a subset
//	experiments -only E1,E2,E3  # Algorithm 2 and its baselines alone
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		scaleName = flag.String("scale", "full", "full | quick")
		only      = flag.String("only", "", "comma-separated experiment ids, e.g. E1,E4 (default: all)")
	)
	flag.Parse()

	var scale bench.Scale
	switch *scaleName {
	case "full":
		scale = bench.Full()
	case "quick":
		scale = bench.Quick()
	default:
		log.Fatalf("unknown scale %q", *scaleName)
	}

	var selected []bench.Experiment
	if *only == "" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				log.Fatalf("unknown experiment id %q", id)
			}
			selected = append(selected, e)
		}
	}

	for i, e := range selected {
		start := time.Now()
		tbl := e.Run(scale)
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(tbl.Render())
		fmt.Printf("(%s in %.1fs)\n", e.ID, time.Since(start).Seconds())
	}
}
