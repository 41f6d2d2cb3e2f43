// Command tracegen generates synthetic observation traces and writes them
// as CSV (one time step per row, one column per node), which topkmon -trace
// replays.
//
// Example:
//
//	tracegen -workload walk -n 32 -steps 5000 -o walk.csv
package main

import (
	"flag"
	"log"
	"os"
	"strings"

	"repro/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")

	var (
		n        = flag.Int("n", 32, "number of nodes")
		steps    = flag.Int("steps", 5000, "time steps")
		seed     = flag.Uint64("seed", 1, "random seed")
		workload = flag.String("workload", "walk", "one of: "+strings.Join(stream.Names(), " | "))
		out      = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	src, err := stream.FromSpec(stream.Spec{Name: *workload, N: *n, Steps: *steps, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	if c, ok := src.(*stream.Converging); ok && *steps%c.CycleLen() != 0 {
		log.Printf("note: converging cycle length is %d steps; %d steps cover %.1f cycles",
			c.CycleLen(), *steps, float64(*steps)/float64(c.CycleLen()))
	}
	matrix := stream.Collect(src, *steps)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	if err := stream.WriteCSV(w, matrix); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		log.Printf("wrote %d steps x %d nodes to %s", *steps, *n, *out)
	}
}
