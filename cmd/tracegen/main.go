// Command tracegen generates synthetic observation traces and writes them
// as CSV (one time step per row, one column per node), which topkmon -trace
// replays, or as gob, which stream.ReadGob reads (for a
// stream.TraceSource); topkmon -trace reads CSV only.
//
// Examples:
//
//	tracegen -workload walk -n 32 -steps 5000 -o walk.csv
//	tracegen -workload bursty -n 64 -steps 10000 -format gob -o bursty.gob
package main

import (
	"flag"
	"fmt"
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
		format   = flag.String("format", "csv", "csv (replays with topkmon -trace) | gob (read by stream.ReadGob)")
		out      = flag.String("o", "", "output file (default stdout, csv only)")
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
	switch *format {
	case "csv":
		err = stream.WriteCSV(w, matrix)
	case "gob":
		if *out == "" {
			log.Fatal("gob output requires -o")
		}
		err = stream.WriteGob(w, matrix)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		log.Printf("wrote %d steps x %d nodes to %s (%s)", *steps, *n, *out, *format)
	}
}
