package main

import (
	"fmt"
	"io"
	"slices"
)

// compareRule is how -compare judges one end-to-end metric on one
// workload: a gated metric by its bound from BENCHMARK.json, an exact one
// by equality, any other not at all.
type compareRule struct {
	metricDef
	Gated bool
}

// ruleFor builds the rule of d. The ledger counts repeat bit for bit on
// the synchronous workloads; where they cannot (looseCounts: on the
// asynchronous workload the engine-step count depends on scheduling, and
// runs of different lengths follow different traces) they are reported
// without a verdict. failed_share must be 0 everywhere.
func ruleFor(man manifest, d metricDef, looseCounts bool) compareRule {
	r := compareRule{metricDef: d}
	r.Bound, r.Gated = man.bound(d.Name)
	r.Exact = d.Exact && (!looseCounts || d.Name == "failed_share")
	return r
}

const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictNA         = "n/a"
)

// judge compares one metric of one workload. oldBlocks and newBlocks are
// the per-block values behind the metric, when it has any.
func judge(r compareRule, old, new *float64, oldBlocks, newBlocks []float64) string {
	if !r.Gated && !r.Exact {
		return verdictNA
	}
	if old == nil || new == nil {
		if old == nil && new == nil {
			return verdictNA
		}
		return verdictUnresolved // the metric exists on one side only
	}
	o, n := *old, *new
	worse := n > o
	if r.Better == higher {
		worse = n < o
	}
	direction := verdictBetter
	if worse {
		direction = verdictWorse
	}
	if o == n {
		return verdictSame
	}
	if r.Exact {
		return direction
	}
	if o != 0 && abs(n-o)/abs(o) <= r.Bound {
		return verdictSame
	}
	// Beyond the bound: believe it only if the blocks are tighter than the
	// bound, or if every block of one side beats every block of the other.
	if spread(oldBlocks) > r.Bound || spread(newBlocks) > r.Bound {
		lo, hi := oldBlocks, newBlocks
		if (r.Better == higher) == worse {
			lo, hi = newBlocks, oldBlocks
		}
		if len(lo) == 0 || len(hi) == 0 || slices.Max(lo) >= slices.Min(hi) {
			return verdictUnresolved
		}
	}
	return direction
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// spread is (max - min) / median of a block sample, 0 without one.
func spread(blocks []float64) float64 {
	if len(blocks) < 2 {
		return 0
	}
	m := median(blocks)
	if m == 0 {
		return 0
	}
	return (slices.Max(blocks) - slices.Min(blocks)) / m
}

// compare prints one row per (workload, end-to-end metric) and reports
// whether any row is worse or any failed_share rose.
func compare(out io.Writer, man manifest, oldRF, newRF resultFile) (regressed bool) {
	fmt.Fprintf(out, "%-18s %-22s %14s %14s %22s %8s  %s\n", "workload", "metric", "old", "new", "new/old (base: old)", "bound", "verdict")
	newBy := map[string]workloadResult{}
	for _, w := range newRF.Workloads {
		newBy[w.Name] = w
	}
	num := func(p *float64) string {
		if p == nil {
			return "null"
		}
		return fmt.Sprintf("%.4f", *p)
	}
	for _, ow := range oldRF.Workloads {
		nw, ok := newBy[ow.Name]
		if !ok {
			fmt.Fprintf(out, "%-18s missing from the new result\n", ow.Name)
			regressed = true
			continue
		}
		w, _ := findWorkload(workloads, ow.Name)
		if ow.Calls != nw.Calls {
			fmt.Fprintf(out, "%-18s %d calls against %d: the per-step counts are of different traces\n", ow.Name, ow.Calls, nw.Calls)
		}
		for _, d := range endToEnd {
			r := ruleFor(man, d, w.Async || ow.Calls != nw.Calls)
			o, n := ow.E2E[r.Name].Value, nw.E2E[r.Name].Value
			var ob, nb []float64
			if r.Name == "steps_per_s" {
				ob, nb = ow.Blocks, nw.Blocks
			}
			v := judge(r, o, n, ob, nb)
			ratio := "-"
			if o != nil && n != nil && *o != 0 {
				ratio = fmt.Sprintf("%.4f of %.4f", *n / *o, *o)
			}
			bound := "-"
			switch {
			case r.Exact:
				bound = "exact"
			case r.Gated:
				bound = fmt.Sprintf("%.0f%%", 100*r.Bound)
			}
			fmt.Fprintf(out, "%-18s %-22s %14s %14s %22s %8s  %s\n", ow.Name, r.Name, num(o), num(n), ratio, bound, v)
			if v == verdictWorse {
				regressed = true
			}
			if r.Name == "failed_share" && o != nil && n != nil && *n > *o {
				regressed = true
			}
		}
	}
	return regressed
}
