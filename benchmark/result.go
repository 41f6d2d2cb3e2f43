package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// header records where and on what a result file was measured.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Revision   string  `json:"vcs_revision"`
}

func newHeader(seed uint64, seconds float64) header {
	h := header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: cpuModel(), Kernel: firstLine("/proc/sys/kernel/osrelease"),
		Seed: seed, Seconds: seconds, Revision: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Revision = rev + dirty
		}
	}
	return h
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// value is one end-to-end metric of one workload. Value is null where
// the metric does not exist: a class p50 with fewer than
// minClassSamples calls.
type value struct {
	Value   *float64 `json:"value"`
	Unit    string   `json:"unit"`
	Samples int      `json:"samples"`
}

// workloadResult is one workload's section of a result file.
type workloadResult struct {
	Name    string           `json:"name"`
	Why     string           `json:"why"`
	Calls   int              `json:"calls"`
	Checked int              `json:"checked"`
	Failed  int              `json:"failed"`
	Classes map[string]int   `json:"classes,omitempty"`
	E2E     map[string]value `json:"end_to_end,omitempty"`
	// Blocks are the per-block rates steps_per_s is the median of; their
	// spread is what -compare calls unresolved.
	Blocks      []float64          `json:"steps_per_s_blocks,omitempty"`
	Setups      []float64          `json:"setup_s_samples,omitempty"`
	TracedCalls int                `json:"traced_calls,omitempty"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	Budget      *budget            `json:"budget,omitempty"`
	First       *mismatch          `json:"first_failure,omitempty"`
}

type resultFile struct {
	Header    header           `json:"header"`
	Workloads []workloadResult `json:"workloads"`
}

// newWorkloadResult lays out one workload's section of the result file
// from the halves that ran: plain is the untraced half, tw the traced
// one; either may be nil, and the budget table needs both.
func newWorkloadResult(w spec, plain *runResult, tw *tracedWorkload) workloadResult {
	wr := workloadResult{Name: w.Name, Why: w.Why}
	runs := tw.runs()
	if plain != nil {
		runs = append([]*runResult{plain}, runs...)
	}
	for _, r := range runs {
		wr.Failed += r.Failed
		if wr.First == nil {
			wr.First = r.First
		}
	}
	var s summary
	if plain != nil {
		s = summarize(plain)
		wr.Calls, wr.Checked, wr.Blocks, wr.Setups = plain.Calls, plain.Checked, s.Blocks, plain.Setups
		wr.Classes = map[string]int{"quiet": s.Samples[classQuiet], "viol": s.Samples[classViol], "reset": s.Samples[classReset]}
		wr.E2E = map[string]value{}
		for _, d := range endToEnd {
			v := value{Unit: d.Unit, Samples: s.Calls}
			switch d.Name {
			case "quiet_p50_us":
				v.Samples = s.Samples[classQuiet]
			case "viol_p50_us":
				v.Samples = s.Samples[classViol]
			case "reset_p50_us":
				v.Samples = s.Samples[classReset]
			case "setup_s":
				v.Samples = len(plain.Setups)
			case "heap_mb":
				v.Samples = 1
			}
			if x, ok := s.Values[d.Name]; ok {
				v.Value = &x
			}
			wr.E2E[d.Name] = v
		}
	}
	if tw != nil {
		wr.Failed += len(tw.broken)
		wr.TracedCalls, wr.PerLayer = tw.traced.Calls, tw.perLayer
	}
	if plain != nil && tw != nil {
		b := makeBudget(w, s, tw.traced, tw.frames, tw.perLayer)
		wr.Budget = &b
	}
	return wr
}

// print writes one workload's metrics by name with their units; a gated
// end-to-end metric carries its bound from BENCHMARK.json.
func (wr workloadResult) print(out io.Writer, man manifest) {
	fmt.Fprintf(out, "\n== %s — %d calls, %d checked, %d failed (quiet %d / viol %d / reset %d)\n",
		wr.Name, wr.Calls, wr.Checked, wr.Failed, wr.Classes["quiet"], wr.Classes["viol"], wr.Classes["reset"])
	for _, d := range endToEnd {
		v := wr.E2E[d.Name]
		num := "null"
		if v.Value != nil {
			num = fmt.Sprintf("%.4f", *v.Value)
		}
		fmt.Fprintf(out, "  %-24s %14s %-7s (n=%d)", d.Name, num, d.Unit, v.Samples)
		if b, ok := man.bound(d.Name); ok {
			fmt.Fprintf(out, "  gated at %.0f%%", 100*b)
		}
		if d.Name == "steps_per_s" && len(wr.Blocks) > 0 {
			fmt.Fprintf(out, "  blocks min %.1f max %.1f", slices.Min(wr.Blocks), slices.Max(wr.Blocks))
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "  -- per layer (traced quarter of %d calls; layers off this workload's path omitted)\n", wr.TracedCalls)
	for _, d := range perLayer {
		if v := wr.PerLayer[d.Name]; v != 0 {
			fmt.Fprintf(out, "  %-44s %16.3f %s\n", d.Name, v, d.Unit)
		}
	}
	wr.Budget.print(out, wr.Name)
}

func writeResult(path string, rf resultFile) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}
