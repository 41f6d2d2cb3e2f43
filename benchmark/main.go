// Command benchmark is the repository's performance yardstick: seven
// named workloads driven through the public topk API, end-to-end metrics
// measured with tracing off, and a traced run plus isolated drives of
// every layer for the per-layer numbers. See README.md in this directory
// for the workloads, the metric glossary and how the numbers interact.
//
// Run it from the repository root:
//
//	go run ./benchmark [--workload NAME] [--seed N] [--seconds S] [-out FILE] [-spans FILE]
//	go run ./benchmark --workload NAME --seed N --seconds S --trace 0|1
//	go run ./benchmark -compare OLD.json NEW.json
//
// The first form measures every workload (or the named one) untraced and
// then traced, prints every metric and writes one result file. The second
// is one half of that for one workload — the form BENCHMARK.json names —
// and ends with one JSON object on the last line. The third judges two
// result files against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "measure just this workload")
		seed     = flag.Int64("seed", 1, "seeds the input generators and the monitor")
		seconds  = flag.Float64("seconds", 0, "how long one run measures; the step counts scale with it (default: BENCHMARK.json's run_seconds)")
		trace    = flag.Int("trace", -1, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics of a traced run, and the run ends with one JSON result line")
		out      = flag.String("out", "", "write the result file here")
		spans    = flag.String("spans", "", "write the traced run's spans here as JSON lines")
		manPath  = flag.String("manifest", "BENCHMARK.json", "where BENCHMARK.json is")
		cmp      = flag.Bool("compare", false, "compare two result files: -compare OLD.json NEW.json")
	)
	flag.Parse()
	man, err := readManifest(*manPath)
	if err == nil {
		if *cmp {
			err = runCompare(man, flag.Args())
		} else {
			err = measure(man, workloads, options{workload: *workload, seed: uint64(*seed), seconds: *seconds, trace: *trace, out: *out, spans: *spans})
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// manifest is BENCHMARK.json: the one place that says which end-to-end
// metrics are gated and by what bound, and how long a run measures.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(path string) (manifest, error) {
	var man manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return man, err
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return man, fmt.Errorf("%s: %w", path, err)
	}
	return man, nil
}

// bound returns the regression bound of a gated end-to-end metric.
func (m manifest) bound(name string) (float64, bool) {
	for _, d := range m.EndToEnd {
		if d.Name == name {
			return d.Bound, true
		}
	}
	return 0, false
}

// errIncorrect is returned after a result has been printed that counts a
// failed call, a wrong report or a broken self-check.
var errIncorrect = errors.New("a correctness gate failed")

func runCompare(man manifest, args []string) error {
	if len(args) != 2 {
		return errors.New("-compare takes OLD.json NEW.json")
	}
	oldRF, err := readResult(args[0])
	if err != nil {
		return err
	}
	newRF, err := readResult(args[1])
	if err != nil {
		return err
	}
	if compare(os.Stdout, man, oldRF, newRF) {
		return errors.New("compare: a metric got worse")
	}
	return nil
}

// contractLine is the one JSON object a --trace 0|1 run ends with.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int // 0 untraced half, 1 traced half, -1 both
	out      string
	spans    string
}

const (
	// sizedSeconds is the run length the workloads' step counts were
	// sized for on the reference host.
	sizedSeconds = 8
	// The traced half repeats the first 1/prefixFraction of the trace.
	prefixFraction = 4
	// A timed region gives up after limitFactor times --seconds and
	// limitSlack: a guard against a host far slower than the reference.
	limitFactor = 4
	limitSlack  = 10 * time.Second
)

// callsFor is the timed call count of a run of the given length.
func (w spec) callsFor(seconds float64) int {
	calls := max(int(float64(w.Steps)*seconds/sizedSeconds), 4*numBlocks)
	if w.Async {
		calls = (calls + w.DrainEvery - 1) / w.DrainEvery * w.DrainEvery
	}
	return calls
}

// measure is the one driver: for each selected workload the untraced
// half (end-to-end metrics, set-up repeated) and the traced half (a
// quarter of the trace untraced, the same quarter traced, the isolated
// drives), as o.trace selects.
func measure(man manifest, ws []spec, o options) error {
	if o.seconds == 0 {
		o.seconds = float64(man.RunSeconds)
	}
	if o.seconds <= 0 || o.trace < -1 || o.trace > 1 {
		return errors.New("need -seconds > 0 and -trace 0 or 1")
	}
	if o.trace >= 0 && o.workload == "" {
		return errors.New("-trace needs -workload")
	}
	if o.workload != "" {
		w, ok := findWorkload(ws, o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		ws = []spec{w}
	}
	limit := time.Duration(limitFactor*o.seconds*float64(time.Second)) + limitSlack

	rf := resultFile{Header: newHeader(o.seed, o.seconds)}
	if o.trace < 0 {
		fmt.Printf("benchmark: seed %d, %g s per run, %d CPUs, GOMAXPROCS %d, %s, %s, kernel %s, revision %s\n",
			o.seed, o.seconds, rf.Header.NProc, rf.Header.GOMAXPROCS, rf.Header.GoVersion, rf.Header.CPU, rf.Header.Kernel, rf.Header.Revision)
	}
	var failures []string
	classes := map[string][]class{}
	for _, w := range ws {
		calls := w.callsFor(o.seconds)
		var plain *runResult
		var tw *tracedWorkload
		var err error
		if o.trace != 1 {
			if plain, err = run(w, runOpts{seed: o.seed, calls: calls, limit: limit, repeatSetup: true}); err != nil {
				return err
			}
			classes[w.Name] = plain.Class
		}
		if o.trace != 0 {
			prefix := max(calls/prefixFraction, 1)
			if w.Async {
				prefix = max(prefix/w.DrainEvery, 1) * w.DrainEvery
			}
			spanFile := o.spans
			if spanFile != "" && len(ws) > 1 {
				spanFile += "." + w.Name
			}
			if tw, err = traceWorkload(w, o.seed, prefix, limit, spanFile); err != nil {
				return err
			}
		}
		wr := newWorkloadResult(w, plain, tw)
		rf.Workloads = append(rf.Workloads, wr)
		if wr.First != nil {
			failures = append(failures, wr.First.String())
		}
		if tw != nil {
			failures = append(failures, tw.broken...)
		}
		if o.trace >= 0 {
			if err := printContractLine(man, o.trace, plain, tw); err != nil {
				return err
			}
			continue
		}
		wr.print(os.Stdout, man)
	}
	// Determinism self-check: the tree runs the sequential engine's trace,
	// so both must classify every step alike.
	a, b := classes["seq-dense-mixed"], classes["tree-dense-mixed"]
	for at := 0; at < min(len(a), len(b)); at++ { // a run that gave up is shorter
		if a[at] != b[at] {
			failures = append(failures, fmt.Sprintf("seq-dense-mixed and tree-dense-mixed classify step %d differently on seed %d", at, o.seed))
			break
		}
	}
	if o.out != "" {
		if err := writeResult(o.out, rf); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchmark: result written to %s\n", o.out)
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", f)
	}
	if len(failures) > 0 {
		return errIncorrect
	}
	return nil
}

// printContractLine ends a --trace 0|1 run: with 0 the metrics are
// BENCHMARK.json's end_to_end list, with 1 its per_layer list, whose
// unbounded end-to-end quantities come from the untraced quarter.
func printContractLine(man manifest, trace int, plain *runResult, tw *tracedWorkload) error {
	line := contractLine{Metrics: map[string]contractMetric{}}
	defs, values := man.EndToEnd, map[string]float64{}
	if trace == 0 {
		values = summarize(plain).Values
		line.Attempted, line.Failed = plain.attempted(), plain.Failed
	} else {
		defs = man.PerLayer
		for name, v := range summarize(tw.plain).Values {
			values[name] = v
		}
		for name, v := range tw.perLayer {
			values[name] = v
		}
		line.Attempted = tw.plain.attempted() + tw.traced.attempted()
		line.Failed = tw.plain.Failed + tw.traced.Failed + len(tw.broken)
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if trace == 0 && (!ok || v == 0) {
			return fmt.Errorf("%s: gated metric %s has no value; BENCHMARK.json may bound only metrics every workload defines", plain.Spec.Name, d.Name)
		}
		line.Metrics[d.Name] = contractMetric{Value: v, Unit: d.Unit}
	}
	line.Correct = line.Failed == 0
	js, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	return nil
}

// tracedWorkload is one workload's untraced quarter, its traced repeat
// and everything derived from the pair.
type tracedWorkload struct {
	plain, traced *runResult
	perLayer      map[string]float64
	frames        []float64 // coordinator frames per traced call
	// broken lists exact counters on which the traced run disagreed with
	// the untraced one: the interposers changed the program.
	broken []string
}

// runs lists the half's two runs; a nil half made none.
func (tw *tracedWorkload) runs() []*runResult {
	if tw == nil {
		return nil
	}
	return []*runResult{tw.plain, tw.traced}
}

// traceWorkload runs the first calls calls of the trace untraced and
// again with span recording on, proves on the exact counters that the
// interposers measured the same program, and runs the isolated drives.
func traceWorkload(w spec, seed uint64, calls int, limit time.Duration, spans string) (*tracedWorkload, error) {
	plain, err := run(w, runOpts{seed: seed, calls: calls, limit: limit})
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := run(w, runOpts{seed: seed, calls: plain.Calls, tr: tr})
	if err != nil {
		return nil, err
	}
	tw := &tracedWorkload{plain: plain, traced: traced, perLayer: map[string]float64{}}
	if spans != "" {
		if err := tr.write(spans, w.Name); err != nil {
			return nil, err
		}
	}

	m := tw.perLayer
	analyze(w, traced, tr, m)
	tw.frames = tr.coordFramesPerCall(traced.Calls)
	// The harness's own generator cost, proving it is outside the spans.
	m["stream.gen_ns_per_step"] = traced.GenNs
	m["topk.new_ns"] = traced.NewNs
	tcalls := float64(max(traced.Calls, 1))
	m["topk.cpu_us_per_step"] = traced.CPUS * 1e6 / tcalls
	m["protocol.bcasts_per_step"] = float64(traced.Delta.Bcasts) / tcalls
	m["protocol.up_msgs_per_step"] = float64(traced.Delta.Ups) / tcalls
	if w.Async {
		m["ingest.engine_steps_per_call"] = float64(traced.Delta.Steps) / tcalls
	}
	if w.Engine == engTree {
		m["shardrun.overhead_msgs_per_step"] = float64(traced.Overhead) / tcalls
		for i, lv := range traced.Levels {
			m[fmt.Sprintf("shardrun.level_frames_per_step.l%d", i)] = float64(lv) / tcalls
		}
	}
	// What tracing cost: the same calls, traced against untraced.
	if plain.InCallS > 0 {
		m["topk.trace_overhead_pct"] = 100 * (traced.InCallS/plain.InCallS - 1)
	}

	// The interposers must not have changed the program: every exact
	// counter of the traced run equals the untraced run's.
	if !w.Async {
		got, want := traced.Delta, plain.Delta
		check := func(name string, g, w int64) {
			if g != w {
				tw.broken = append(tw.broken, fmt.Sprintf("%s: traced run disagrees with the untraced run after %d calls: %s %d vs %d", traced.Spec.Name, calls, name, g, w))
			}
		}
		check("msgs", got.Msgs, want.Msgs)
		check("model bytes", got.ModelBytes, want.ModelBytes)
		check("link bytes", got.LinkBytes, want.LinkBytes)
		check("link frames", got.LinkFrames, want.LinkFrames)
		if len(tw.frames) > 0 {
			var seen float64
			for _, f := range tw.frames {
				seen += f
			}
			check("frames seen by the interposed links", int64(seen), want.LinkFrames)
		}
	}

	if err := isolated(w, seed, calls, m); err != nil {
		return nil, err
	}
	// Off-path layers read 0.
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[name] = 0
		}
	}
	return tw, nil
}
