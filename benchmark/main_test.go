package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	// The isolated drives time each operation for tens of milliseconds in
	// a real run; the tests only need them to run.
	opTarget = 20 * time.Microsecond
	driveBudget = 5 * time.Millisecond
	setupsFor = 0
	os.Exit(m.Run())
}

// small shrinks a workload to test size, keeping its shape.
func small(w spec) spec {
	if w.N > 4096 {
		w.N = 4096
		w.Changed = min(w.Changed, 128)
	}
	return w
}

func smallWorkloads() []spec {
	var out []spec
	for _, w := range workloads {
		out = append(out, small(w))
	}
	return out
}

// quiet silences the harness's progress output for the duration of fn.
func quiet(t *testing.T, fn func() error) error {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()
	return fn()
}

func testManifest(t *testing.T) manifest {
	t.Helper()
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// TestFullRunEveryWorkload runs every workload at a hundredth of its
// length, both halves, and reads the result file back.
func TestFullRunEveryWorkload(t *testing.T) {
	man := testManifest(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	spans := filepath.Join(dir, "spans.jsonl")
	o := options{seed: 1, seconds: 0.01 * sizedSeconds, trace: -1, out: out, spans: spans}
	if err := quiet(t, func() error { return measure(man, smallWorkloads(), o) }); err != nil {
		t.Fatal(err)
	}
	rf, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Workloads) != len(workloads) {
		t.Fatalf("result has %d workloads, want %d", len(rf.Workloads), len(workloads))
	}
	if rf.Header.NProc < 1 || rf.Header.GoVersion == "" || rf.Header.Seed != 1 || rf.Header.Seconds != o.seconds {
		t.Errorf("incomplete header: %+v", rf.Header)
	}
	for _, wr := range rf.Workloads {
		for _, d := range endToEnd {
			if _, ok := wr.E2E[d.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s missing", wr.Name, d.Name)
			}
		}
		if len(wr.E2E) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", wr.Name, len(wr.E2E), len(endToEnd))
		}
		for _, d := range man.EndToEnd {
			if v := wr.E2E[d.Name].Value; v == nil || *v <= 0 {
				t.Errorf("%s: gated metric %s has no value", wr.Name, d.Name)
			}
		}
		if n := wr.E2E["setup_s"].Samples; n < minSetups {
			t.Errorf("%s: setup_s is the median of %d set-ups", wr.Name, n)
		}
		for _, d := range perLayer {
			if _, ok := wr.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wr.Name, d.Name)
			}
		}
		if wr.Failed != 0 || wr.Checked == 0 || wr.TracedCalls == 0 {
			t.Errorf("%s: failed=%d checked=%d traced=%d", wr.Name, wr.Failed, wr.Checked, wr.TracedCalls)
		}
		if wr.Budget == nil || len(wr.Budget.Rows) == 0 {
			t.Errorf("%s: no budget table", wr.Name)
		}
		data, err := os.ReadFile(spans + "." + wr.Name)
		if err != nil {
			t.Errorf("%s: %v", wr.Name, err)
			continue
		}
		var line struct {
			Name string `json:"name"`
			End  int64  `json:"end"`
		}
		first, _, _ := bytes.Cut(data, []byte("\n"))
		if err := json.Unmarshal(first, &line); err != nil || line.Name != "topk.observe" || line.End <= 0 {
			t.Errorf("%s: first span %q (%v)", wr.Name, first, err)
		}
	}
	// A result compared with itself is all "same".
	var buf bytes.Buffer
	if compare(&buf, man, rf, rf) {
		t.Errorf("a result regressed against itself:\n%s", buf.String())
	}
	if rows := strings.Count(buf.String(), "\n"); rows != 1+len(workloads)*len(endToEnd) {
		t.Errorf("compare printed %d lines", rows)
	}
}

// TestContractRun drives the form BENCHMARK.json names, both ways.
func TestContractRun(t *testing.T) {
	man := testManifest(t)
	for trace, defs := range [][]metricDef{man.EndToEnd, man.PerLayer} {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		old := os.Stdout
		os.Stdout = w
		runErr := measure(man, workloads, options{workload: "tcp-dense-churn", seed: 3, seconds: 0.15, trace: trace})
		os.Stdout = old
		w.Close()
		data, _ := io.ReadAll(r)
		if runErr != nil {
			t.Fatalf("trace %d: %v", trace, runErr)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var line contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %d: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("trace %d: %+v", trace, line)
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %d: metric %s: %+v present=%v", trace, d.Name, m, ok)
			}
		}
	}
}

// TestSameDecisionsOnTree pins the determinism the tree workload rests
// on: on one seed the tree classifies every step as the sequential
// engine does, and a traced run repeats an untraced run's exact counts.
func TestSameDecisionsOnTree(t *testing.T) {
	seq, _ := findWorkload(workloads, "seq-dense-mixed")
	tree, _ := findWorkload(workloads, "tree-dense-mixed")
	a, err := run(seq, runOpts{seed: 5, calls: 150})
	if err != nil {
		t.Fatal(err)
	}
	tw, err := traceWorkload(tree, 5, 150, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Class, tw.plain.Class) || !slices.Equal(a.Class, tw.traced.Class) {
		t.Error("seq-dense-mixed and tree-dense-mixed classify the same trace differently")
	}
	if a.Delta.Resets == 0 || a.Delta.Viol == a.Delta.Resets {
		t.Errorf("trace is not mixed: %+v", a.Delta)
	}
	if len(tw.broken) != 0 {
		t.Errorf("traced tree disagrees with Config.Tree: %v", tw.broken)
	}
}

// TestWrappedLinkCountsMatchBare runs 200 reset-heavy steps over bare
// loopback links and over interposed ones: the wrappers must not change
// a single frame or byte.
func TestWrappedLinkCountsMatchBare(t *testing.T) {
	w, _ := findWorkload(workloads, "tcp-dense-churn")
	w.Engine = engPipe
	bare, err := run(w, runOpts{seed: 2, calls: 200})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	wrapped, err := run(w, runOpts{seed: 2, calls: 200, tr: tr})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Delta != wrapped.Delta {
		t.Errorf("counters differ:\nbare    %+v\nwrapped %+v", bare.Delta, wrapped.Delta)
	}
	if bare.Delta.Resets < 150 {
		t.Errorf("only %d of 200 steps reset", bare.Delta.Resets)
	}
	var seen float64
	for _, f := range tr.coordFramesPerCall(wrapped.Calls) {
		seen += f
	}
	if int64(seen) != bare.Delta.LinkFrames {
		t.Errorf("interposed links saw %v frames, bare links carried %d", seen, bare.Delta.LinkFrames)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestNamesAndManifest checks the names against the contract's limits
// and BENCHMARK.json against what the harness emits.
func TestNamesAndManifest(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || len(n) > 64 {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, d := range endToEnd {
		name(d.Name)
	}
	for _, d := range perLayer {
		name(d.Name)
	}
	if len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer)+len(endToEnd) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer names", len(workloads), len(endToEnd), len(perLayer))
	}

	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&man); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(man.Command, []string{"go", "run", "./benchmark"}) || !slices.Equal(man.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", man.Command, man.Paths)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d", man.RunSeconds)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, harness has %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.Name || man.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %+v, harness %q / %q", i, man.Workloads[i], w.Name, w.Why)
		}
	}
	// The manifest bounds some of the eleven end-to-end metrics, set-up
	// time among them, and lists the rest after the per-layer metrics.
	gated := map[string]bool{}
	for _, d := range man.EndToEnd {
		gated[d.Name] = true
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		d.Bound = 0
		if !slices.Contains(endToEnd, d) || d.Exact {
			t.Errorf("end_to_end lists %+v, which is not a boundable end-to-end metric of the harness", d)
		}
	}
	if !gated["setup_s"] {
		t.Error("end_to_end must bound setup_s")
	}
	want := slices.Clone(perLayer)
	for _, d := range endToEnd {
		if !gated[d.Name] {
			d.Exact = false
			want = append(want, d)
		}
	}
	if !slices.Equal(man.PerLayer, want) {
		t.Errorf("per_layer differs from the harness tables (manifest %d, harness %d entries)", len(man.PerLayer), len(want))
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []int64{50, 10, 40, 20, 30}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 30}, {0.2, 10}, {0.21, 20}, {0.99, 50}, {1, 50}} {
		if got := percentile(slices.Clone(xs), c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing must be 0")
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestBlockRates(t *testing.T) {
	// Ten entries of two calls each: blocks of 2 entries = 4 calls.
	durs := []int64{1e9, 1e9, 2e9, 2e9, 4e9, 4e9, 1e9, 3e9, 5e8, 5e8}
	got := blockRates(durs, 2)
	want := []float64{2, 1, 0.5, 1, 4}
	if !slices.Equal(got, want) {
		t.Errorf("blockRates = %v, want %v", got, want)
	}
	if m := median(got); m != 1 {
		t.Errorf("median block = %v", m)
	}
	if got := blockRates([]int64{1e9, 1e9}, 1); !slices.Equal(got, []float64{1}) {
		t.Errorf("short region = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	kids := []interval{{90, 110}, {105, 120}, {150, 160}, {190, 250}, {300, 400}}
	if got := unionLen(slices.Clone(kids), parent.lo, parent.hi); got != 40 {
		t.Errorf("union = %d, want 40", got)
	}
	if got := selfTime(parent, kids); got != 60 {
		t.Errorf("self = %d, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self without children = %d", got)
	}
}

func TestInFlightAndBusy(t *testing.T) {
	e := endSpans{
		sends: []span{{start: 10, end: 12}, {start: 14, end: 15}, {start: 50, end: 51}},
		rcv:   []span{{start: 0, end: 30}, {start: 31, end: 40}, {start: 41, end: 70}},
	}
	want := []interval{{10, 40}, {50, 70}}
	if got := e.inFlight(); !slices.Equal(got, want) {
		t.Errorf("inFlight = %v, want %v", got, want)
	}
	if got := e.busy(); !slices.Equal(got, []interval{{30, 31}, {40, 41}}) {
		t.Errorf("busy = %v", got)
	}
	roots := []span{{start: 0, end: 45}, {start: 60, end: 100}}
	if got := coveredPerCall(roots, e.inFlight()); got != 30+10 {
		t.Errorf("covered = %d, want 40", got)
	}
}

func TestWindowFeederPingPong(t *testing.T) {
	w, _ := findWorkload(workloads, "seq-sparse-quiet")
	w.N, w.Changed = 512, 16
	f := w.newFeeder(3).(*windowFeeder)
	ids, vals := f.next()
	if len(ids) != w.N || len(vals) != w.N {
		t.Fatalf("first step carries %d nodes", len(ids))
	}
	start := slices.Clone(f.cur())
	steps := len(f.off) - 1
	var far []int64
	for i := 0; i < 2*steps; i++ {
		ids, _ := f.next()
		if !slices.IsSorted(ids) {
			t.Fatal("delta ids not ascending")
		}
		if i == steps-1 {
			far = slices.Clone(f.cur())
		}
	}
	if !slices.Equal(f.cur(), start) {
		t.Error("a full ping-pong does not return to the start")
	}
	if slices.Equal(far, start) {
		t.Error("the window never moved")
	}
}

func TestJudge(t *testing.T) {
	f := func(x float64) *float64 { return &x }
	rate := compareRule{metricDef: metricDef{Name: "steps_per_s", Better: higher, Bound: 0.10}, Gated: true}
	lat := compareRule{metricDef: metricDef{Name: "quiet_p50_us", Better: lower, Bound: 0.10}, Gated: true}
	exact := compareRule{metricDef: metricDef{Name: "msgs_per_step", Better: lower, Exact: true}}
	diag := compareRule{metricDef: metricDef{Name: "allocs_per_step", Better: lower}}
	tight := []float64{99, 100, 101}
	for _, c := range []struct {
		name     string
		r        compareRule
		old, new *float64
		ob, nb   []float64
		want     string
	}{
		{"within bound", rate, f(100), f(95), tight, tight, verdictSame},
		{"slower", rate, f(100), f(80), tight, []float64{79, 80, 81}, verdictWorse},
		{"faster", rate, f(100), f(120), tight, []float64{119, 120, 121}, verdictBetter},
		{"noisy blocks", rate, f(100), f(80), []float64{70, 100, 130}, []float64{60, 80, 110}, verdictUnresolved},
		{"noisy but separated", rate, f(100), f(50), []float64{80, 100, 130}, []float64{40, 50, 60}, verdictWorse},
		{"latency up", lat, f(10), f(12), nil, nil, verdictWorse},
		{"latency down", lat, f(10), f(8), nil, nil, verdictBetter},
		{"exact differs", exact, f(100), f(100.5), nil, nil, verdictWorse},
		{"exact equal", exact, f(0), f(0), nil, nil, verdictSame},
		{"not judged", diag, f(1), f(9), nil, nil, verdictNA},
		{"both null", lat, nil, nil, nil, nil, verdictNA},
		{"one null", lat, f(1), nil, nil, nil, verdictUnresolved},
	} {
		if got := judge(c.r, c.old, c.new, c.ob, c.nb); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	man := manifest{EndToEnd: []metricDef{{Name: "setup_s", Bound: 0.25}}}
	if r := ruleFor(man, endToEnd[0], false); !r.Gated || r.Bound != 0.25 || r.Exact {
		t.Errorf("setup_s rule %+v", r)
	}
	msgs := endToEnd[5]
	if r := ruleFor(man, msgs, false); r.Gated || !r.Exact {
		t.Errorf("msgs_per_step rule %+v", r)
	}
	if r := ruleFor(man, msgs, true); r.Exact {
		t.Errorf("msgs_per_step is not exact on the asynchronous workload: %+v", r)
	}
}
