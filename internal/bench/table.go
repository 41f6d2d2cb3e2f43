// Package bench is the experiment harness: it regenerates, as numbered
// experiments E1..E19 and E24..E26, the empirical validation of every theorem, lemma and
// comparison claim in the paper (the paper is analytical and has no
// measurement tables of its own; DESIGN.md §4 maps each experiment to the
// claim it validates). cmd/experiments runs the suite at full scale and
// prints the tables recorded in EXPERIMENTS.md; the repository-level
// benchmarks run the same code at reduced scale.
package bench

import (
	"fmt"
	"strings"
)

// Table is one experiment's rendered result.
type Table struct {
	ID      string // experiment id, e.g. "E1"
	Title   string
	Claim   string // the paper's prediction this experiment checks
	Columns []string
	Rows    [][]string
	Notes   []string // fits, verdicts, caveats
}

// AddRow appends one formatted row; the cell count must match Columns.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("bench: row has %d cells, table %s has %d columns", len(cells), t.ID, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Note appends a formatted note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render produces the ASCII form of the table.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// F is shorthand for fmt.Sprintf in row construction.
func F(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// Scale controls experiment sizes so the same code serves the full
// reproduction (cmd/experiments) and fast unit tests / benchmarks.
type Scale struct {
	// ProtoTrials is the repetition count for protocol experiments (E1-E3).
	ProtoTrials int
	// Trials is the seed count per monitoring configuration (E4-E12).
	Trials int
	// Steps is the horizon of monitoring runs that do not derive their own
	// length from the workload.
	Steps int
	// ProtoMaxExp bounds protocol population sweeps at n = 2^ProtoMaxExp.
	ProtoMaxExp int
	// MonMaxExp bounds monitor node-count sweeps at n = 2^MonMaxExp.
	MonMaxExp int
	// ResetMaxExp bounds the reset sweep (E24) and the coin comparison
	// (E26) at n = 2^ResetMaxExp.
	ResetMaxExp int
	// CkptMaxExp is the larger node count of the checkpoint sweep (E25),
	// n = 2^CkptMaxExp; the smaller is 2^14 where that is less.
	CkptMaxExp int
}

// Full is the scale used to produce EXPERIMENTS.md.
func Full() Scale {
	return Scale{ProtoTrials: 300, Trials: 5, Steps: 2000, ProtoMaxExp: 14, MonMaxExp: 11, ResetMaxExp: 20, CkptMaxExp: 18}
}

// Quick keeps the whole suite fast enough for unit tests and benchmarks.
func Quick() Scale {
	return Scale{ProtoTrials: 40, Trials: 2, Steps: 200, ProtoMaxExp: 8, MonMaxExp: 6, ResetMaxExp: 8, CkptMaxExp: 10}
}

// Experiment pairs an id with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Scale) Table
}

// All lists every experiment in id order.
func All() []Experiment {
	return []Experiment{
		{"E1", "MAXIMUMPROTOCOL expected messages (Thm 4.2)", E1MaxProtocolMessages},
		{"E2", "MAXIMUMPROTOCOL concentration (Thm 4.2, whp)", E2MaxProtocolTail},
		{"E3", "Sequential-probe lower-bound instrument (Thm 4.3)", E3SequentialMaxima},
		{"E4", "Competitive ratio vs log ∆ (Thm 3.3)", E4RatioVsDelta},
		{"E5", "Competitive ratio vs k (Thm 3.3)", E5RatioVsK},
		{"E6", "Competitive ratio vs n (Thm 4.4)", E6RatioVsN},
		{"E7", "Similar inputs: filters vs baselines (§2.1)", E7SimilarInputs},
		{"E8", "Adversarial inputs: worst-case behaviour (§2.1)", E8Adversarial},
		{"E9", "Las Vegas exactness and engine equivalence", E9Correctness},
		{"E10", "Order-of-magnitude saving vs naive (Babcock-Olston)", E10ZipfBursty},
		{"E11", "Message breakdown by algorithm phase", E11PhaseBreakdown},
		{"E12", "Ablations: wide filters, sampled protocol, top-k focus", E12Ablations},
		{"E13", "Ordered top-k monitoring (§5 future work, implemented)", E13OrderedMonitoring},
		{"E14", "Cumulative messages over time (figure)", E14SeriesOverTime},
		{"E15", "Sensitivity to the OPT cost model", E15OptSensitivity},
		{"E16", "Per-node reporting load balance", E16LoadBalance},
		{"E17", "Bit volume vs message count", E17BitVolume},
		// E18 (shard coordination overhead) lives in the repo-root
		// bench_test.go: its subject is the engine substrate, not a paper
		// claim; see EXPERIMENTS.md.
		{"E19", "ε-approximate monitoring: communication vs tolerance", E19ApproxComm},
		// E20-E23 (step latency, async ingestion, tree fan-in, checkpoints)
		// are repo-root benchmarks too.
		{"E24", "FILTERRESET: one top-(k+1) sweep vs k+1 executions", E24ResetSweep},
		{"E25", "Checkpoints that cost what changed: base frame plus value deltas", E25CheckpointChain},
		{"E26", "A node's coin as a function: per-node generators vs the keyed coin", E26KeyedCoin},
	}
}

// ByID returns the experiment with the given id, or false.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
