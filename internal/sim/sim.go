// Package sim drives any online top-k monitoring algorithm over a
// workload, collecting message metrics, verifying exactness against a
// locally computed oracle every step, and optionally computing the offline
// OPT segmentation for competitive-ratio reporting. It is the substrate
// every experiment and benchmark in the repository runs on.
package sim

import (
	"fmt"
	"sort"

	"repro/internal/baseline"
	"repro/internal/comm"
	"repro/internal/order"
	"repro/internal/stream"
)

// Algorithm is the common shape of all online monitors in this repository:
// core.Monitor and every baseline satisfy it structurally.
type Algorithm interface {
	// Observe consumes one step of observations and returns the reported
	// top-k node ids in ascending order.
	Observe(vals []int64) []int
	// Counts returns the total messages charged so far.
	Counts() comm.Counts
}

// Config parameterizes a run.
type Config struct {
	// Steps is the number of observation steps to simulate (> 0).
	Steps int
	// K is the top-set size used by the oracle and OPT (must match the
	// algorithm's configuration).
	K int
	// CheckEvery verifies the report against the oracle every so many
	// steps; 1 checks always, 0 disables checking (for pure benchmarks).
	CheckEvery int
	// Epsilon is the tolerance the algorithm under test runs with. At 0
	// (the default) every checked report must equal the exact oracle; for
	// a positive tolerance the check instead requires each report to be a
	// valid ε-approximation of the true top-k (EpsValid).
	Epsilon float64
	// ComputeOpt additionally records the full observation matrix and
	// computes the offline OPT segmentation for the competitive ratio.
	ComputeOpt bool
	// RecordSeries retains the cumulative message count after every step
	// (for message-over-time figures).
	RecordSeries bool
}

// ByteCounter is implemented by algorithms whose ledger also tracks the
// encoded size of the charged messages (all three Algorithm 1 engines).
type ByteCounter interface {
	Bytes() comm.Bytes
}

// Report summarizes one run.
type Report struct {
	Steps      int
	K          int
	Messages   comm.Counts
	Bytes      comm.Bytes // encoded message volume; zero for count-only algorithms
	Errors     int        // oracle mismatches observed (always 0 for correct algorithms)
	TopChanges int        // steps where the reported set differed from the previous step

	// MsgsPerStep is Messages.Total() / Steps.
	MsgsPerStep float64

	// OptSegments and CompetitiveRatio are filled when Config.ComputeOpt
	// is set: the ratio is Messages.Total() / max(1, OptSegments), i.e.
	// online messages per OPT filter update — the quantity Theorem 3.3
	// bounds by O((log ∆ + k)·M(n)).
	OptSegments      int
	CompetitiveRatio float64

	// Series holds the cumulative total message count after each step when
	// Config.RecordSeries is set.
	Series []int64
}

// Run simulates the algorithm over src for cfg.Steps steps.
func Run(alg Algorithm, src stream.Source, cfg Config) Report {
	n := src.N()
	vals := make([]int64, n)
	rep := runLoop(n, cfg, alg.Counts, func() ([]int, []int64) {
		src.Step(vals)
		return alg.Observe(vals), vals
	})
	if bc, ok := alg.(ByteCounter); ok {
		rep.Bytes = bc.Bytes()
	}
	return rep
}

// DeltaAlgorithm is an online monitor with a sparse ingestion path:
// core.Monitor — on either in-process host — satisfies it structurally.
type DeltaAlgorithm interface {
	// ObserveDelta consumes one step in which only the listed nodes
	// (strictly increasing ids) changed and returns the reported top-k
	// node ids in ascending order.
	ObserveDelta(ids []int, vals []int64) []int
	// Counts returns the total messages charged so far.
	Counts() comm.Counts
}

// RunDelta simulates a sparse-ingestion algorithm over a delta-emitting
// source for cfg.Steps steps. It maintains the dense observation vector on
// the side (nodes start at value 0, matching the monitors' convention) and
// verifies the sparse path's reports against the same oracle Run uses on
// the dense state — the end-to-end check that sparse and dense ingestion
// report identically.
func RunDelta(alg DeltaAlgorithm, src stream.DeltaSource, cfg Config) Report {
	n := src.N()
	ids := make([]int, n)
	vals := make([]int64, n)
	dense := make([]int64, n)
	rep := runLoop(n, cfg, alg.Counts, func() ([]int, []int64) {
		c := src.StepDelta(ids, vals)
		for j := 0; j < c; j++ {
			dense[ids[j]] = vals[j]
		}
		return alg.ObserveDelta(ids[:c], vals[:c]), dense
	})
	if bc, ok := alg.(ByteCounter); ok {
		rep.Bytes = bc.Bytes()
	}
	return rep
}

// runLoop is the shared per-step and report-finalization bookkeeping of
// Run and RunDelta. step advances the workload and the algorithm by one
// time step, returning the report and the dense observation vector the
// oracle and OPT should see (the vector may be reused across steps).
func runLoop(n int, cfg Config, counts func() comm.Counts, step func() ([]int, []int64)) Report {
	if cfg.Steps <= 0 {
		panic("sim: need Steps > 0")
	}
	if cfg.K < 1 || cfg.K > n {
		panic("sim: need 1 <= K <= N")
	}
	rep := Report{Steps: cfg.Steps, K: cfg.K}
	var matrix [][]int64
	if cfg.ComputeOpt {
		matrix = make([][]int64, 0, cfg.Steps)
	}
	var prevTop []int
	tol, err := order.NewTol(cfg.Epsilon)
	if err != nil {
		panic("sim: " + err.Error())
	}
	for s := 0; s < cfg.Steps; s++ {
		top, dense := step()
		if cfg.CheckEvery > 0 && s%cfg.CheckEvery == 0 {
			if !tol.Zero() {
				if !epsValid(dense, top, cfg.K, tol) {
					rep.Errors++
				}
			} else if want := Oracle(dense, cfg.K); !equalInts(top, want) {
				rep.Errors++
			}
		}
		// Copy the report: engines may return a view into internal state
		// that the next step overwrites.
		if prevTop != nil && !equalInts(prevTop, top) {
			rep.TopChanges++
		}
		prevTop = append(prevTop[:0], top...)
		if cfg.ComputeOpt {
			row := make([]int64, n)
			copy(row, dense)
			matrix = append(matrix, row)
		}
		if cfg.RecordSeries {
			rep.Series = append(rep.Series, counts().Total())
		}
	}
	rep.Messages = counts()
	rep.MsgsPerStep = float64(rep.Messages.Total()) / float64(cfg.Steps)
	if cfg.ComputeOpt {
		opt := baseline.OptFromValues(matrix, cfg.K)
		rep.OptSegments = opt.Segments
		denom := opt.Segments
		if denom < 1 {
			denom = 1
		}
		rep.CompetitiveRatio = float64(rep.Messages.Total()) / float64(denom)
	}
	return rep
}

// Oracle computes the exact top-k ids (ascending) for one observation
// vector under the shared tie-break injection (equal values: smaller id
// wins), which is the ranking every algorithm in the repository uses.
func Oracle(vals []int64, k int) []int {
	top := RankOracle(vals, k)
	sort.Ints(top)
	return top
}

// RankOracle computes the exact top-k ids by rank, largest value first,
// under the same tie-break: what a monitor in the ordered mode reports.
func RankOracle(vals []int64, k int) []int {
	codec := order.NewCodec(len(vals))
	keys := make([]order.Key, len(vals))
	for i, v := range vals {
		keys[i] = codec.Encode(v, i)
	}
	ids := make([]int, len(vals))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return keys[ids[a]] > keys[ids[b]] })
	return append([]int(nil), ids[:k]...)
}

// EpsValid reports whether top is a valid ε-approximate top-k report for
// the observation vector vals under the shared tie-break injection: top
// must hold k distinct ascending in-range ids, and some threshold's
// (1±ε) band must cover both the smallest reported key and the largest
// unreported key (order.Tol.Separated — the band generalization of the
// filter separation lemma). At ε = 0 this is exactly "top equals the
// oracle", since the injected keys are pairwise distinct.
func EpsValid(vals []int64, top []int, k int, eps float64) bool {
	tol, err := order.NewTol(eps)
	if err != nil {
		panic("sim: " + err.Error())
	}
	return epsValid(vals, top, k, tol)
}

func epsValid(vals []int64, top []int, k int, tol order.Tol) bool {
	if len(top) != k || k < 1 || k > len(vals) {
		return false
	}
	codec := order.NewCodec(len(vals))
	inTop := make([]bool, len(vals))
	prev := -1
	for _, id := range top {
		if id <= prev || id >= len(vals) {
			return false // not strictly ascending in range, or duplicate
		}
		inTop[id] = true
		prev = id
	}
	minTop, maxOut := order.PosInf, order.NegInf
	for i, v := range vals {
		key := codec.Encode(v, i)
		if inTop[i] {
			minTop = order.Min(minTop, key)
		} else {
			maxOut = order.Max(maxOut, key)
		}
	}
	if maxOut == order.NegInf {
		return true // k == n: nothing is excluded
	}
	return tol.Separated(minTop, maxOut)
}

// MeasureDelta computes the paper's ∆ for a recorded workload: the maximum
// over time of the gap between the k-th and (k+1)-st largest keys
// (0 when k == n). Experiment E4 reports it next to the measured ratios.
func MeasureDelta(matrix [][]int64, k int) int64 {
	if len(matrix) == 0 {
		panic("sim: MeasureDelta on empty matrix")
	}
	n := len(matrix[0])
	if k < 1 || k > n {
		panic("sim: MeasureDelta needs 1 <= k <= n")
	}
	if k == n {
		return 0
	}
	codec := order.NewCodec(n)
	var maxGap int64
	keys := make([]order.Key, n)
	for _, row := range matrix {
		for i, v := range row {
			keys[i] = codec.Encode(v, i)
		}
		sorted := append([]order.Key(nil), keys...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] > sorted[b] })
		gap := int64(sorted[k-1] - sorted[k])
		if gap > maxGap {
			maxGap = gap
		}
	}
	return maxGap
}

// Describe renders a one-line summary of a report for logs and CLIs.
func Describe(name string, r Report) string {
	s := fmt.Sprintf("%-14s steps=%d msgs=%d (%.2f/step) up=%d down=%d bcast=%d changes=%d errors=%d",
		name, r.Steps, r.Messages.Total(), r.MsgsPerStep, r.Messages.Up, r.Messages.Down, r.Messages.Bcast, r.TopChanges, r.Errors)
	if b := r.Bytes.Total(); b > 0 {
		s += fmt.Sprintf(" bytes=%d (%.1f/step)", b, float64(b)/float64(r.Steps))
	}
	if r.OptSegments > 0 {
		s += fmt.Sprintf(" opt=%d ratio=%.1f", r.OptSegments, r.CompetitiveRatio)
	}
	return s
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
