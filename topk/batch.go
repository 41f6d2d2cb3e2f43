package topk

import "fmt"

// BatchResult summarizes a RunTrace execution.
type BatchResult struct {
	// Tops[t] is the top-k report after step t, ascending ids.
	Tops [][]int
	// Counts is the total communication of the run.
	Counts Counts
	// TopChanges counts steps whose report differed from the previous one.
	TopChanges int
}

// RunTrace feeds a recorded observation matrix (rows are time steps,
// columns are nodes) through a fresh monitor built from cfg and returns
// all reports plus the communication bill. It is the batch convenience
// for backtesting a configuration against historical data.
func RunTrace(cfg Config, matrix [][]int64) (BatchResult, error) {
	if len(matrix) == 0 {
		return BatchResult{}, fmt.Errorf("topk: empty trace")
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = len(matrix[0])
	}
	mon, err := New(cfg)
	if err != nil {
		return BatchResult{}, err
	}
	defer mon.Close()
	res := BatchResult{Tops: make([][]int, 0, len(matrix))}
	var prev []int
	for t, row := range matrix {
		top, err := mon.Observe(row)
		if err != nil {
			return BatchResult{}, fmt.Errorf("topk: step %d: %w", t, err)
		}
		if prev != nil && !equalIDs(prev, top) {
			res.TopChanges++
		}
		// Observe returns a view into monitor state; retain a copy.
		res.Tops = append(res.Tops, append([]int(nil), top...))
		prev = res.Tops[len(res.Tops)-1]
	}
	res.Counts = mon.Counts()
	return res, nil
}

func equalIDs(a, b []int) bool {
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
