package stream

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// TraceSource replays a recorded observation matrix, indexed [t][node].
// When the trace is exhausted the final row repeats forever (a stalled
// sensor fleet), so monitors never observe a shrinking universe.
type TraceSource struct {
	rows [][]int64
	t    int
}

// NewTraceSource wraps a matrix as a Source. All rows must have equal,
// positive width and the matrix must be non-empty.
func NewTraceSource(rows [][]int64) *TraceSource {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("stream: empty trace")
	}
	n := len(rows[0])
	for i, r := range rows {
		if len(r) != n {
			panic(fmt.Sprintf("stream: trace row %d has %d columns, want %d", i, len(r), n))
		}
	}
	return &TraceSource{rows: rows}
}

// N implements Source.
func (ts *TraceSource) N() int { return len(ts.rows[0]) }

// Len returns the number of recorded steps.
func (ts *TraceSource) Len() int { return len(ts.rows) }

// Step implements Source.
func (ts *TraceSource) Step(vals []int64) {
	checkLen(ts.N(), vals)
	idx := ts.t
	if idx >= len(ts.rows) {
		idx = len(ts.rows) - 1
	} else {
		ts.t++
	}
	copy(vals, ts.rows[idx])
}

// WriteCSV serializes a trace matrix as CSV, one time step per row.
func WriteCSV(w io.Writer, rows [][]int64) error {
	cw := csv.NewWriter(w)
	rec := make([]string, 0, 16)
	for _, row := range rows {
		rec = rec[:0]
		for _, v := range row {
			rec = append(rec, strconv.FormatInt(v, 10))
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("stream: writing CSV trace: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("stream: flushing CSV trace: %w", err)
	}
	return nil
}

// ReadCSV parses a trace matrix from CSV produced by WriteCSV.
func ReadCSV(r io.Reader) ([][]int64, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validated below with a clearer error
	var rows [][]int64
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("stream: reading CSV trace: %w", err)
		}
		if len(rows) > 0 && len(rec) != len(rows[0]) {
			return nil, fmt.Errorf("stream: CSV row %d has %d columns, want %d", len(rows), len(rec), len(rows[0]))
		}
		row := make([]int64, len(rec))
		for i, f := range rec {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("stream: CSV row %d column %d: %w", len(rows), i, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("stream: CSV trace is empty")
	}
	return rows, nil
}
