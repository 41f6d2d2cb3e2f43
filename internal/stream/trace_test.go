package stream

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestTraceSourceReplay(t *testing.T) {
	rows := [][]int64{{1, 2}, {3, 4}, {5, 6}}
	ts := NewTraceSource(rows)
	if ts.N() != 2 || ts.Len() != 3 {
		t.Fatalf("dims: N=%d Len=%d", ts.N(), ts.Len())
	}
	vals := make([]int64, 2)
	for i, want := range rows {
		ts.Step(vals)
		if vals[0] != want[0] || vals[1] != want[1] {
			t.Fatalf("step %d: got %v want %v", i, vals, want)
		}
	}
	// Exhausted trace repeats the last row.
	ts.Step(vals)
	if vals[0] != 5 || vals[1] != 6 {
		t.Fatalf("exhausted trace should repeat last row: %v", vals)
	}
}

func TestTraceSourcePanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewTraceSource(nil) },
		func() { NewTraceSource([][]int64{{}}) },
		func() { NewTraceSource([][]int64{{1, 2}, {3}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rows := [][]int64{{1, -2, 3}, {4, 5, -6}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0][1] != -2 || got[1][2] != -6 {
		t.Fatalf("round trip: %v", got)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty CSV should error")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n")); err == nil {
		t.Fatal("ragged CSV should error")
	}
	if _, err := ReadCSV(strings.NewReader("1,abc\n")); err == nil {
		t.Fatal("non-numeric CSV should error")
	}
}

func TestCSVGobEquivalentProperty(t *testing.T) {
	r := rng.New(77, 1)
	check := func(rowsRaw, colsRaw uint8) bool {
		rows := int(rowsRaw%10) + 1
		cols := int(colsRaw%6) + 1
		m := make([][]int64, rows)
		for i := range m {
			m[i] = make([]int64, cols)
			for j := range m[i] {
				m[i][j] = r.Int63() - r.Int63()
			}
		}
		var cbuf bytes.Buffer
		if WriteCSV(&cbuf, m) != nil {
			return false
		}
		fromCSV, err := ReadCSV(&cbuf)
		if err != nil {
			return false
		}
		for i := range m {
			for j := range m[i] {
				if fromCSV[i][j] != m[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectThenReplayMatchesSource(t *testing.T) {
	cfg := WalkConfig{N: 6, Lo: 0, Hi: 1000, MaxStep: 7, Seed: 12}
	recorded := Collect(NewRandomWalk(cfg), 50)
	replay := NewTraceSource(recorded)
	fresh := NewRandomWalk(cfg)
	a, b := make([]int64, 6), make([]int64, 6)
	for s := 0; s < 50; s++ {
		replay.Step(a)
		fresh.Step(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("replay diverged at step %d node %d", s, i)
			}
		}
	}
}
