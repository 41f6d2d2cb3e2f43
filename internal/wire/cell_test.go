package wire

import "testing"

// TestCellsStayInTheirBytes writes a run of values at the ends of each
// width into the middle of a column whose other entries hold a sentinel,
// through StoreRun, Store and Copy, and reads them back through Load,
// over the run's slice and over the run from its second entry on, so that
// each entry is read both as the first of a slice, which Load reads
// without the byte before it, and as one after it: every value reads back,
// and no entry outside the run changes. The column's own first and last
// entries are read too (run it with -race, whose pointer checks refuse a
// load outside an allocation).
func TestCellsStayInTheirBytes(t *testing.T) {
	holdCells(t, []int64{-1 << 23, 1<<23 - 1, -1, 0, 5})
	holdCells(t, []int64{-1 << 31, 1<<31 - 1, -1, 0, 1 << 23})
	holdCells(t, []int64{-1 << 47, 1<<47 - 1, -1, 0, 1 << 31})
	holdCells(t, []int64{-1 << 63, 1<<63 - 1, -1, 0, 1 << 47})
}

// holdCells is TestCellsStayInTheirBytes over the width vals fit, the
// narrowest whose ends the first two are, in a column of 96 bytes, a size
// class, so that its allocation ends where its last entry does.
func holdCells(t *testing.T, vals []int64) {
	t.Helper()
	switch vals[1] {
	case 1<<23 - 1:
		holdWidth(t, make([]Int24, 32), vals)
	case 1<<31 - 1:
		holdWidth(t, make([]int32, 24), vals)
	case 1<<47 - 1:
		holdWidth(t, make([]Int48, 16), vals)
	default:
		holdWidth(t, make([]int64, 12), vals)
	}
}

func holdWidth[V Value](t *testing.T, c []V, vals []int64) {
	t.Helper()
	const at, sentinel = 2, -0x5a5a5a
	for _, how := range []string{"StoreRun", "Store", "Copy"} {
		for i := range c {
			Store(c, i, sentinel)
		}
		run := c[at : at+len(vals)]
		switch how {
		case "StoreRun":
			if n := StoreRun(run, vals, 1<<63); n != len(vals) {
				t.Fatalf("%T: StoreRun stored %d of %d values", c, n, len(vals))
			}
		case "Store":
			for j, v := range vals {
				Store(run, j, v)
			}
		default:
			Copy(run, vals)
		}
		for k := range 2 {
			for j, v := range vals[k:] {
				if got := Load(run[k:], j); got != v {
					t.Fatalf("%T after %s: entry %d of the run from %d reads %d, want %d", c, how, j, k, got, v)
				}
			}
		}
		for i := range c {
			if i < at || i >= at+len(vals) {
				if got := Load(c, i); got != sentinel {
					t.Fatalf("%T after %s: entry %d outside the run reads %d", c, how, i, got)
				}
			}
		}
	}
}
