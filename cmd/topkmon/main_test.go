package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/order"
)

// TestCheckDomain pins the command's boundary check: the extreme values
// the engines accept pass, one past them is named by row and node with the
// accepted range, and a -trace file is checked on load.
func TestCheckDomain(t *testing.T) {
	limit := order.MaxValueFor(3, false)
	if err := checkDomain([][]int64{{0, limit, -limit}, {1, 2, 3}}); err != nil {
		t.Fatalf("in-domain matrix rejected: %v", err)
	}
	for _, bad := range []int64{limit + 1, -limit - 1, math.MaxInt64, math.MinInt64} {
		err := checkDomain([][]int64{{1, 2, 3}, {4, 5, bad}})
		if err == nil {
			t.Fatalf("value %d accepted", bad)
		}
		for _, want := range []string{"row 1, node 2", "for 3 nodes"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
	}

	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, []byte("1,2,3\n4,9223372036854775807,6\n7,8,9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadMatrix(path, "", 0, 10, 1); err == nil || !strings.Contains(err.Error(), "row 1, node 1") {
		t.Fatalf("out-of-domain trace loaded: %v", err)
	}
	// Rows past -steps are never fed to an engine and are not judged.
	if rows, err := loadMatrix(path, "", 0, 1, 1); err != nil || len(rows) != 1 {
		t.Fatalf("in-domain prefix: %d rows, %v", len(rows), err)
	}
}
