package bench

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestProtocolTablesReproduceParent holds E1–E3 at quick scale to the
// tables recorded before their executions moved onto Scratch.Maximum and
// cmd/maxproto's baselines became E3 columns, re-drawn once under the word
// coin (testdata/protocol_quick.golden):
// E1 and E2 byte for byte; E3 with its two new columns projected away, and
// exactly those two added to every row.
func TestProtocolTablesReproduceParent(t *testing.T) {
	raw, err := os.ReadFile("testdata/protocol_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var body strings.Builder
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if !strings.HasPrefix(line, "#") {
			body.WriteString(line)
		}
	}
	want := strings.Split(strings.TrimSuffix(body.String(), "\n"), "\n\n")
	if len(want) != 3 {
		t.Fatalf("golden holds %d tables, want 3", len(want))
	}
	e3 := E3SequentialMaxima(Quick())
	recorded := e3
	recorded.Columns, recorded.Rows = e3.Columns[:5], nil
	for _, row := range e3.Rows {
		if len(row) != 7 {
			t.Fatalf("E3 row %v has %d cells, want the 5 recorded plus 2", row, len(row))
		}
		recorded.Rows = append(recorded.Rows, row[:5])
	}
	for i, tbl := range []Table{E1MaxProtocolMessages(Quick()), E2MaxProtocolTail(Quick()), recorded} {
		if got := tbl.Render(); got != want[i]+"\n" {
			t.Errorf("%s left the recorded table:\n%s\nrecorded:\n%s", tbl.ID, got, want[i])
		}
	}
}

// TestE3BaselinesPayLinear pins the comparison E3 makes on its own
// instances: gather-all pays one Up a node, the domain search at least the
// half of the nodes above its first threshold, and the sampled protocol far
// less than either.
func TestE3BaselinesPayLinear(t *testing.T) {
	tbl := E3SequentialMaxima(Quick())
	col := func(name string) int {
		i := slices.Index(tbl.Columns, name)
		if i < 0 {
			t.Fatalf("E3 has no column %q: %v", name, tbl.Columns)
		}
		return i
	}
	nCol, sampledCol, gatherCol, searchCol := col("n"), col("sampled-protocol mean"), col("gather-all up"), col("domain-search msgs")
	for _, row := range tbl.Rows {
		n, sampled := parseFloat(t, row[nCol]), parseFloat(t, row[sampledCol])
		gather, search := parseFloat(t, row[gatherCol]), parseFloat(t, row[searchCol])
		if gather != n || search < n/2 || sampled >= gather || sampled >= search {
			t.Errorf("n=%v: gather-all %v (want n), domain search %v (want >= n/2), sampled %v (want below both)", n, gather, search, sampled)
		}
	}
}
