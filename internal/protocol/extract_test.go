package protocol

import (
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/order"
)

// gatherExtract is TopExtract with every application run as GatherAll: the
// gather-all ablation of a reset's extractions.
func gatherExtract(parts []Participant, count int, rec comm.Recorder) []Result {
	remaining := slices.Clone(parts)
	var out []Result
	for len(out) < count && len(remaining) > 0 {
		res := GatherAll(remaining, rec, nil, 0)
		out = append(out, res)
		i := slices.IndexFunc(remaining, func(p Participant) bool { return p.ID == res.ID })
		remaining = slices.Delete(remaining, i, i+1)
	}
	return out
}

func TestTopExtractWithGatherMatchesSampled(t *testing.T) {
	// Both extraction strategies must produce the same ranking; only the
	// message bill differs.
	parts := makeParts(15, 0, 22)
	sampled := TopExtract(parts, 6, 15, comm.Discard, nil, 0)

	var gc comm.Counter
	gathered := gatherExtract(makeParts(15, 0, 22), 6, &gc)
	if len(sampled) != len(gathered) {
		t.Fatalf("lengths differ: %d vs %d", len(sampled), len(gathered))
	}
	for i := range sampled {
		if sampled[i].ID != gathered[i].ID || sampled[i].Key != gathered[i].Key {
			t.Fatalf("rank %d differs: %+v vs %+v", i, sampled[i], gathered[i])
		}
	}
	// Gather extraction sends every remaining participant each time:
	// 15 + 14 + 13 + 12 + 11 + 10 = 75 up messages.
	if gc.Get(comm.Up) != 75 {
		t.Fatalf("gather extraction up messages: %d", gc.Get(comm.Up))
	}
}

func TestTopExtractWithStopsWhenExhausted(t *testing.T) {
	if res := TopExtract(makeParts(3, 0, 23), 10, 3, comm.Discard, nil, 0); len(res) != 3 {
		t.Fatalf("sampled extraction: %d, want 3", len(res))
	}
	if res := gatherExtract(makeParts(3, 0, 23), 10, comm.Discard); len(res) != 3 {
		t.Fatalf("gather extraction: %d, want 3", len(res))
	}
}

func TestMinimumWithLooseBound(t *testing.T) {
	parts := makeParts(9, -50, 24)
	var c comm.Counter
	res := fieldMinimum(parts, 64, &c)
	if want := trueMin(parts); res.ID != want.ID {
		t.Fatalf("minimum with loose bound wrong: %+v", res)
	}
	if c.Get(comm.Bcast) != int64(Rounds(64)) {
		t.Fatalf("broadcast rounds should follow the bound: %v", c.Snapshot())
	}
}

func TestMinimumSentinelKeys(t *testing.T) {
	// Keys far into the negative range must survive the negation trick.
	parts := []Participant{{ID: 0, Key: order.Key(-1 << 40)}, {ID: 1, Key: order.Key(-1 << 50)}}
	res := fieldMinimum(parts, 2, comm.Discard)
	if res.ID != 1 {
		t.Fatalf("extreme negative minimum wrong: %+v", res)
	}
}
