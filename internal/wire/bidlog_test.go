package wire

import (
	"bytes"
	"errors"
	"testing"
)

// TestBidLogRoundTrip writes a log as a host's rounds produce it and reads
// it back as a replay does: every bid, in its round, in id order, and
// nothing of a round the log has no group for. A group's header goes in
// front of its bids when the group closes, long groups (a count of two
// varint bytes) included, after whatever dst already held.
func TestBidLogRoundTrip(t *testing.T) {
	type bid struct {
		r, id int
		key   int64
	}
	var bids []bid
	for id := 40; id < 240; id++ { // 200 bids: a two-byte count
		bids = append(bids, bid{1, id, int64(id) * -3})
	}
	bids = append([]bid{{0, 17, 1 << 50}}, bids...)
	bids = append(bids, bid{4, 19, -1}, bid{4, 20, 0}, bid{9, 1 << 20, 5})
	var w BidLogWriter
	prefix := []byte("queued")
	w.Begin(prefix, 17)
	for _, b := range bids {
		w.Add(b.r, b.id, b.key)
	}
	frame := w.End()
	if !bytes.HasPrefix(frame, prefix) {
		t.Fatalf("the log overwrote what dst held: %q", frame[:len(prefix)])
	}
	frame = frame[len(prefix):]
	var l BidLog
	if err := l.Open(frame, 17, 1<<20+1, 10); err != nil {
		t.Fatal(err)
	}
	var got []bid
	for r := 0; r < 10; r++ {
		for id, key, ok := l.Next(r); ok; id, key, ok = l.Next(r) {
			got = append(got, bid{r, id, key})
		}
	}
	if len(got) != len(bids) {
		t.Fatalf("read %d bids, wrote %d", len(got), len(bids))
	}
	for i := range got {
		if got[i] != bids[i] {
			t.Fatalf("bid %d read as %+v, written as %+v", i, got[i], bids[i])
		}
	}
	var empty BidLogWriter
	empty.Begin(nil, 0)
	if f := empty.End(); !bytes.Equal(f, []byte{TypeBidLog}) {
		t.Fatalf("a log of no bids is %x, want the type byte alone", f)
	}
}

// TestBidLogOpenRejects pins each way a log can be wrong that Open turns
// away, before a replay reads any of it: the errors a coordinator fails the
// peer with.
func TestBidLogOpenRejects(t *testing.T) {
	const lo, hi, rounds = 10, 20, 6
	for name, frame := range map[string][]byte{
		"id past the range":       rawBidLog(1, 1, 10, 4),
		"id past the range later": rawBidLog(1, 2, 0, 4, 10, 4),
		"id past any range":       rawBidLog(1, 1, 1<<40, 4),
		"round past the last":     rawBidLog(rounds, 1, 0, 4),
		"rounds out of order":     rawBidLog(3, 1, 0, 4, 2, 1, 0, 4),
		"round twice":             rawBidLog(3, 1, 0, 4, 3, 1, 1, 4),
		"id repeated":             rawBidLog(2, 2, 5, 4, 0, 6),
		"empty group":             rawBidLog(2, 0),
		"count past the frame":    rawBidLog(2, 3, 0, 4, 1, 4),
	} {
		var l BidLog
		if err := l.Open(frame, lo, hi, rounds); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Open = %v, want ErrMalformed", name, err)
		}
	}
	var l BidLog
	for name, frame := range map[string][]byte{
		"truncated bid":  rawBidLog(2, 1, 3)[:4],
		"truncated head": {TypeBidLog, 0x80},
	} {
		if err := l.Open(frame, lo, hi, rounds); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: Open = %v, want ErrTruncated", name, err)
		}
	}
	if err := l.Open(Reply{}.Append(nil), lo, hi, rounds); !errors.Is(err, ErrUnknownType) {
		t.Errorf("a Reply opened as a bid log: %v, want ErrUnknownType", err)
	}
}
