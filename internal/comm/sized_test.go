package comm

import "testing"

func TestCounterBytes(t *testing.T) {
	var c Counter
	c.RecordSized(Up, 2, 10)
	c.RecordSized(Bcast, 1, 3)
	c.RecordSized(Up, 1, 0) // bytes unchanged
	if got := c.Snapshot(); got.Up != 3 || got.Bcast != 1 {
		t.Fatalf("counts %+v", got)
	}
	b := c.BytesSnapshot()
	if b.Up != 10 || b.Bcast != 3 || b.Down != 0 || b.Total() != 13 {
		t.Fatalf("bytes %+v", b)
	}
	c.Reset()
	if b := c.BytesSnapshot(); b.Total() != 0 {
		t.Fatalf("bytes after reset %+v", b)
	}
}

func TestLedgerBytesByPhase(t *testing.T) {
	var l Ledger
	l.InPhase(PhaseViolation).RecordSized(Up, 1, 7)
	l.InPhase(PhaseReset).RecordSized(Bcast, 1, 5)
	if got := l.TotalBytes(); got.Up != 7 || got.Bcast != 5 {
		t.Fatalf("total bytes %+v", got)
	}
	if got := l.PhaseBytes(PhaseViolation); got.Up != 7 || got.Total() != 7 {
		t.Fatalf("violation bytes %+v", got)
	}
	if got := l.PhaseBytes(PhaseReset); got.Bcast != 5 || got.Total() != 5 {
		t.Fatalf("reset bytes %+v", got)
	}
	if got := l.PhaseBytes(PhaseHandler); got.Total() != 0 {
		t.Fatalf("handler bytes %+v", got)
	}
}

// TestRecordSizedFallback pins the recorders that only pass events on:
// Discard accepts a sized event and drops it, and Tee hands the count and
// the bytes to every recorder it holds, Discard and other tees included.
func TestRecordSizedFallback(t *testing.T) {
	Discard.RecordSized(Down, 1, 1)
	var a, b Counter
	var l Ledger
	Tee(&a, Discard, Tee(&b, l.InPhase(PhaseHandler))).RecordSized(Up, 2, 9)
	for name, got := range map[string]*Counter{"a": &a, "b": &b} {
		if got.Get(Up) != 2 || got.GetBytes(Up) != 9 {
			t.Fatalf("tee gave %s %d msgs, %d bytes; want 2, 9", name, got.Get(Up), got.GetBytes(Up))
		}
	}
	if got := l.PhaseBytes(PhaseHandler); l.PhaseCounts(PhaseHandler).Up != 2 || got.Up != 9 {
		t.Fatalf("tee gave the phase view %+v, %+v", l.PhaseCounts(PhaseHandler), got)
	}
}
