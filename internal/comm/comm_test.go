package comm

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.RecordSized(Up, 3, 0)
	c.RecordSized(Down, 2, 0)
	c.RecordSized(Bcast, 1, 0)
	c.RecordSized(Up, 4, 0)
	if got := c.Get(Up); got != 7 {
		t.Fatalf("Up = %d, want 7", got)
	}
	if got := c.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	s := c.Snapshot()
	if s.Up != 7 || s.Down != 2 || s.Bcast != 1 || s.Total() != 10 {
		t.Fatalf("snapshot wrong: %+v", s)
	}
}

func TestCounterReset(t *testing.T) {
	var c Counter
	c.RecordSized(Up, 5, 0)
	c.Reset()
	if c.Total() != 0 {
		t.Fatalf("total after reset: %d", c.Total())
	}
}

func TestCounterPanics(t *testing.T) {
	var c Counter
	for _, f := range []func(){
		func() { c.RecordSized(Up, -1, 0) },
		func() { c.RecordSized(Kind(99), 1, 0) },
		func() { c.Get(Kind(-1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.RecordSized(Up, 1, 0)
			}
		}()
	}
	wg.Wait()
	if got := c.Get(Up); got != workers*per {
		t.Fatalf("concurrent count = %d, want %d", got, workers*per)
	}
}

func TestCountsArithmetic(t *testing.T) {
	a := Counts{Up: 5, Down: 3, Bcast: 2}
	b := Counts{Up: 1, Down: 1, Bcast: 1}
	if d := a.Sub(b); d != (Counts{Up: 4, Down: 2, Bcast: 1}) {
		t.Fatalf("Sub: %+v", d)
	}
	if s := a.Add(b); s != (Counts{Up: 6, Down: 4, Bcast: 3}) {
		t.Fatalf("Add: %+v", s)
	}
	if !strings.Contains(a.String(), "total=10") {
		t.Fatalf("String: %s", a)
	}
}

func TestKindString(t *testing.T) {
	if Up.String() != "up" || Down.String() != "down" || Bcast.String() != "bcast" {
		t.Fatal("kind names wrong")
	}
	if !strings.Contains(Kind(42).String(), "42") {
		t.Fatal("unknown kind should include number")
	}
	if len(Kinds()) != 3 {
		t.Fatal("Kinds() should list 3 kinds")
	}
}

func TestLedgerPhases(t *testing.T) {
	var l Ledger
	l.InPhase(PhaseViolation).RecordSized(Up, 2, 0)
	l.InPhase(PhaseHandler).RecordSized(Bcast, 1, 0)
	l.InPhase(PhaseReset).RecordSized(Up, 4, 0)
	l.RecordSized(Down, 1, 0) // unattributed

	if tot := l.Total(); tot.Total() != 8 {
		t.Fatalf("ledger total = %d, want 8", tot.Total())
	}
	if v := l.PhaseCounts(PhaseViolation); v.Up != 2 || v.Total() != 2 {
		t.Fatalf("violation phase: %+v", v)
	}
	if h := l.PhaseCounts(PhaseHandler); h.Bcast != 1 {
		t.Fatalf("handler phase: %+v", h)
	}
	if r := l.PhaseCounts(PhaseReset); r.Up != 4 {
		t.Fatalf("reset phase: %+v", r)
	}
	// Phase sums exclude the unattributed Down message.
	sum := int64(0)
	for _, p := range Phases() {
		sum += l.PhaseCounts(p).Total()
	}
	if sum != 7 {
		t.Fatalf("phase sum = %d, want 7", sum)
	}
}

func TestLedgerReset(t *testing.T) {
	var l Ledger
	l.InPhase(PhaseReset).RecordSized(Up, 3, 0)
	l.Reset()
	if l.Total().Total() != 0 || l.PhaseCounts(PhaseReset).Total() != 0 {
		t.Fatal("ledger reset incomplete")
	}
}

func TestLedgerPanicsOnBadPhase(t *testing.T) {
	var l Ledger
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.InPhase(Phase(99))
}

func TestPhaseString(t *testing.T) {
	if PhaseViolation.String() != "violation" || PhaseHandler.String() != "handler" || PhaseReset.String() != "reset" {
		t.Fatal("phase names wrong")
	}
	if !strings.Contains(Phase(9).String(), "9") {
		t.Fatal("unknown phase should include number")
	}
}

func TestDiscard(t *testing.T) {
	Discard.RecordSized(Up, 100, 0) // must not panic or affect anything
}

func TestTraceBasics(t *testing.T) {
	tr := NewTrace(10)
	tr.Append(Event{Step: 1, Kind: Up, From: 3, To: Coordinator, Payload: 42})
	tr.Append(Event{Step: 2, Kind: Bcast, From: Coordinator, To: Everyone, Payload: 7, Note: "midpoint"})
	evs := tr.Events()
	if len(evs) != 2 || tr.Len() != 2 {
		t.Fatalf("event count: %d", len(evs))
	}
	if evs[0].Payload != 42 || evs[1].Note != "midpoint" {
		t.Fatalf("events wrong: %+v", evs)
	}
	s := tr.String()
	if !strings.Contains(s, "node3->coord") || !strings.Contains(s, "coord->*") {
		t.Fatalf("trace rendering: %s", s)
	}
}

func TestTraceRingBuffer(t *testing.T) {
	tr := NewTrace(3)
	for i := int64(0); i < 5; i++ {
		tr.Append(Event{Step: i})
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	if evs[0].Step != 2 || evs[2].Step != 4 {
		t.Fatalf("ring order wrong: %+v", evs)
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Append(Event{})
	if tr.Events() != nil || tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil trace should be inert")
	}
}

func TestTracePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTrace(0)
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace(100)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Append(Event{Step: int64(w*100 + i)})
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 100 {
		t.Fatalf("trace length %d, want 100", tr.Len())
	}
	if tr.Dropped() != 300 {
		t.Fatalf("dropped %d, want 300", tr.Dropped())
	}
}
