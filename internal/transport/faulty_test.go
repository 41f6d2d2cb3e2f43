package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestFaultyPassthrough(t *testing.T) {
	a, b := Pipe()
	fa := NewFaulty(a, FaultPlan{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			p, err := b.Recv()
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if err := b.Send(p); err != nil {
				t.Errorf("echo: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if err := fa.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		p, err := fa.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if len(p) != 1 || p[0] != byte(i) {
			t.Fatalf("echo %d: got %v", i, p)
		}
	}
	<-done
	if fa.Killed() {
		t.Fatal("empty plan killed the link")
	}
	if s := fa.Stats(); s.SentFrames != 5 || s.RecvFrames != 5 {
		t.Fatalf("stats not forwarded: %+v", s)
	}
}

func TestFaultyKill(t *testing.T) {
	a, b := Pipe()
	fa := NewFaulty(a, FaultPlan{KillAt: 5})
	go func() {
		for {
			p, err := b.Recv()
			if err != nil {
				return
			}
			if b.Send(p) != nil {
				return
			}
		}
	}()
	for i := 0; i < 2; i++ { // ops 1-4: two clean exchanges
		if err := fa.Send([]byte{1}); err != nil {
			t.Fatalf("pre-kill send: %v", err)
		}
		if _, err := fa.Recv(); err != nil {
			t.Fatalf("pre-kill recv: %v", err)
		}
	}
	if err := fa.Send([]byte{1}); !errors.Is(err, ErrClosed) { // op 5
		t.Fatalf("kill op returned %v, want ErrClosed", err)
	}
	if !fa.Killed() {
		t.Fatal("not killed")
	}
	if _, err := fa.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-kill recv returned %v", err)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("remote side still open: %v", err)
	}
}

func TestFaultyDropOnSend(t *testing.T) {
	a, b := Pipe()
	fa := NewFaulty(a, FaultPlan{DropAt: 1})
	if err := fa.Send([]byte{42}); err != nil {
		t.Fatalf("dropped send reported %v, want nil", err)
	}
	if !fa.Killed() {
		t.Fatal("drop did not cut the connection")
	}
	// The frame was lost and the connection cut: the remote sees only the
	// close, never the payload.
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("remote recv: %v", err)
	}
	if _, err := fa.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("local recv after drop: %v", err)
	}
}

func TestFaultyDropOnRecv(t *testing.T) {
	a, b := Pipe()
	fa := NewFaulty(a, FaultPlan{DropAt: 2})
	if err := fa.Send([]byte{1}); err != nil { // op 1
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := b.Send([]byte{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := fa.Recv(); !errors.Is(err, ErrClosed) { // op 2: discarded
		t.Fatalf("dropped recv returned %v, want ErrClosed", err)
	}
	if !fa.Killed() {
		t.Fatal("drop did not cut")
	}
}

func TestFaultyDupOnSend(t *testing.T) {
	a, b := Pipe()
	fa := NewFaulty(a, FaultPlan{DupAt: 1})
	if err := fa.Send([]byte{9}); err != nil {
		t.Fatalf("dup send: %v", err)
	}
	for i := 0; i < 2; i++ {
		p, err := b.Recv()
		if err != nil {
			t.Fatalf("dup copy %d: %v", i, err)
		}
		if len(p) != 1 || p[0] != 9 {
			t.Fatalf("dup copy %d: got %v", i, p)
		}
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("after duplicates: %v, want ErrClosed", err)
	}
}

func TestFaultyDupOnRecv(t *testing.T) {
	a, b := Pipe()
	fa := NewFaulty(a, FaultPlan{DupAt: 1})
	if err := b.Send([]byte{7}); err != nil {
		t.Fatal(err)
	}
	p1, err := fa.Recv()
	if err != nil || len(p1) != 1 || p1[0] != 7 {
		t.Fatalf("first delivery: %v %v", p1, err)
	}
	p2, err := fa.Recv()
	if err != nil || len(p2) != 1 || p2[0] != 7 {
		t.Fatalf("duplicate delivery: %v %v", p2, err)
	}
	if !fa.Killed() {
		t.Fatal("dup did not cut after redelivery")
	}
	if _, err := fa.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-dup recv: %v", err)
	}
}

func TestFaultyDelayJitterIsSeeded(t *testing.T) {
	// Two links with equal seeds must fault identically; this pins the
	// reproducibility contract without timing assertions.
	mk := func() *Faulty {
		a, b := Pipe()
		go func() {
			for {
				if _, err := b.Recv(); err != nil {
					return
				}
			}
		}()
		return NewFaulty(a, FaultPlan{Delay: time.Microsecond, KillAt: 4, Seed: 11})
	}
	f1, f2 := mk(), mk()
	for i := 0; i < 6; i++ {
		e1 := f1.Send([]byte{0})
		e2 := f2.Send([]byte{0})
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("op %d: plans diverged (%v vs %v)", i, e1, e2)
		}
	}
	if !f1.Killed() || !f2.Killed() {
		t.Fatal("KillAt did not fire")
	}
}

func TestDialRetrySurvivesLateListener(t *testing.T) {
	// Reserve an address, close it, and only start listening after the
	// first dial attempts have failed.
	ln0, err := Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln0.Addr()
	ln0.Close()

	ready := make(chan *Listener, 1)
	go func() {
		time.Sleep(80 * time.Millisecond)
		ln, err := Listen(context.Background(), addr)
		if err != nil {
			ready <- nil
			return
		}
		ready <- ln
		if lk, err := ln.Accept(); err == nil {
			lk.Close()
		}
	}()
	lk, err := DialRetry(context.Background(), addr, 20, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("DialRetry: %v", err)
	}
	lk.Close()
	if ln := <-ready; ln != nil {
		ln.Close()
	}
}

func TestDialRetryExhaustsBudget(t *testing.T) {
	ln, err := Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()
	ln.Close()
	start := time.Now()
	if _, err := DialRetry(context.Background(), addr, 3, time.Millisecond); err == nil {
		t.Fatal("dial to a dead address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry budget of 3 took %v", elapsed)
	}
}

func TestDialRetryCancelAborts(t *testing.T) {
	ln, err := Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()
	ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := DialRetry(ctx, addr, 1000, 50*time.Millisecond); err == nil {
		t.Fatal("cancelled dial succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
}

// lent encodes p into the buffer l lends, as the fan-out core does.
func lent(l Lender, p ...byte) []byte { return append(l.Lend(), p...) }

// The cases below send through SendLent, the path every frame of the
// fan-out core takes: a Faulty lends its wrapped link's buffer and applies
// each fault to a lent frame as it does to a copied one.

func TestFaultyPassthroughLent(t *testing.T) {
	for name, wrap := range map[string]func(Link) Link{
		"pipe":    func(l Link) Link { return l },
		"copying": func(l Link) Link { return copying{l} },
	} {
		t.Run(name, func(t *testing.T) {
			a, b := Pipe()
			fa := NewFaulty(wrap(a), FaultPlan{})
			for i := 0; i < 5; i++ {
				if err := fa.SendLent(lent(fa, byte(i), byte(i))); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				p, err := b.Recv()
				if err != nil || len(p) != 2 || p[0] != byte(i) || p[1] != byte(i) {
					t.Fatalf("frame %d: got %v, %v", i, p, err)
				}
			}
			if s := fa.Stats(); s.SentFrames != 5 || s.SentBytes != 15 {
				t.Fatalf("stats not forwarded: %+v", s)
			}
		})
	}
}

func TestFaultyKillOnSendLent(t *testing.T) {
	a, b := Pipe()
	fa := NewFaulty(a, FaultPlan{KillAt: 2})
	if err := fa.SendLent(lent(fa, 1)); err != nil { // op 1
		t.Fatalf("pre-kill send: %v", err)
	}
	if err := fa.SendLent(lent(fa, 2)); !errors.Is(err, ErrClosed) { // op 2
		t.Fatalf("kill op returned %v, want ErrClosed", err)
	}
	if !fa.Killed() {
		t.Fatal("not killed")
	}
	if p, err := b.Recv(); err != nil || len(p) != 1 || p[0] != 1 {
		t.Fatalf("the frame before the kill: %v, %v", p, err)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("remote side still open: %v", err)
	}
}

func TestFaultyDropOnSendLent(t *testing.T) {
	a, b := Pipe()
	fa := NewFaulty(a, FaultPlan{DropAt: 1})
	if err := fa.SendLent(lent(fa, 42)); err != nil {
		t.Fatalf("dropped send reported %v, want nil", err)
	}
	if !fa.Killed() {
		t.Fatal("drop did not cut the connection")
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("remote recv: %v", err)
	}
}

// TestFaultyDupOnSendLent pins that a duplicated lent frame is sent twice
// intact: the first send hands the lent buffer to the link, which frees it
// once the receiver takes the second, so the second is a copy.
func TestFaultyDupOnSendLent(t *testing.T) {
	for name, wrap := range map[string]func(Link) Link{
		"pipe":    func(l Link) Link { return l },
		"copying": func(l Link) Link { return copying{l} },
	} {
		t.Run(name, func(t *testing.T) {
			a, b := Pipe()
			fa := NewFaulty(wrap(a), FaultPlan{DupAt: 1})
			if err := fa.SendLent(lent(fa, 9, 8, 7)); err != nil {
				t.Fatalf("dup send: %v", err)
			}
			for i := 0; i < 2; i++ {
				p, err := b.Recv()
				if err != nil || string(p) != "\x09\x08\x07" {
					t.Fatalf("dup copy %d: got %v, %v", i, p, err)
				}
			}
			if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
				t.Fatalf("after duplicates: %v, want ErrClosed", err)
			}
		})
	}
}

func TestFaultyDelayOnSendLent(t *testing.T) {
	a, b := Pipe()
	const delay = 20 * time.Millisecond
	fa := NewFaulty(a, FaultPlan{Delay: delay, Seed: 3})
	start := time.Now()
	if err := fa.SendLent(lent(fa, 5)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < delay/2 {
		t.Fatalf("a delayed send took %v, want at least %v", took, delay/2)
	}
	if p, err := b.Recv(); err != nil || len(p) != 1 || p[0] != 5 {
		t.Fatalf("delayed frame: %v, %v", p, err)
	}
}

// copying hides a link's Lender methods, as an external link without them
// would: a Faulty over it lends through Lending's copy.
type copying struct{ Link }

func (c copying) Stats() LinkStats { return StatsOf(c.Link) }
