package transport

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
)

// tcpPair returns the two ends of a tcpLink pair over net.Pipe, whose
// writes block until the far end reads them: a sender runs on a goroutine
// of its own.
func tcpPair(t *testing.T) (a, b *tcpLink) {
	ca, cb := net.Pipe()
	a, b = newTCPLink(ca), newTCPLink(cb)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestTCPReadBufferFollowsRetention pins that a TCP link's read buffer is
// judged on every Recv: the buffer one 200 KiB frame grew is let go once
// two 2 KiB frames in a row have needed under half of it, and the frames
// read ahead into it arrive intact in the one that replaces it. Behind ten
// such frames the buffer is replaced once; behind eighty, which fill most
// of it with read-ahead, it is halved at most twice more on the way down —
// not replaced, read-ahead and all, on every Recv.
func TestTCPReadBufferFollowsRetention(t *testing.T) {
	for _, small := range []int{10, 80} {
		a, b := tcpPair(t)
		frames := [][]byte{bytes.Repeat([]byte{7}, 200<<10)}
		for i := 0; i < small; i++ {
			frames = append(frames, bytes.Repeat([]byte{byte(i)}, 2<<10))
		}
		sent := make(chan error, 1)
		go func() {
			for _, f := range frames {
				if err := a.Send(f); err != nil {
					sent <- err
					return
				}
			}
			sent <- a.Flush()
		}()
		replaced := 0
		for i, want := range frames {
			before := &b.rbuf[0]
			got, err := b.Recv()
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%d small frames: frame %d: %d bytes, %v; want %d intact", small, i, len(got), err, len(want))
			}
			if i > 0 && &b.rbuf[0] != before {
				replaced++
			}
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		if c := cap(b.rbuf); c >= 64<<10 {
			t.Fatalf("after %d 2 KiB frames the read buffer still holds %d bytes", small, c)
		}
		if limit := 1 + 2*(small/80); replaced > limit {
			t.Fatalf("behind %d 2 KiB frames the read buffer was replaced %d times, want at most %d", small, replaced, limit)
		}
	}
}

// TestTCPLendsItsWriteBuffer pins that a frame encoded into a TCP link's
// lent buffer is framed where it lies: the write buffer grows once, to a
// frame its lent room could not hold, and from then on a frame of that
// size is sent without allocating.
func TestTCPLendsItsWriteBuffer(t *testing.T) {
	a, b := tcpPair(t)
	payload := bytes.Repeat([]byte{3}, 3*minBuf)
	send := func() {
		frame := append(a.Lend(), payload...)
		if err := a.SendLent(frame); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := b.Recv(); err != nil {
				return
			}
		}
	}()
	send()
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if c := cap(a.wbuf); c < len(payload) {
		t.Fatalf("the write buffer holds %d bytes after a %d-byte frame", c, len(payload))
	}
	if avg := testing.AllocsPerRun(50, func() {
		send()
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("a lent frame costs %.2f allocations, want 0", avg)
	}
	a.Close()
	<-done
}

// FuzzTCPFraming sends frames of fuzzed lengths — 0 to four times the size
// a read buffer starts at — in fuzzed flush groups over a tcpLink pair,
// mixing copied sends, lent ones, lent ones behind skipped bytes (as a
// batch's room leaves them) and, between them, a frame over MaxFrame that
// both paths refuse: every frame arrives intact and in order, and the two
// ends' LinkStats agree. Each three bytes of the input are one frame: two
// for its length, one for how it is sent and whether a flush follows.
func FuzzTCPFraming(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 255, 1, 2, 0, 0x82, 8, 0, 3, 0, 1, 0x81})
	f.Add([]byte{0, 200, 1, 0, 200, 1, 0, 200, 0x81, 7, 255, 2, 0, 0, 0x80})
	f.Add(bytes.Repeat([]byte{3, 1, 0x46}, 20))
	f.Fuzz(func(t *testing.T, plan []byte) {
		type frame struct {
			n   int
			how byte
		}
		var frames []frame
		for i := 0; i+2 < len(plan) && len(frames) < 64; i += 3 {
			n := (int(plan[i])<<8 | int(plan[i+1])) % (4*minBuf + 1)
			frames = append(frames, frame{n, plan[i+2]})
		}
		payload := func(i, n int) []byte {
			p := make([]byte, n)
			for j := range p {
				p[j] = byte(i*31 + j*7)
			}
			return p
		}
		a, b := tcpPair(t)
		sent := make(chan error, 1)
		go func() {
			sent <- func() error {
				for i, fr := range frames {
					p := payload(i, fr.n)
					var err error
					switch fr.how & 3 {
					case 0:
						err = a.Send(p)
					case 1:
						err = a.SendLent(append(a.Lend(), p...))
					case 2:
						skip := int(fr.how>>2) & 15
						buf := append(a.Lend(), make([]byte, skip)...)
						err = a.SendLent(append(buf, p...)[skip:])
					case 3:
						if a.SendLent(tooLarge()) == nil || a.Send(tooLarge()) == nil {
							return errors.New("a frame over MaxFrame was accepted")
						}
						err = a.SendLent(append(a.Lend(), p...))
					}
					if err != nil {
						return err
					}
					if fr.how&0x80 != 0 {
						if err := a.Flush(); err != nil {
							return err
						}
					}
				}
				return a.Flush()
			}()
		}()
		for i, fr := range frames {
			got, err := b.Recv()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if want := payload(i, fr.n); !bytes.Equal(got, want) {
				t.Fatalf("frame %d of %d bytes arrived as %d bytes, or altered", i, len(want), len(got))
			}
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		s, r := a.Stats(), b.Stats()
		if s.SentFrames != int64(len(frames)) || s.SentFrames != r.RecvFrames || s.SentBytes != r.RecvBytes {
			t.Fatalf("%d frames: the sender counts %+v, the receiver %+v", len(frames), s, r)
		}
	})
}

var (
	tooLargeOnce sync.Once
	tooLargeBuf  []byte
)

// tooLarge is one byte over MaxFrame, allocated once and never written:
// both send paths refuse it before they touch it.
func tooLarge() []byte {
	tooLargeOnce.Do(func() { tooLargeBuf = make([]byte, MaxFrame+1) })
	return tooLargeBuf
}

// TestPipeSendsTheLentBuffer pins that a pipe carries a lent frame in the
// buffer it was written in — a window of it, as a batch's room leaves one,
// included — and lends that buffer again, whole, once the far end has
// answered the frame.
func TestPipeSendsTheLentBuffer(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	la := a.(Lender)
	for i := 0; i < 3; i++ {
		buf := append(la.Lend(), 0, 0, 0, byte(i), 9)
		if err := la.SendLent(buf[3:]); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil || len(got) != 2 || &got[0] != &buf[3] {
			t.Fatalf("frame %d arrived as %v (%v), not in the buffer it was written in", i, got, err)
		}
		if err := b.Send(ack); err != nil { // frees the frame
			t.Fatal(err)
		}
		if _, err := a.Recv(); err != nil {
			t.Fatal(err)
		}
		// The first buffer is the one append grew from an empty lend, which
		// the pipe adopts from the frame's window on.
		if next := la.Lend(); i > 0 && cap(next) != cap(buf) {
			t.Fatalf("the buffer lent after frame %d holds %d bytes, want the %d it was sent in", i, cap(next), cap(buf))
		}
	}
}
