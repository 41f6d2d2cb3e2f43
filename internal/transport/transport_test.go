package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()

	want := [][]byte{{}, {1}, {2, 3, 4}, bytes.Repeat([]byte{0xab}, 1000)}
	for _, p := range want {
		if err := a.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range want {
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("got %v, want %v", got, p)
		}
	}
	// Reply direction.
	if err := b.Send([]byte{9}); err != nil {
		t.Fatal(err)
	}
	if got, err := a.Recv(); err != nil || !bytes.Equal(got, []byte{9}) {
		t.Fatalf("reply: %v, %v", got, err)
	}
}

func TestPipeSendCopies(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	buf := []byte{1, 2, 3}
	if err := a.Send(buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // caller reuses its buffer immediately
	got, err := b.Recv()
	if err != nil || got[0] != 1 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestPipeStats(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	payload := bytes.Repeat([]byte{1}, 200) // 2-byte uvarint prefix
	if err := a.Send(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	wantBytes := int64(len(payload) + wire.SizeUvarint(200))
	if s := StatsOf(a); s.SentFrames != 1 || s.SentBytes != wantBytes {
		t.Fatalf("a stats %+v, want %d bytes", s, wantBytes)
	}
	if s := StatsOf(b); s.RecvFrames != 1 || s.RecvBytes != wantBytes {
		t.Fatalf("b stats %+v", s)
	}
}

func TestPipeCloseUnblocksAndDrains(t *testing.T) {
	a, b := Pipe()
	if err := a.Send([]byte{7}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	// In-flight frame still delivered...
	if got, err := b.Recv(); err != nil || !bytes.Equal(got, []byte{7}) {
		t.Fatalf("drain: %v, %v", got, err)
	}
	// ...then the closed state surfaces, on both ends.
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv after close: %v", err)
	}
	if err := b.Send([]byte{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	a.Close() // idempotent
}

func TestPipeCloseUnblocksPendingRecv(t *testing.T) {
	a, b := Pipe()
	errc := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("pending recv: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func startTCP(t *testing.T) (*Listener, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ln, err := Listen(ctx, "127.0.0.1:0")
	if err != nil {
		cancel()
		t.Skipf("cannot listen on loopback: %v", err)
	}
	t.Cleanup(func() { cancel(); ln.Close() })
	return ln, cancel
}

func TestTCPRoundTrip(t *testing.T) {
	ln, _ := startTCP(t)

	var wg sync.WaitGroup
	wg.Add(1)
	var serverErr error
	go func() {
		defer wg.Done()
		lk, err := ln.Accept()
		if err != nil {
			serverErr = err
			return
		}
		for {
			p, err := lk.Recv()
			if err != nil {
				return // client closed
			}
			echo := append([]byte{0xee}, p...)
			if err := lk.Send(echo); err != nil {
				serverErr = err
				return
			}
		}
	}()

	client, err := Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{{}, {1, 2, 3}, bytes.Repeat([]byte{0x42}, 100000)}
	for _, p := range payloads {
		if err := client.Send(p); err != nil {
			t.Fatal(err)
		}
		got, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(p)+1 || got[0] != 0xee || !bytes.Equal(got[1:], p) {
			t.Fatalf("echo mismatch for %d-byte payload", len(p))
		}
	}
	s := StatsOf(client)
	if s.SentFrames != int64(len(payloads)) || s.RecvFrames != int64(len(payloads)) {
		t.Fatalf("stats %+v", s)
	}
	client.Close()
	wg.Wait()
	if serverErr != nil {
		t.Fatal(serverErr)
	}
}

func TestTCPGarbagePrefix(t *testing.T) {
	ln, _ := startTCP(t)
	got := make(chan error, 1)
	go func() {
		lk, err := ln.Accept()
		if err != nil {
			got <- err
			return
		}
		_, err = lk.Recv()
		got <- err
	}()
	raw, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// An 11-byte continuation run can never be a valid length prefix.
	if _, err := raw.Write(bytes.Repeat([]byte{0xff}, 11)); err != nil {
		t.Fatal(err)
	}
	if err := <-got; !errors.Is(err, wire.ErrOverflow) {
		t.Fatalf("garbage prefix: %v, want ErrOverflow", err)
	}
}

func TestTCPOversizedFrameRejected(t *testing.T) {
	ln, _ := startTCP(t)
	got := make(chan error, 1)
	go func() {
		lk, err := ln.Accept()
		if err != nil {
			got <- err
			return
		}
		_, err = lk.Recv()
		got <- err
	}()
	raw, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(wire.AppendUvarint(nil, MaxFrame+1)); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("oversized frame: %v, want explicit rejection", err)
	}
}

// TestOversizedSendRefused pins that every link refuses the same frames:
// a payload above MaxFrame fails Send with the same error on a pipe as on
// the TCP link, nothing is sent, and the link carries the next frame.
func TestOversizedSendRefused(t *testing.T) {
	ln, _ := startTCP(t)
	accepted := make(chan Link, 1)
	go func() {
		lk, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- lk
	}()
	dialed, err := Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	pipeA, pipeB := Pipe()
	links := []struct {
		name      string
		near, far Link
	}{
		{"pipe", pipeA, pipeB},
		{"tcp", dialed, <-accepted},
	}
	huge := make([]byte, MaxFrame+1) // never written: Send refuses before it copies
	var want string
	for _, l := range links {
		if l.far == nil {
			t.Fatal("no accepted link")
		}
		err := l.near.Send(huge)
		if err == nil {
			t.Fatalf("%s: Send accepted %d bytes, MaxFrame is %d", l.name, len(huge), MaxFrame)
		}
		if want == "" {
			want = err.Error()
		}
		if err.Error() != want {
			t.Errorf("%s: Send error %q, want the other link's %q", l.name, err, want)
		}
		for how, lender := range map[string]Lender{"lent": Lending(l.near), "lent through a copy": Lending(copying{l.near})} {
			if err := lender.SendLent(huge); err == nil || err.Error() != want {
				t.Errorf("%s: SendLent %s of %d bytes: %v, want %q", l.name, how, len(huge), err, want)
			}
		}
		if err := l.near.Send(huge[:MaxFrame>>10]); err != nil {
			t.Fatalf("%s: Send after a refused frame: %v", l.name, err)
		}
		if err := Flush(l.near); err != nil {
			t.Fatal(err)
		}
		if got, err := l.far.Recv(); err != nil || len(got) != MaxFrame>>10 {
			t.Fatalf("%s: Recv after a refused frame: %d bytes, %v", l.name, len(got), err)
		}
		if s := StatsOf(l.near); s.SentFrames != 1 {
			t.Errorf("%s: %d frames counted as sent, want 1", l.name, s.SentFrames)
		}
		l.near.Close()
		l.far.Close()
	}
}

func TestTCPTruncatedFrame(t *testing.T) {
	ln, _ := startTCP(t)
	got := make(chan error, 1)
	go func() {
		lk, err := ln.Accept()
		if err != nil {
			got <- err
			return
		}
		_, err = lk.Recv()
		got <- err
	}()
	raw, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Promise 100 bytes, deliver 3, hang up.
	frame := append(wire.AppendUvarint(nil, 100), 1, 2, 3)
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	if err := <-got; !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: %v, want ErrUnexpectedEOF", err)
	}
}

// TestTCPFlushDelivers pins the buffered-send contract: frames buffered
// by Send cross the wire once Flush is called, and several Sends coalesce
// into one flush.
func TestTCPFlushDelivers(t *testing.T) {
	ln, _ := startTCP(t)
	got := make(chan []byte, 3)
	go func() {
		lk, err := ln.Accept()
		if err != nil {
			close(got)
			return
		}
		for i := 0; i < 3; i++ {
			p, err := lk.Recv()
			if err != nil {
				close(got)
				return
			}
			got <- append([]byte(nil), p...)
		}
	}()
	client, err := Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := byte(0); i < 3; i++ {
		if err := client.Send([]byte{i, i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := Flush(client); err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 3; i++ {
		p, ok := <-got
		if !ok {
			t.Fatal("server side failed")
		}
		if !bytes.Equal(p, []byte{i, i + 1}) {
			t.Fatalf("frame %d: got %v", i, p)
		}
	}
}

// TestTCPFlushBeforeRead pins the deadlock guard: a strict request/reply
// cycle that never calls Flush must still make progress, because Recv
// flushes the link's own buffered writes before blocking. Without the
// guard both sides would block forever, each waiting for a request or
// reply still sitting in the other side's write buffer.
func TestTCPFlushBeforeRead(t *testing.T) {
	ln, _ := startTCP(t)
	serverErr := make(chan error, 1)
	go func() {
		lk, err := ln.Accept()
		if err != nil {
			serverErr <- err
			return
		}
		for {
			p, err := lk.Recv()
			if err != nil {
				serverErr <- nil // client hung up: clean exit
				return
			}
			// Send buffers the reply; the loop's next Recv must push it
			// out before blocking for the next request.
			if err := lk.Send(append([]byte{0xaa}, p...)); err != nil {
				serverErr <- err
				return
			}
		}
	}()
	client, err := Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for i := byte(0); i < 20; i++ {
			// No explicit Flush anywhere: Recv must release the request.
			if err := client.Send([]byte{i}); err != nil {
				done <- err
				return
			}
			p, err := client.Recv()
			if err != nil {
				done <- err
				return
			}
			if !bytes.Equal(p, []byte{0xaa, i}) {
				done <- errors.New("echo mismatch")
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request/reply cycle deadlocked: Recv did not flush buffered writes")
	}
	client.Close()
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
}

// TestPipeFlushNoop: pipes transmit on Send, so Flush is a no-op and the
// generic Flush helper accepts them.
func TestPipeFlushNoop(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	if err := a.Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := Flush(a); err != nil {
		t.Fatal(err)
	}
	if p, err := b.Recv(); err != nil || !bytes.Equal(p, []byte{1}) {
		t.Fatalf("got %v, %v", p, err)
	}
}

// TestPipeRecvRecycles pins the buffer-reuse contract the engines' hot
// path relies on: a steady-state request/reply cycle over a pipe performs
// no heap allocation and cycles one buffer per direction, the slice Recv
// returned stays untouched until the receiver's next Send or Recv, a reply
// encoded over the request it answers arrives intact, and Send and Recv
// may run on two goroutines.
func TestPipeRecvRecycles(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	payload := []byte{1, 2, 3, 4}
	var fwd, rev *byte // the backing arrays of the last cycle's two frames
	oneEach := true
	echo := func() {
		if err := a.Send(payload); err != nil {
			t.Fatal(err)
		}
		p, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Send(p); err != nil {
			t.Fatal(err)
		}
		q, err := a.Recv()
		if err != nil {
			t.Fatal(err)
		}
		oneEach = oneEach && (fwd == nil || fwd == &p[0]) && (rev == nil || rev == &q[0])
		fwd, rev = &p[0], &q[0]
	}
	for i := 0; i < 8; i++ { // warm the free lists up
		echo()
	}
	if avg := testing.AllocsPerRun(200, echo); avg != 0 {
		t.Fatalf("steady-state pipe round trip allocates %.2f per cycle, want 0", avg)
	}
	if !oneEach {
		t.Fatal("a steady request/reply cycle moved between backing arrays; want one per direction")
	}

	// Stability until the receiver's next Send or Recv: the frame must not
	// be recycled out from under the caller while it still holds it,
	// whatever the far end sends meanwhile.
	if err := a.Send([]byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	held, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), held...)
	for i := byte(0); i < 4; i++ { // the sender takes other buffers
		if err := a.Send(bytes.Repeat([]byte{i}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(held, snapshot) {
		t.Fatalf("held frame mutated before its receiver's next Send or Recv: %v vs %v", held, snapshot)
	}
	if err := b.Send([]byte{1}); err != nil { // answer the held frame
		t.Fatal(err)
	}
	if _, err := a.Recv(); err != nil {
		t.Fatal(err)
	}

	// A reply encoded over the request it answers arrives intact: Send
	// copies its payload before it frees the frame the payload lies in.
	for i := byte(0); i < 4; i++ {
		req, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		for j := range req {
			req[j] = ^req[j]
		}
		if err := b.Send(req); err != nil {
			t.Fatal(err)
		}
		if got, err := a.Recv(); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{^i}, 64)) {
			t.Fatalf("reply %d encoded over its request arrived as %v, %v", i, got, err)
		}
	}

	// Send and Recv on two goroutines: a sends a stream of requests while
	// a reader goroutine takes the echoes, so a's Sends free frames while
	// its Recvs take new ones. The reader reads only lengths: a frame's
	// bytes are a's no longer once a Send follows its Recv.
	const frames = 200
	go func() {
		for {
			p, err := b.Recv()
			if err != nil || b.Send(p) != nil {
				return
			}
		}
	}()
	bad := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			p, err := a.Recv()
			if err == nil && len(p) != 1+i%7 {
				err = errors.New("echo of the wrong length")
			}
			if err != nil {
				bad <- err
				return
			}
		}
		bad <- nil
	}()
	for i := 0; i < frames; i++ {
		if err := a.Send(bytes.Repeat([]byte{byte(i)}, 1+i%7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-bad; err != nil {
		t.Fatal(err)
	}
}

// ack is the frame echo answers with.
var ack = []byte{1, 2, 3}

// echo sends p from a to b and answers it with ack, which frees it, and
// returns the capacity of the buffer p arrived in.
func echo(t *testing.T, a, b Link, p []byte) (capacity int) {
	t.Helper()
	if err := a.Send(p); err != nil {
		t.Fatal(err)
	}
	q, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	capacity = cap(q)
	if err := b.Send(ack); err != nil { // frees q
		t.Fatal(err)
	}
	if _, err := a.Recv(); err != nil {
		t.Fatal(err)
	}
	return capacity
}

// TestPipeSizesBuffersByTheirFrames pins the pipe's half of Retention: a
// buffer a large frame grew carries the next frame, and is let go once two
// frames in a row need under half of it — the second travels in a buffer
// of about its own size — while small frames between two large ones let
// nothing go, so a steady cycle of both allocates nothing.
func TestPipeSizesBuffersByTheirFrames(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	big, mid := make([]byte, 400<<10), make([]byte, 100<<10)
	if c := echo(t, a, b, big); c < len(big) {
		t.Fatalf("a %d-byte frame arrived in a %d-byte buffer", len(big), c)
	}
	if c := echo(t, a, b, mid); c < len(big) {
		t.Fatalf("the frame after a %d-byte one arrived in a %d-byte buffer; want the recycled one", len(big), c)
	}
	if c := echo(t, a, b, mid); c >= 2*len(mid) {
		t.Fatalf("a %d-byte frame still travels in a %d-byte buffer after two of its size", len(mid), c)
	}
	if avg := testing.AllocsPerRun(50, func() { echo(t, a, b, mid); echo(t, a, b, ack); echo(t, a, b, ack) }); avg != 0 {
		t.Fatalf("a steady cycle of large and small frames allocates %.2f per cycle, want 0", avg)
	}
}

// TestPipeKeepsItsBufferAcrossAResetBatch pins Retention's two-frame
// memory on a pipe: a protocol frame of more than 1 KiB — a large-k
// reset's batch of Winners — between every two dense frames above the
// 2 KiB floor lets no buffer go, so the cycle allocates nothing.
func TestPipeKeepsItsBufferAcrossAResetBatch(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	dense, batch := make([]byte, 100<<10), make([]byte, 3<<10)
	for range 3 {
		echo(t, a, b, dense)
		echo(t, a, b, batch)
	}
	if avg := testing.AllocsPerRun(50, func() { echo(t, a, b, dense); echo(t, a, b, batch) }); avg != 0 {
		t.Fatalf("dense frames with a reset batch between them allocate %.2f per cycle, want 0", avg)
	}
}

// TestRetentionRule pins the rule itself, one frame at a time: the floor,
// the frames that do not count, and the memory of the two that last did.
func TestRetentionRule(t *testing.T) {
	var r Retention
	for i, c := range []struct {
		capacity, n int
		keep        bool
	}{
		{1152, 1<<10 - 1, true}, // a buffer append grew for an uncounted frame: under the floor
		{1152, 0, true},         // and judged alone when it is lent again
		{2 << 10, 0, true},      // at the floor: kept whatever it carried
		{3 << 10, 3 << 10, true},
		{3 << 10, 1 << 10, true},  // the frame before was 3 KiB
		{3 << 10, 1 << 10, false}, // two 1 KiB frames in a row: the buffer a first frame of values grew goes
		{2 << 10, 0, true},        // twice them, and the floor
		{1 << 20, 512 << 10, true},
		{1 << 20, 100 << 10, true},   // the frame before was 512 KiB
		{1 << 20, 1<<10 - 1, true},   // under 1 KiB: not counted
		{1 << 20, 100 << 10, false},  // two 100 KiB frames in a row
		{200 << 10, 2 << 10, true},   // one protocol frame after a 100 KiB one
		{200 << 10, 100 << 10, true}, // and the dense frame after it
		{200 << 10, 2 << 10, true},
		{200 << 10, 2 << 10, false}, // two protocol frames in a row
		{4 << 10, 0, true},          // twice the larger of them
		{4<<10 + 1, 0, false},
	} {
		if got := r.Keep(c.capacity, c.n); got != c.keep {
			t.Fatalf("frame %d: Keep(%d, %d) = %v, want %v", i, c.capacity, c.n, got, c.keep)
		}
	}
}

// TestTCPContextShutdown exercises the graceful-exit path: cancelling the
// listen context closes the listener and every accepted link.
func TestTCPContextShutdown(t *testing.T) {
	ln, cancel := startTCP(t)

	accepted := make(chan Link, 1)
	go func() {
		lk, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- lk
	}()
	client, err := Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}

	recvDone := make(chan error, 1)
	go func() {
		_, err := server.Recv()
		recvDone <- err
	}()
	cancel()
	select {
	case err := <-recvDone:
		if err == nil {
			t.Fatal("server recv survived context cancellation")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("context cancellation did not unblock server recv")
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("accept succeeded after shutdown")
	}
}
