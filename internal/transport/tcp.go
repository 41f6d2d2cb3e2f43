package transport

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/wire"
)

// Listen opens the coordinator's TCP endpoint. Cancelling ctx shuts the
// listener and every link it accepted down; that is the graceful-exit
// path for a serving coordinator. addr uses the usual "host:port" form
// (":0" picks a free port — see Addr).
func Listen(ctx context.Context, addr string) (*Listener, error) {
	var lc net.ListenConfig
	ln, err := lc.Listen(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &Listener{ln: ln}
	if ctx != nil && ctx.Done() != nil {
		stop := make(chan struct{})
		l.stop = stop
		go func() {
			select {
			case <-ctx.Done():
				l.Close()
			case <-stop:
			}
		}()
	}
	return l, nil
}

// Listener accepts peer connections for a coordinator.
type Listener struct {
	ln   net.Listener
	stop chan struct{}

	mu     sync.Mutex
	links  []*tcpLink
	closed bool
}

// Addr returns the bound address, including the kernel-chosen port for
// ":0" listens.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Accept waits for the next peer connection and wraps it in a Link. The
// returned link is also closed when the listener shuts down.
func (l *Listener) Accept() (Link, error) {
	c, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	lk := newTCPLink(c)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		lk.Close()
		return nil, ErrClosed
	}
	l.links = append(l.links, lk)
	l.mu.Unlock()
	return lk, nil
}

// AcceptN accepts exactly n peer connections, in arrival order. On error
// the already-accepted links are closed.
func (l *Listener) AcceptN(n int) ([]Link, error) {
	links := make([]Link, 0, n)
	for len(links) < n {
		lk, err := l.Accept()
		if err != nil {
			for _, a := range links {
				a.Close()
			}
			return nil, err
		}
		links = append(links, lk)
	}
	return links, nil
}

// Close shuts the listener and all accepted links down. Idempotent.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	links := l.links
	l.links = nil
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
	}
	err := l.ln.Close()
	for _, lk := range links {
		lk.Close()
	}
	return err
}

// Dial connects a peer to the coordinator at addr. Cancelling ctx aborts
// an in-flight dial and closes the established link.
func Dial(ctx context.Context, addr string) (Link, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	lk := newTCPLink(c)
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				lk.Close()
			case <-lk.done:
			}
		}()
	}
	return lk, nil
}

// maxDialBackoff caps DialRetry's exponential backoff: past a couple of
// seconds, longer waits only delay recovery without reducing load.
const maxDialBackoff = 2 * time.Second

// DialRetry dials addr like Dial, retrying failed attempts up to attempts
// times with jittered exponential backoff starting at base (each wait is
// uniform in [backoff/2, backoff*3/2), doubling up to a cap). It exists
// for peers that start before their coordinator listens — topkmon -join —
// where the first dial's "connection refused" is expected, not fatal.
// Cancelling ctx aborts both in-flight dials and backoff waits promptly.
// attempts < 1 means one attempt; base <= 0 selects 50ms.
func DialRetry(ctx context.Context, addr string, attempts int, base time.Duration) (Link, error) {
	if attempts < 1 {
		attempts = 1
	}
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// The jitter spreads reconnection stampedes; it needs no reproducible
	// seed, so wall-clock seeding is fine here (unlike protocol RNGs).
	r := rng.New(uint64(time.Now().UnixNano()), 0xd1a1)
	backoff := base
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			wait := backoff/2 + time.Duration(r.Uint64n(uint64(backoff)))
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if backoff < maxDialBackoff {
				backoff *= 2
			}
		}
		lk, err := Dial(ctx, addr)
		if err == nil {
			return lk, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, lastErr
		}
	}
	return nil, fmt.Errorf("transport: dial %s failed after %d attempts: %w", addr, attempts, lastErr)
}

// tcpLink frames payloads onto a TCP stream as uvarint length prefixes
// followed by the payload bytes. A frame is written once, into the write
// buffer: Lend hands out the room after the frames buffered so far, behind
// space for the length prefix, and Send copies a payload in. Frames wait
// there until Flush (or the next Recv — the flush-before-read guard) writes
// them with one Write. Reads go through
// one owned buffer, so an incoming frame is copied exactly once, kernel to
// rbuf, and Recv returns a view into it. Both buffers start small, grow
// once to what a frame needs, and follow Retention.
type tcpLink struct {
	stats
	conn net.Conn
	done chan struct{}

	sendMu sync.Mutex // guards wbuf, wlo, wsizes
	wbuf   []byte     // the frames since the last flush lie in wbuf[wlo:]
	wlo    int        // where the first of them starts: past the lent room it skipped
	wsizes Retention  // judges wbuf when nothing is buffered

	rbuf       []byte // read buffer; [rpos, rend) is unconsumed stream data
	rpos, rend int
	rlast      int       // length of the frame the last Recv returned
	rsizes     Retention // judges rbuf as each Recv frees that frame

	closeMu sync.Mutex
	closed  bool
}

const (
	// minBuf is what either buffer of a link starts at: a frame of the
	// protocol is a handful of values and ids, and one that is not grows
	// the buffer it needs once.
	minBuf = 512
	// maxPrefix is the longest length prefix of a frame up to MaxFrame.
	maxPrefix = 4
)

func newTCPLink(c net.Conn) *tcpLink {
	if tc, ok := c.(*net.TCPConn); ok {
		// Both ends — accepted and dialing — disable Nagle: the engine's
		// frames are latency-bound request/reply traffic, and waiting for
		// segment coalescing would serialize every protocol round on the
		// delayed-ACK clock. Coalescing is done deliberately instead, by
		// the write buffer and the wire batch envelope.
		tc.SetNoDelay(true)
	}
	return &tcpLink{
		conn: c,
		rbuf: make([]byte, minBuf),
		done: make(chan struct{}),
	}
}

// Lend implements Lender: the room after the frames buffered so far,
// behind space for the next length prefix. An empty write buffer is judged
// first: one Retention lets go of is replaced by a minBuf one.
func (l *tcpLink) Lend() []byte {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	if len(l.wbuf) == 0 && (cap(l.wbuf) == 0 || !l.wsizes.Keep(cap(l.wbuf), 0)) {
		l.wbuf = make([]byte, 0, minBuf)
	}
	at := len(l.wbuf) + maxPrefix
	if at > cap(l.wbuf) {
		return nil
	}
	return l.wbuf[at:at]
}

// SendLent implements Lender: a frame written where Lend lent an empty
// write buffer gets its length prefix in front and is buffered where it
// lies. Behind frames already buffered, it is moved down next to them, so
// that the frames of a flush lie in one run. One its encoder had to grow
// elsewhere is copied in, the write buffer growing once to hold the
// frame's whole buffer — the room its encoder asked for — so that the next
// frame of its size is encoded where it is sent.
func (l *tcpLink) SendLent(frame []byte) error {
	if err := sendable(frame); err != nil {
		return err
	}
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	n := len(frame)
	l.wsizes.Keep(0, n)
	w := len(l.wbuf)
	if w == 0 && within(frame, l.wbuf) {
		off := cap(l.wbuf) - cap(frame)
		l.wlo = off - wire.SizeUvarint(uint64(n))
		l.wbuf = wire.AppendUvarint(l.wbuf[:l.wlo], uint64(n))[:off+n]
		l.sent(int64(off + n - l.wlo))
		return nil
	}
	if cap(l.wbuf)-w-maxPrefix < cap(frame) { // never for a frame lent at w+maxPrefix
		grown := make([]byte, w, w+maxPrefix+cap(frame))
		copy(grown, l.wbuf)
		l.wbuf = grown
	}
	l.put(frame) // a frame lent behind buffered ones moves down: its prefix ends before it
	return nil
}

// Send implements Link: it frames a copy of the payload into the write
// buffer and returns without transmitting. Flush or the next Recv pushes
// it out.
func (l *tcpLink) Send(payload []byte) error {
	if err := sendable(payload); err != nil {
		return err
	}
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	if len(l.wbuf) == 0 && !l.wsizes.Keep(cap(l.wbuf), len(payload)) {
		l.wbuf = nil
	}
	l.put(payload)
	return nil
}

// put appends one framed payload to the write buffer, next to the frames
// buffered before it.
func (l *tcpLink) put(payload []byte) {
	w := len(l.wbuf)
	l.wbuf = wire.AppendUvarint(l.wbuf, uint64(len(payload)))
	l.wbuf = append(l.wbuf, payload...)
	l.sent(int64(len(l.wbuf) - w))
}

// Flush implements Flusher: it writes out every frame buffered since the
// last flush in one Write.
func (l *tcpLink) Flush() error {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	if len(l.wbuf) == 0 {
		return nil
	}
	_, err := l.conn.Write(l.wbuf[l.wlo:])
	l.wbuf, l.wlo = l.wbuf[:0], 0
	if err != nil {
		return l.sendErr(err)
	}
	return nil
}

func (l *tcpLink) sendErr(err error) error {
	if l.isClosed() {
		return ErrClosed
	}
	return err
}

// Recv implements Link. The returned payload aliases the read buffer and
// is overwritten by the next Recv. Pending writes are flushed first, so a
// request/reply caller that never calls Flush cannot deadlock waiting for
// the reply to a request still sitting in the write buffer.
func (l *tcpLink) Recv() ([]byte, error) {
	if err := l.Flush(); err != nil {
		return nil, err
	}
	l.fit()
	n, err := l.readPrefix()
	if err != nil {
		return nil, l.recvErr(err)
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("transport: incoming frame of %d bytes exceeds MaxFrame", n)
	}
	if err := l.ensure(int(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // prefix promised more bytes
		}
		return nil, l.recvErr(err)
	}
	buf := l.rbuf[l.rpos : l.rpos+int(n)]
	l.rpos += int(n)
	l.rlast = int(n)
	l.received(frameLen(int(n)))
	return buf, nil
}

// fit judges the read buffer by the frame the last Recv returned, which
// this one frees, and lets go of a buffer Retention does not keep for one
// of minBuf, or of the bytes already read ahead if they are more. While
// those are more than Retention would keep it waits, so the buffer that
// replaces it is one the next Recv keeps: each buffer is replaced once on
// the way down, and read-ahead bytes are copied once, not once a Recv.
func (l *tcpLink) fit() {
	keep := l.rsizes.Keep(len(l.rbuf), l.rlast)
	l.rlast = 0 // told once, whatever this Recv returns
	if keep || l.rend-l.rpos > l.rsizes.room() {
		return
	}
	kept := make([]byte, max(minBuf, l.rend-l.rpos))
	l.rend = copy(kept, l.rbuf[l.rpos:l.rend])
	l.rpos, l.rbuf = 0, kept
}

// readPrefix parses the uvarint length prefix from the buffered stream.
func (l *tcpLink) readPrefix() (uint64, error) {
	var x uint64
	var shift uint
	for i := 0; ; i++ {
		if l.rpos == l.rend {
			if err := l.fill(); err != nil {
				if err == io.EOF && i > 0 {
					return 0, io.ErrUnexpectedEOF // truncated mid-prefix
				}
				return 0, err
			}
		}
		b := l.rbuf[l.rpos]
		l.rpos++
		if i >= 10 || (i == 9 && b > 1) {
			return 0, wire.ErrOverflow
		}
		if b < 0x80 {
			return x | uint64(b)<<shift, nil
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
}

// ensure makes at least n unconsumed bytes available at rbuf[rpos:],
// compacting and growing the buffer as needed and reading the remainder
// directly off the connection — one copy, no intermediate reader.
func (l *tcpLink) ensure(n int) error {
	if l.rend-l.rpos >= n {
		return nil
	}
	if l.rpos > 0 {
		copy(l.rbuf, l.rbuf[l.rpos:l.rend])
		l.rend -= l.rpos
		l.rpos = 0
	}
	if len(l.rbuf) < n {
		grown := make([]byte, n)
		copy(grown, l.rbuf[:l.rend])
		l.rbuf = grown
	}
	for l.rend < n {
		m, err := l.conn.Read(l.rbuf[l.rend:])
		l.rend += m
		if err != nil {
			if err == io.EOF && l.rend >= n {
				return nil
			}
			return err
		}
	}
	return nil
}

// fill reads more stream data into the buffer. It is called only by the
// prefix parser, and only when the buffer ran dry (rpos == rend) — every
// other refill path is ensure(), which compacts.
func (l *tcpLink) fill() error {
	l.rpos, l.rend = 0, 0
	m, err := l.conn.Read(l.rbuf[l.rend:])
	l.rend += m
	if m > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

func (l *tcpLink) recvErr(err error) error {
	if l.isClosed() {
		return ErrClosed
	}
	return err
}

func (l *tcpLink) isClosed() bool {
	l.closeMu.Lock()
	defer l.closeMu.Unlock()
	return l.closed
}

// Close implements Link. Idempotent.
func (l *tcpLink) Close() error {
	l.closeMu.Lock()
	if l.closed {
		l.closeMu.Unlock()
		return nil
	}
	l.closed = true
	l.closeMu.Unlock()
	close(l.done)
	return l.conn.Close()
}

// Stats implements StatsProvider.
func (l *tcpLink) Stats() LinkStats { return l.snapshot() }
