package transport

import (
	"bufio"
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
// followed by the payload bytes. Writes are buffered until Flush (or the
// next Recv — the flush-before-read guard); reads go through one owned
// buffer, so an incoming frame is copied exactly once, kernel to rbuf,
// and Recv returns a view into it.
type tcpLink struct {
	stats
	conn net.Conn
	done chan struct{}

	sendMu sync.Mutex // guards bw, prefix, dirty
	bw     *bufio.Writer
	prefix []byte
	dirty  bool // bytes buffered since the last flush

	rbuf       []byte // read buffer; [rpos, rend) is unconsumed stream data
	rpos, rend int

	closeMu sync.Mutex
	closed  bool
}

const readBufSize = 1 << 12

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
		bw:   bufio.NewWriter(c),
		rbuf: make([]byte, readBufSize),
		done: make(chan struct{}),
	}
}

// Send implements Link: it frames the payload into the write buffer and
// returns without transmitting. Flush or the next Recv pushes it out.
func (l *tcpLink) Send(payload []byte) error {
	if err := sendable(payload); err != nil {
		return err
	}
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	l.prefix = wire.AppendUvarint(l.prefix[:0], uint64(len(payload)))
	if _, err := l.bw.Write(l.prefix); err != nil {
		return l.sendErr(err)
	}
	if _, err := l.bw.Write(payload); err != nil {
		return l.sendErr(err)
	}
	l.dirty = true
	l.sent(frameLen(len(payload)))
	return nil
}

// Flush implements Flusher: it writes out every frame buffered by Send.
func (l *tcpLink) Flush() error {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	if !l.dirty {
		return nil
	}
	l.dirty = false
	if err := l.bw.Flush(); err != nil {
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
	l.received(frameLen(int(n)))
	return buf, nil
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
