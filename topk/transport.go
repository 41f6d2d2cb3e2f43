package topk

import "repro/internal/netrun"

// Link is one reliable, ordered, message-framed duplex connection to a
// peer process hosting a range of the monitored nodes. It mirrors the
// internal transport abstraction so external callers can plug in their
// own substrate; internal/transport's TCP and pipe links satisfy it.
//
// A Link may additionally implement Flush() error: the engine then
// treats Send as buffered and calls Flush when a fan-out is complete, so
// several frames to the same peer coalesce into one write. Links without
// the method must transmit on Send; the engine probes dynamically and
// never requires Flush.
type Link interface {
	// Send frames one payload; the payload is not retained.
	Send(payload []byte) error
	// Recv blocks for the next frame. The returned slice may alias an
	// internal buffer valid only until the next Recv or Send on the same
	// end: the engine and the node hosts are done with a frame once they
	// answer it, so an implementation may reuse that buffer from then on,
	// after Send has taken its payload (which may alias the frame).
	// Implementations with buffered Sends must flush them before blocking
	// (see internal/transport's flush-before-read guard).
	Recv() ([]byte, error)
	// Close tears the link down. Idempotent.
	Close() error
}

// Transport supplies the networked engine its coordinator-side links, one
// per peer. The far end of every link must be running the node-host serve
// loop (ServeNodes, or the in-process hosts a Loopback transport spawns);
// the engine performs its join handshake over each link when the Monitor is
// created. New and Restore ask for the links only once every other Config
// field has been accepted — NewOrdered, which takes no Transport, never —
// so a Transport may put off listening, dialing or waiting for its peers
// until Links is first called.
type Transport interface {
	// Links returns the coordinator-side links in peer order; peer i
	// hosts the i-th contiguous node range.
	Links() []Link
	// Close releases any resources the transport owns. Links the engine
	// uses are closed by the Monitor itself.
	Close() error
}

// TransportStats aggregates what actually crossed the links of a
// networked monitor: whole frames as framed on the transport, control
// plane included. Compare with Bytes, which charges only the model
// messages the paper's analysis counts. Both in-process engines report
// zero.
type TransportStats struct {
	SentFrames int64
	SentBytes  int64
	RecvFrames int64
	RecvBytes  int64
}

// Loopback returns an in-process Transport with the given number of
// peers: each link's far end is a node-host goroutine, so a Monitor
// created over it exercises the full wire protocol without sockets. It is
// the easiest way to try the networked engine:
//
//	mon, err := topk.New(topk.Config{Nodes: 64, K: 4, Transport: topk.Loopback(4)})
//
// Peers must satisfy 1 <= peers <= Nodes at New time; out-of-range peer
// counts surface as an error from New (a Transport with no links), never
// as a panic.
func Loopback(peers int) Transport {
	if peers < 1 {
		return &loopback{} // rejected by New with a descriptive error
	}
	lb := &loopback{}
	for _, l := range netrun.LoopbackLinks(peers) {
		lb.links = append(lb.links, l)
	}
	return lb
}

type loopback struct {
	links []Link
}

func (l *loopback) Links() []Link { return l.links }

// ServeNodes runs the node-host serve loop on link, the far end of one of a
// Transport's links: it hosts the node range the coordinator assigns in
// its join handshake, answers the protocol rounds for it, and returns nil
// when the coordinator shuts the monitor down or an error when the link
// fails first. A Loopback transport runs it on goroutines; `topkmon -join`
// runs it in a process of its own.
func ServeNodes(link Link) error { return netrun.Serve(link) }

func (l *loopback) Close() error {
	for _, lk := range l.links {
		lk.Close()
	}
	return nil
}
