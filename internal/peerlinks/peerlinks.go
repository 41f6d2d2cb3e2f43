// Package peerlinks is the topk.Transport of a coordinator whose peers reach
// it over links made outside the topk package: cmd/topkmon's -serve mode and
// the TCP benchmarks, which both accept theirs from an internal/transport
// listener.
package peerlinks

import (
	"repro/internal/transport"
	"repro/topk"
)

// Transport hands a monitor the links open returns. It calls open the first
// time the links are asked for — which topk does only once it has accepted
// every other field of a Config, so a refused configuration never listens
// and never waits for a peer.
type Transport struct {
	open    func() ([]transport.Link, error)
	release func() error
	opened  bool
	links   []topk.Link
	err     error
}

// New returns a Transport over the links open will return; release frees
// what open acquired (a listener, a context) when the Transport is closed,
// whether or not open ever ran.
func New(open func() ([]transport.Link, error), release func() error) *Transport {
	return &Transport{open: open, release: release}
}

// Links implements topk.Transport. When open fails there are none — topk
// refuses that as a Transport without links — and Err has the reason.
func (t *Transport) Links() []topk.Link {
	if !t.opened {
		t.opened = true
		var links []transport.Link
		links, t.err = t.open()
		for _, l := range links {
			t.links = append(t.links, l)
		}
	}
	return t.links
}

// Err returns the error open failed with, if it ran and did.
func (t *Transport) Err() error { return t.err }

// Close implements topk.Transport: it closes the links and releases the rest.
func (t *Transport) Close() error {
	for _, l := range t.links {
		l.Close()
	}
	return t.release()
}
