// Package transport is a minimal stand-in for the repo's transport
// layer, providing the Send surface the chargedsend analyzer watches.
package transport

// Link is one directed message channel.
type Link interface {
	Send(p []byte) error
	Recv() ([]byte, error)
	Close() error
}

// Lender is a link that lends the buffer a frame is encoded into.
type Lender interface {
	Link
	Lend() []byte
	SendLent(frame []byte) error
}

// Flush releases buffered frames; the bytes were counted when sent, so
// chargedsend deliberately ignores it.
func Flush(l Link) error { return nil }
