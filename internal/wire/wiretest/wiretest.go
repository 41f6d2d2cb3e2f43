// Package wiretest holds what only tests need of the wire format: Subframes
// and Rounds, for link wrappers that watch what crosses a link.
package wiretest

import "repro/internal/wire"

// Subframes calls fn for every command a transport frame carries: each
// sub-frame of a batch, or the frame itself when it is not one (a frame
// that does not decode as a batch included).
func Subframes(frame []byte, fn func(sub []byte)) {
	var b wire.Batch
	if b.Decode(frame) != nil {
		fn(frame)
		return
	}
	for _, sub := range b.Frames {
		fn(sub)
	}
}

// Rounds calls fn for every Round command frame carries and ignores
// everything else: what a test's link wrapper needs to count the
// executions a peer is asked to run.
func Rounds(frame []byte, fn func(wire.Round)) {
	Subframes(frame, func(sub []byte) {
		if m, err := wire.DecodeRound(sub); err == nil {
			fn(m)
		}
	})
}
