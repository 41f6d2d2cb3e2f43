//go:build race

package transport

import (
	"bytes"
	"testing"
)

// TestPipePoisonsFreedFrames pins what every race-detector run relies on
// to enforce the Link contract: a frame the pipe takes back — at its
// receiver's next Send or next Recv — is overwritten before it is freed,
// so a consumer that reads it past its validity reads poison, not the
// frame.
func TestPipePoisonsFreedFrames(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	poisoned := func(frame []byte) bool {
		return bytes.Count(frame, []byte{poison}) == len(frame)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	must(a.Send([]byte{1, 2, 3}))
	held, err := b.Recv()
	must(err)
	if poisoned(held) {
		t.Fatalf("a frame arrived poisoned: %v", held)
	}
	must(b.Send([]byte{9}))
	if !poisoned(held) {
		t.Fatalf("a frame read after its receiver's next Send reads %v, want poison", held)
	}
	_, err = a.Recv()
	must(err)

	must(a.Send([]byte{4, 5, 6}))
	must(a.Send([]byte{7}))
	held, err = b.Recv()
	must(err)
	if poisoned(held) {
		t.Fatalf("a frame arrived poisoned: %v", held)
	}
	_, err = b.Recv()
	must(err)
	if !poisoned(held) {
		t.Fatalf("a frame read after its receiver's next Recv reads %v, want poison", held)
	}
}
