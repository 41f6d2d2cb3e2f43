//go:build race

package transport

// poisonFreed is set in race-detector builds: a pipe overwrites every frame
// it takes back before it frees it, so every -race run checks that no
// consumer reads a frame after its receiver's next Send or Recv.
const poisonFreed = true
