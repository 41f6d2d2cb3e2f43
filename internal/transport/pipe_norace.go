//go:build !race

package transport

// poisonFreed is unset outside race-detector builds: a freed frame is left
// as it is (see pipe_race.go).
const poisonFreed = false
