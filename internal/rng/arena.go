package rng

import "fmt"

// Arena holds many generators as one flat column of state words — 8 bytes
// a generator where an RNG takes 16. The children a root splits in id
// order need no stored increment: child i's is SplitInc(i), a function of
// the id and the root's stream (two shifts, a xor, an or), so SplitArena
// keeps the states and derives the increments as it draws. An arena can
// also be laid over generators that share no root (ArenaOf), and then
// carries their increments as a second column.
//
// An Arena is a view: copies and Sub views share the state column, and a
// Sub view remembers the id its slot 0 stands for.
type Arena struct {
	states []uint64
	incs   []uint64 // nil when increments derive from ids (SplitArena)
	first  uint64   // child id of slot 0
	stream uint64   // the splitting root's increment; see childStream
}

// ChildArena returns an arena for the children lo..hi-1 of r with every
// state zero, for a restore to fill from persisted states (States): a
// child's increment depends on its id and r's stream alone, not on r's
// seed or on how far r has advanced, so r is read, not drawn from.
func (r *RNG) ChildArena(lo, hi int) Arena {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("rng: arena over children [%d, %d)", lo, hi))
	}
	return Arena{states: make([]uint64, hi-lo), first: uint64(lo), stream: r.inc}
}

// SplitArena returns the children lo..hi-1 of r — the generators that hi
// SplitValue calls in id order from child 0 would derive, of which it
// keeps the last hi-lo: r must not have drawn since it was seeded. It
// jumps over the first lo children (each split consumes one Uint64 of r)
// instead of walking them, and leaves r past child hi-1.
func (r *RNG) SplitArena(lo, hi int) Arena {
	a := r.ChildArena(lo, hi)
	r.Advance(2 * uint64(lo))
	for i := range a.states {
		c := r.SplitValue(a.first + uint64(i))
		a.states[i] = c.state
	}
	return a
}

// ArenaOf lays an arena over caller-owned columns: slot i is the generator
// with state states[i] and (odd) increment incs[i].
func ArenaOf(states, incs []uint64) Arena {
	if len(states) != len(incs) {
		panic("rng: ArenaOf columns differ in length")
	}
	return Arena{states: states, incs: incs}
}

// Sub returns the view of slots [i, j), capped at j.
func (a Arena) Sub(i, j int) Arena {
	v := Arena{states: a.states[i:j:j], first: a.first + uint64(i), stream: a.stream}
	if a.incs != nil {
		v.incs = a.incs[i:j:j]
	}
	return v
}

// States returns the state column, slot by slot: what a checkpoint
// persists and a restore writes back, and what a round's loop indexes
// beside Inc.
func (a Arena) States() []uint64 { return a.states }

// Inc returns slot i's increment.
func (a *Arena) Inc(i int) uint64 {
	if a.incs != nil {
		return a.incs[i]
	}
	return streamInc(childStream(a.stream, a.first+uint64(i)))
}

// At returns a copy of slot i's generator, which continues the slot's
// sequence independently of it.
func (a Arena) At(i int) RNG { return RNG{state: a.states[i], inc: a.Inc(i)} }
