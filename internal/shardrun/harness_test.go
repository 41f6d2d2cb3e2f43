package shardrun

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/coord"
	"repro/internal/fanout"
	"repro/internal/transport"
	"repro/internal/wire"
)

// tap wraps one end of a link and shows the test every frame crossing it:
// onSend before the frame goes out, onRecv after one arrived (either may be
// nil). Flush and Stats reach the wrapped link, so an engine cannot tell a
// tapped link from a bare one.
type tap struct {
	transport.Link
	onSend, onRecv func(frame []byte)
}

func (l *tap) Send(p []byte) error {
	if l.onSend != nil {
		l.onSend(p)
	}
	return l.Link.Send(p)
}

func (l *tap) Recv() ([]byte, error) {
	frame, err := l.Link.Recv()
	if err == nil && l.onRecv != nil {
		l.onRecv(frame)
	}
	return frame, err
}

func (l *tap) Flush() error               { return transport.Flush(l.Link) }
func (l *tap) Stats() transport.LinkStats { return transport.StatsOf(l.Link) }

// rigLinks is LoopbackSubtree with the test in the loop: it builds the
// root links of a branch^depth loopback tree (depth 1: a star of branch
// shards) link by link, passing the parent-side end of every link through
// up — level 1 is a root link, level depth a leaf's — and serving every
// leaf with leaf. Like LoopbackSubtree's, a server that fails closes its
// link.
func rigLinks(branch, depth int, up func(level int, l transport.Link) transport.Link, leaf func(transport.Link) error) []transport.Link {
	links := make([]transport.Link, branch)
	for i := range links {
		links[i] = rigSubtree(branch, depth, 1, up, leaf)
	}
	return links
}

func rigSubtree(branch, depth, level int, up func(int, transport.Link) transport.Link, leaf func(transport.Link) error) transport.Link {
	serve := leaf
	if level < depth {
		children := make([]transport.Link, branch)
		for i := range children {
			children[i] = rigSubtree(branch, depth, level+1, up, leaf)
		}
		serve = func(parent transport.Link) error { return ServeInterior(parent, children) }
	}
	return up(level, fanout.Loopback(serve))
}

// rigTree is the Config.Tree of a rig: depth 1 is the flat star, which the
// zero Tree configures (and the only way to configure a single shard).
func rigTree(branch, depth int) Tree {
	if depth == 1 {
		return Tree{}
	}
	return Tree{Branch: branch, Depth: depth}
}

// bankSpy serves a rig's leaves as ServeShard does and keeps hold of the
// node bank each one hosts, which a leaf shows at every execution it runs
// (an Assign replaces the bank, and the next execution shows the new one).
type bankSpy struct {
	mu    sync.Mutex
	banks []*coord.Nodes // one slot per leaf ever served
}

func (s *bankSpy) serve(link transport.Link) error {
	s.mu.Lock()
	slot := len(s.banks)
	s.banks = append(s.banks, nil)
	s.mu.Unlock()
	exec := localExec()
	return fanout.Serve(link, func(bank *coord.Nodes, m wire.Round, dst []byte) []byte {
		s.mu.Lock()
		s.banks[slot] = bank
		s.mu.Unlock()
		return exec(bank, m, dst)
	})
}

// snapshot returns the banks seen so far.
func (s *bankSpy) snapshot() []*coord.Nodes {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.banks)
}

// since returns the banks built after before was taken, in range order. A
// recovery re-assigns every leaf it keeps and the forced reset that ends it
// runs an execution on each, so after one these are exactly the hosted
// banks — whatever a leaf that was cut off still holds is in before.
func (s *bankSpy) since(before []*coord.Nodes) []*coord.Nodes {
	var live []*coord.Nodes
	for _, b := range s.snapshot() {
		if b != nil && !slices.Contains(before, b) {
			live = append(live, b)
		}
	}
	slices.SortFunc(live, func(a, b *coord.Nodes) int { return a.Lo() - b.Lo() })
	return live
}

// validateBanks checks the hosted banks of an idle engine over n nodes the
// way a restore checks a checkpointed one: the banks tile [0, n); every key
// lies inside its node's filter (coord.RestoreNodes refuses a frame where
// one does not); all banks hold the same installed bounds, which separate
// the two sides (Lemma 2.2) unless k = n; and the membership bits are the
// reported set.
func validateBanks(t *testing.T, banks []*coord.Nodes, n int, top []int) {
	t.Helper()
	var st wire.BankState
	var members []int
	var lo, hi int64 // the installed bounds, as bank 0 holds them
	next := 0
	for i, b := range banks {
		if b.Lo() != next {
			t.Fatalf("hosted banks do not tile [0, %d): bank %d starts at %d, want %d", n, i, b.Lo(), next)
		}
		next = b.Hi()
		frame := b.Snapshot(nil)
		if _, err := coord.RestoreNodes(frame, 0); err != nil {
			t.Fatalf("bank [%d, %d) is not restorable: %v", b.Lo(), b.Hi(), err)
		}
		if err := st.Decode(frame); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			lo, hi = st.BoundLo, st.BoundHi
		}
		if st.BoundLo != lo || st.BoundHi != hi {
			t.Fatalf("bank [%d, %d) holds bounds [%d, %d], bank 0 holds [%d, %d]", b.Lo(), b.Hi(), st.BoundLo, st.BoundHi, lo, hi)
		}
		for j, in := range st.InTop {
			if in {
				members = append(members, st.Lo+j)
			}
		}
	}
	if next != n {
		t.Fatalf("hosted banks cover [0, %d), want [0, %d)", next, n)
	}
	if len(top) < n && lo < hi {
		t.Fatalf("installed bounds do not separate: members >= %d, outsiders <= %d", lo, hi)
	}
	if !equal(members, top) {
		t.Fatalf("banks mark %v as members, the engine reports %v", members, top)
	}
}
