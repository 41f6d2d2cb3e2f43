package fanout

import (
	"fmt"

	"repro/internal/transport"
)

// Tree is the shape of a coordinator tree: instead of fanning out to its
// node hosts directly, the root talks to Branch relays (ServeRelay), each
// the root of its own subtree, Depth link levels deep. The leaves are the
// only hosts of nodes; a relay re-splits its assignment downward and
// answers each execution upward with the bid log one host of its subtree
// would write, holding nothing from one frame to the next — so a tree of
// any shape reports and charges exactly what the sequential engine does,
// while the root's fan-in stays at Branch links where the flat star needs
// Branch^Depth.
//
// The zero Tree is a flat peer set. Depth 1 is the star of Branch leaves,
// bit-identical to the flat set but for the checkpoint fingerprint.
type Tree struct {
	// Branch is the fan-out of the root and of every relay (>= 1; at 1
	// every relay has a single child, the identity on frames).
	Branch int
	// Depth is the number of link levels below the root, 1 to maxDepth.
	// Each level past the first multiplies the leaf count by Branch.
	Depth int
}

// maxDepth bounds Tree.Depth: at Branch 2 a deeper tree overflows the
// leaf bound anyway, and at Branch 1 it keeps the chain of relays short.
const maxDepth = 30

// Leaves returns Branch^Depth, the number of leaves the tree serves — the
// one place that count is computed — or an error when the shape is
// invalid or the count exceeds 2^30.
func (t Tree) Leaves() (int, error) {
	if t.Branch < 1 || t.Depth < 1 || t.Depth > maxDepth {
		return 0, fmt.Errorf("tree %d^%d: want branch >= 1 and depth in [1, %d]", t.Branch, t.Depth, maxDepth)
	}
	leaves := 1
	for range t.Depth {
		if leaves > (1<<30)/t.Branch {
			return 0, fmt.Errorf("tree %d^%d: more than 2^30 leaves", t.Branch, t.Depth)
		}
		leaves *= t.Branch
	}
	return leaves, nil
}

// checkTree validates a configured Tree against the link count and the
// node population; the zero Tree always passes.
func (c Config) checkTree(links int) error {
	if c.Tree == (Tree{}) {
		return nil
	}
	leaves, err := c.Tree.Leaves()
	if err != nil {
		return err
	}
	if links != c.Tree.Branch {
		return fmt.Errorf("tree branch %d needs exactly %d links, got %d", c.Tree.Branch, c.Tree.Branch, links)
	}
	if leaves > c.N {
		return fmt.Errorf("tree %d^%d has %d leaves for N=%d nodes", c.Tree.Branch, c.Tree.Depth, leaves, c.N)
	}
	return nil
}

// LoopbackSubtree builds one in-process subtree depth link levels deep —
// a single leaf at depth 1, a relay over branch recursively built subtrees
// otherwise — and returns the parent end, usable as a root link, a
// Config.Redial factory, or a Join argument. A serve goroutine that fails
// closes its link, which the level above observes as a dead subtree.
func LoopbackSubtree(branch, depth int) transport.Link {
	if depth <= 1 {
		return Loopback(Serve)
	}
	children := make([]transport.Link, branch)
	for i := range children {
		children[i] = LoopbackSubtree(branch, depth-1)
	}
	return Loopback(func(parent transport.Link) error { return ServeRelay(parent, children) })
}

// loopbackTree fills in cfg for an in-process branch^depth tree — the
// shape, and unless the caller supplies its own Redial, one that redials a
// dead subtree as a fresh subtree of the same shape — and builds the
// root's branch links, each to a LoopbackSubtree.
func loopbackTree(cfg *Config, branch, depth int) ([]transport.Link, error) {
	cfg.Tree = Tree{Branch: branch, Depth: depth}
	if _, err := cfg.Tree.Leaves(); err != nil {
		return nil, fmt.Errorf("fanout: %w", err)
	}
	if cfg.Redial == nil {
		cfg.Redial = func() (transport.Link, error) { return LoopbackSubtree(branch, depth), nil }
	}
	links := make([]transport.Link, branch)
	for i := range links {
		links[i] = LoopbackSubtree(branch, depth)
	}
	return links, nil
}

// NewLoopbackTree builds an in-process engine serving branch^depth leaves
// in total (see loopbackTree) — at depth 1 the star of branch leaves. It
// is the engine behind topk.Config.Tree and topkmon -tree.
func NewLoopbackTree(cfg Config, branch, depth int) (*Engine, error) {
	links, err := loopbackTree(&cfg, branch, depth)
	if err != nil {
		return nil, err
	}
	return New(cfg, links)
}
