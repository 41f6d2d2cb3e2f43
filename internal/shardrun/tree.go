package shardrun

import (
	"fmt"

	"repro/internal/fanout"
	"repro/internal/transport"
)

// Tree configures the hierarchical coordinator: instead of the root
// fanning out to S leaf shards directly, it talks to Branch interior
// coordinators, each the root of its own subtree, Depth link levels deep.
// The leaves are the only protocol participants — interiors are relays
// (ServeInterior) that re-split assignments downward and fold replies
// upward with the same associative merges the root applies (see digest),
// holding nothing from one frame to the next — so a tree of any shape
// reports exactly what a flat engine over the same
// leaf partition would, while the root's fan-in stays at Branch links
// where the flat engine needs Branch^Depth.
//
// The zero Tree means flat: New treats the links as direct shard links.
type Tree struct {
	// Branch is the fan-out of the root and of every interior node (>= 1;
	// at 1 every interior relays to a single child, the identity on
	// frames).
	Branch int
	// Depth is the number of link levels below the root, 1 to maxDepth.
	// Depth 1 is the flat star — bit-identical to not configuring a tree —
	// and each additional level multiplies the leaf count by Branch.
	Depth int
}

// maxDepth bounds Tree.Depth: at Branch 2 a deeper tree overflows the
// leaf bound anyway, and at Branch 1 it keeps the chain of relays short.
const maxDepth = 30

// zero reports whether no tree is configured.
func (t Tree) zero() bool { return t == Tree{} }

// Leaves returns Branch^Depth, the number of leaf shards the tree serves
// — the one place that count is computed — or an error when the shape is
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

// LoopbackSubtree builds one in-process subtree depth link levels deep —
// a single leaf shard at depth 1, an interior relay over branch
// recursively built subtrees otherwise — and returns the parent end,
// usable as a root link, a Config.Redial factory, or a Join argument. A
// serve goroutine that fails closes its link, which the level above
// observes as a dead subtree.
func LoopbackSubtree(branch, depth int) transport.Link {
	if depth <= 1 {
		return LoopbackLink()
	}
	children := make([]transport.Link, branch)
	for i := range children {
		children[i] = LoopbackSubtree(branch, depth-1)
	}
	return fanout.Loopback(func(parent transport.Link) error {
		return ServeInterior(parent, children)
	})
}

// loopbackTree fills in cfg for an in-process branch^depth tree — the
// shape, and unless the caller supplies its own Redial, one that redials a
// dead subtree as a fresh subtree of the same shape — and builds the
// root's branch links, each to a LoopbackSubtree of depth-1 further
// levels.
func loopbackTree(cfg *Config, branch, depth int) ([]transport.Link, error) {
	cfg.Tree = Tree{Branch: branch, Depth: depth}
	if _, err := cfg.Tree.Leaves(); err != nil {
		return nil, fmt.Errorf("shardrun: %w", err)
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

// NewLoopbackTree builds an in-process engine serving branch^depth leaf
// shards in total (see loopbackTree) — at depth 1 the flat star of branch
// shards. It is the engine behind topk.Config.Tree and topkmon -tree.
func NewLoopbackTree(cfg Config, branch, depth int) (*Engine, error) {
	links, err := loopbackTree(&cfg, branch, depth)
	if err != nil {
		return nil, err
	}
	return New(cfg, links)
}

// Leaves returns the number of leaf shards the engine serves: the
// configured tree's leaf count, or the direct link count when flat.
func (e *Engine) Leaves() int {
	if n, err := e.tree.Leaves(); err == nil {
		return n
	}
	return e.Shards()
}
