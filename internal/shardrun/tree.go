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
// The zero Tree means flat: New treats the links as direct shard links,
// exactly as before.
type Tree struct {
	// Branch is the fan-out of the root and of every interior node (>= 2).
	Branch int
	// Depth is the number of link levels below the root (>= 1). Depth 1
	// is the flat star — bit-identical to not configuring a tree — and
	// each additional level multiplies the leaf count by Branch.
	Depth int
}

// zero reports whether no tree is configured.
func (t Tree) zero() bool { return t == Tree{} }

// Leaves returns Branch^Depth, the number of leaf shards the tree
// serves, or an error when the shape is invalid or the count overflows.
func (t Tree) Leaves() (int, error) {
	if t.Branch < 2 {
		return 0, fmt.Errorf("shardrun: tree branch %d < 2", t.Branch)
	}
	if t.Depth < 1 {
		return 0, fmt.Errorf("shardrun: tree depth %d < 1", t.Depth)
	}
	leaves := 1
	for i := 0; i < t.Depth; i++ {
		if leaves > (1<<30)/t.Branch {
			return 0, fmt.Errorf("shardrun: tree %d^%d overflows", t.Branch, t.Depth)
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
		return nil, err
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

// NewLoopbackTree builds an in-process hierarchical engine serving
// branch^depth leaf shards in total (see loopbackTree). It is the engine
// behind topk.Config.Tree and topkmon -tree.
func NewLoopbackTree(cfg Config, branch, depth int) (*Engine, error) {
	links, err := loopbackTree(&cfg, branch, depth)
	if err != nil {
		return nil, err
	}
	return New(cfg, links)
}

// RestoreLoopbackTree is Restore over fresh loopback subtrees, the
// counterpart of NewLoopbackTree.
func RestoreLoopbackTree(cfg Config, branch, depth int, machFrame []byte, last []int64) (*Engine, error) {
	links, err := loopbackTree(&cfg, branch, depth)
	if err != nil {
		return nil, err
	}
	return Restore(cfg, links, machFrame, last)
}

// Tree returns the configured tree shape (the zero Tree when flat).
func (e *Engine) Tree() Tree { return e.tree }

// Leaves returns the number of leaf shards the engine serves: the
// configured tree's leaf count, or the direct link count when flat.
func (e *Engine) Leaves() int {
	if n, err := e.tree.Leaves(); err == nil {
		return n
	}
	return e.Shards()
}
