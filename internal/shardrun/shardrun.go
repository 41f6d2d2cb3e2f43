// Package shardrun is what is left of the hierarchical coordinator, which
// is now internal/fanout's Engine over a coordinator tree (fanout.Tree,
// fanout.ServeRelay): forwarders for the names the benchmark harness
// imports. They go once the harness reaches trees through topk.Config.Tree;
// docs_test.go's TestStrategyPackagesOnlyForward keeps them from growing
// back meanwhile.
package shardrun

import (
	"repro/internal/fanout"
	"repro/internal/transport"
)

// Config is fanout.Config.
type Config = fanout.Config

// Tree is fanout.Tree.
type Tree = fanout.Tree

// Engine is fanout.Engine.
type Engine = fanout.Engine

// New is fanout.New.
func New(cfg Config, links []transport.Link) (*Engine, error) { return fanout.New(cfg, links) }

// ServeShard is fanout.Serve: a leaf of the tree.
func ServeShard(link transport.Link) error { return fanout.Serve(link) }

// ServeInterior is fanout.ServeRelay: a relay of the tree.
func ServeInterior(parent transport.Link, children []transport.Link) error {
	return fanout.ServeRelay(parent, children)
}
