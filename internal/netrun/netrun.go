// Package netrun is what is left of the networked engine, which is now
// internal/fanout's Engine over a flat set of node hosts: a forwarder for
// the one name the benchmark harness imports. It goes once the harness
// reaches hosts through topk.ServeNodes; docs_test.go's
// TestStrategyPackagesOnlyForward keeps it from growing back meanwhile.
package netrun

import (
	"repro/internal/fanout"
	"repro/internal/transport"
)

// Serve is fanout.Serve: a node host on one link.
func Serve(link transport.Link) error { return fanout.Serve(link) }
