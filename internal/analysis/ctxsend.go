package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxSend guards the chaos suites' "never hang" invariant statically: an
// engine or ingestion goroutine that performs a bare, unguarded channel
// operation can block forever once its peer dies, turning a clean
// fail-stop into a leaked goroutine (or a deadlocked Close). Inside
// internal/fanout, internal/netrun, internal/shardrun, internal/ingest
// and internal/transport, every channel send or receive executed on a
// goroutine launched with `go` must be either
//
//   - a case of a select with at least two clauses (one of them a
//     done/ctx/stop release path or a default), or
//   - a `for range ch` receive, whose release mechanism is close(ch).
//
// A bare operation that is provably non-blocking — a send on a buffered
// channel whose capacity an owed-reply discipline can never exceed, like
// the fan-out core's reader-goroutine result channels — is suppressed with
// //lint:topk ctxsend <the non-blocking argument>, which keeps the proof
// obligation attached to the line it protects.
//
// The concurrent in-process runtime (internal/runtime) is deliberately
// out of scope: its shard pool's hand-off and completion channels follow a
// bounded round-trip with no remote failure mode, pinned by the
// equivalence and race suites.
var CtxSend = &Analyzer{
	Name: "ctxsend",
	Doc:  "no bare channel operations in engine/ingest goroutines without a select on a done/ctx release path",
	Run:  runCtxSend,
}

func runCtxSend(pass *Pass) error {
	if !scoped(pass, "fanout", "netrun", "shardrun", "ingest", "transport") {
		return nil
	}
	analyzed := make(map[*ast.FuncDecl]bool)
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(g.Call.Fun).(type) {
			case *ast.FuncLit:
				checkGoroutineBody(pass, fun.Body)
			default:
				if fn := calleeFunc(pass.TypesInfo, g.Call); fn != nil {
					if fd := decls[fn]; fd != nil && fd.Body != nil && !analyzed[fd] {
						analyzed[fd] = true
						checkGoroutineBody(pass, fd.Body)
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkGoroutineBody flags unguarded channel operations in one goroutine
// body. Nested go statements are skipped — each is the root of its own
// goroutine and is checked from its own launch site.
func checkGoroutineBody(pass *Pass, body *ast.BlockStmt) {
	// Bless the comm statements of qualifying selects: a select with a
	// second clause always has a release path to take.
	blessed := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok || len(sel.Body.List) < 2 {
			return true
		}
		for _, cl := range sel.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				blessed[comm] = true
			case *ast.ExprStmt:
				blessed[ast.Unparen(comm.X)] = true
			case *ast.AssignStmt:
				for _, rhs := range comm.Rhs {
					blessed[ast.Unparen(rhs)] = true
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // its own goroutine, checked at its launch site
		case *ast.SendStmt:
			if !blessed[n] {
				pass.Reportf(n.Pos(), "bare channel send in an engine goroutine can hang forever on a dead peer: select on a done/ctx release path, or suppress with the non-blocking argument")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !blessed[n] {
				pass.Reportf(n.Pos(), "bare channel receive in an engine goroutine can hang forever on a dead peer: select on a done/ctx release path, or suppress with the non-blocking argument")
			}
		}
		return true
	})
}
