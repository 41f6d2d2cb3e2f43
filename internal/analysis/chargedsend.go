package analysis

import (
	"go/ast"
	"go/types"
)

// ChargedSend guards Theorem 4.2's bit accounting: the paper's
// communication bounds are claims about *counted* messages, so every
// transport frame an engine emits must be visible to a comm ledger —
// either charged directly next to the send (the link fan's ledger,
// RecordSized beside link.Send in fanout.Fan.ship — a root's link ledger, an
// interior relay's per-level counter) or emitted from a charged context:
// a function that drives the coord package, whose Machine/Nodes own the
// model ledger and have already charged the message the frame carries.
//
// Concretely: inside internal/fanout, internal/netrun and
// internal/shardrun, a call to a transport-package Send must live in a
// function that — directly or through same-package helpers it calls —
// charges a comm ledger (RecordSized, the one method of comm.Recorder) or
// calls into the coord package. The serve loops qualify through their
// respond helpers, which drive the node banks (the leaf server) or fold
// digests under the coord package's tag order (the interior, whose
// child-facing frames the fan charges); a function that reaches neither is
// emitting bytes no ledger can see.
//
// transport.Flush is deliberately not checked: it releases bytes a
// checked Send already buffered and never introduces new payload.
//
// The audited exceptions, suppressed line-by-line with //lint:topk
// chargedsend <reason>, fall into two classes: control frames outside
// the model (Shutdown on teardown), and the StatsPoll diagnostics
// exchange, which is uncharged by design so polling cannot perturb the
// ledgers it reports — one of each, both in fanout.Fan.
var ChargedSend = &Analyzer{
	Name: "chargedsend",
	Doc:  "every engine transport send must be charged to a comm ledger or replay a machine-charged effect",
	Run:  runChargedSend,
}

func runChargedSend(pass *Pass) error {
	if !scoped(pass, "fanout", "netrun", "shardrun") {
		return nil
	}

	type funcInfo struct {
		decl    *ast.FuncDecl
		sends   []*ast.CallExpr
		charges bool
		callees []*types.Func
	}
	infos := make(map[*types.Func]*funcInfo)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{decl: fd}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pass.TypesInfo, call)
				if callee == nil {
					return true
				}
				switch {
				case fromPackage(callee, "transport") && callee.Name() == "Send":
					fi.sends = append(fi.sends, call)
				case fromPackage(callee, "comm") && callee.Name() == "RecordSized":
					fi.charges = true
				case fromPackage(callee, "coord"):
					// Driving the machine or a node bank: the ledger
					// owner charges the model messages these frames
					// carry.
					fi.charges = true
				case callee.Pkg() == pass.Pkg:
					fi.callees = append(fi.callees, callee)
				}
				return true
			})
			infos[fn] = fi
		}
	}

	// Propagate the charged property through same-package calls to a
	// fixed point: a serve loop that charges via its respond helper is a
	// charged context for the replies it ships.
	for changed := true; changed; {
		changed = false
		for _, fi := range infos {
			if fi.charges {
				continue
			}
			for _, callee := range fi.callees {
				if ci := infos[callee]; ci != nil && ci.charges {
					fi.charges = true
					changed = true
					break
				}
			}
		}
	}

	for _, fi := range infos {
		if fi.charges {
			continue
		}
		for _, call := range fi.sends {
			pass.Reportf(call.Pos(), "transport send in %s is not visible to any comm ledger: charge it (RecordSized on a comm ledger) or drive it from the coord machine; uncounted bytes break the paper's bit accounting", fi.decl.Name.Name)
		}
	}
	return nil
}
