package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// streamCheckPackage is the package-path suffix streamcheck patrols: the
// HTTP layer, whose NDJSON batch endpoint streams frames for minutes at a
// time.
const streamCheckPackage = "internal/service"

// StreamCheck hardens the streaming writers in internal/service:
//
//  1. The error results of frame-producing calls — (*json.Encoder).Encode,
//     (*bufio.Writer).Flush, and the service's own ndjsonWriter.frame, its
//     non-flushing twin ndjsonWriter.bufferedFrame and its writer of
//     pre-encoded frames ndjsonWriter.encodedFrame — must be checked. A
//     dropped write error means the handler keeps solving cells for a
//     client that hung up.
//
//  2. Any loop that writes frames must consult its request context
//     (ctx.Err(), ctx.Done(), or r.Context()) somewhere in the loop, so a
//     disconnected client stops the work promptly instead of after the
//     whole batch.
var StreamCheck = &Analyzer{
	Name: "streamcheck",
	Doc:  "NDJSON frame writers must check Encode/Flush/frame errors and honor context cancellation",
	Run:  runStreamCheck,
}

func runStreamCheck(pass *Pass) error {
	if !strings.HasSuffix(pass.PkgPath, streamCheckPackage) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		checkDiscardedFrameErrors(pass, f)
		checkStreamingLoops(pass, f)
	}
	return nil
}

// checkDiscardedFrameErrors flags frame-producing calls whose error result
// is dropped — either a bare expression statement or an assignment to _.
func checkDiscardedFrameErrors(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if name, ok := frameCall(pass.Info, call); ok {
					pass.Reportf(call.Pos(), "%s error discarded; a failed frame write means the client is gone — check it and stop streaming", name)
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				name, ok := frameCall(pass.Info, call)
				if !ok {
					continue
				}
				// Single-call assignment: the last LHS receives the error.
				if len(st.Rhs) == 1 && len(st.Lhs) > 0 {
					if id, ok := st.Lhs[len(st.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
						pass.Reportf(call.Pos(), "%s error assigned to _; check it and stop streaming on failure", name)
					}
				} else if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
					pass.Reportf(call.Pos(), "%s error assigned to _; check it and stop streaming on failure", name)
				}
			}
		}
		return true
	})
}

// frameCall reports whether call is a frame-producing call whose error
// must be checked, returning a short name for diagnostics.
func frameCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if _, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); !ok {
		return "", false
	}
	path, name := calleePkgPath(info, call)
	switch {
	case path == "encoding/json" && name == "Encode":
		return "(*json.Encoder).Encode", true
	case path == "bufio" && name == "Flush":
		return "(*bufio.Writer).Flush", true
	case (name == "frame" || name == "bufferedFrame" || name == "encodedFrame") && strings.HasSuffix(path, streamCheckPackage):
		return "ndjsonWriter." + name, true
	}
	return "", false
}

// checkStreamingLoops flags for/range loops that write frames without
// consulting a context inside the loop.
func checkStreamingLoops(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch st := n.(type) {
		case *ast.ForStmt:
			body = st.Body
		case *ast.RangeStmt:
			body = st.Body
		default:
			return true
		}
		if !loopWritesFrames(pass.Info, body) {
			return true
		}
		if loopChecksContext(pass.Info, body) {
			return true
		}
		pass.Reportf(n.Pos(), "streaming loop writes frames without consulting the request context; check ctx.Err()/ctx.Done() each iteration so a disconnect stops the work")
		return true
	})
}

func loopWritesFrames(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := frameCall(info, call); ok {
				found = true
			}
		}
		return !found
	})
	return found
}

// loopChecksContext looks for any use of a context.Context inside the
// loop: ctx.Err(), <-ctx.Done(), r.Context().Err(), a select case on
// Done(), etc. Any method call on a context counts.
func loopChecksContext(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		t := info.TypeOf(sel.X)
		if t == nil {
			return true
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context" {
				found = true
			}
		}
		return !found
	})
	return found
}
