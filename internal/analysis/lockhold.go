package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// lockHoldPackages are the package-path suffixes lockhold patrols. The
// cache store's mutex serializes every request's fast path, the service
// metrics mutex sits inside each HTTP handler, and the flight recorder's
// mutex is taken on every solve; blocking under any of them turns one slow
// solve into a server-wide stall.
var lockHoldPackages = []string{
	"internal/cache",
	"internal/service",
	"internal/obs",
}

// lockHoldSolverPackages identify "a solver call": any call into the model
// layers. Solves take milliseconds to minutes — never acceptable under a
// serving-path mutex.
var lockHoldSolverPackages = []string{
	"internal/alloc",
	"internal/core",
	"internal/dynamics",
	"internal/mm1",
	"internal/scenario",
	"internal/sweep",
	"internal/validate",
	"internal/netsim",
}

// lockHoldIOPackages identify blocking or I/O-shaped calls. Pure
// formatting (fmt.Sprintf, fmt.Errorf) is fine; writer-directed calls are
// not.
var lockHoldIOPackages = map[string]bool{
	"os":       true,
	"io":       true,
	"bufio":    true,
	"net":      true,
	"net/http": true,
}

// LockHold forbids blocking work while holding the internal/cache or
// internal/service mutexes: solver calls, channel operations, select,
// sync waits, and I/O. Critical sections in these packages must stay
// O(map probe): take a snapshot under the lock, release, then do the slow
// thing (the pattern Store.DoContext already follows).
//
// The analysis is intra-procedural and syntactic about lock regions: a
// region opens at x.Lock()/x.RLock() on a sync.Mutex/RWMutex-typed
// receiver and closes at the matching x.Unlock()/x.RUnlock(); a deferred
// unlock holds to the end of the function.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc:  "forbid solver calls, channel ops, and I/O while holding cache/service mutexes",
	Run:  runLockHold,
}

func runLockHold(pass *Pass) error {
	patrolled := false
	for _, suffix := range lockHoldPackages {
		if strings.HasSuffix(pass.PkgPath, suffix) {
			patrolled = true
			break
		}
	}
	if !patrolled {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkLockRegions(pass, fd.Body, newHeldSet())
			}
		}
	}
	return nil
}

// heldSet tracks which mutexes are held, keyed by the printed receiver
// expression ("s.mu").
type heldSet map[string]bool

func newHeldSet() heldSet { return make(heldSet) }

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

func (h heldSet) any() bool {
	for _, v := range h {
		if v {
			return true
		}
	}
	return false
}

// checkLockRegions walks a statement list, threading the held-mutex state
// through sequential statements and recursing into nested blocks.
// Branches are analyzed with a copy of the state; a branch that cannot
// fall through (ends in return/panic) does not affect the state after the
// construct, while unlocks on fall-through paths do. This is deliberately
// optimistic — it exists to catch the "solve under the cache mutex" class
// of mistake, not to prove lock correctness.
func checkLockRegions(pass *Pass, block *ast.BlockStmt, held heldSet) {
	for _, st := range block.List {
		lockHoldStmt(pass, st, held)
	}
}

func lockHoldStmt(pass *Pass, st ast.Stmt, held heldSet) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if name, op, ok := mutexOp(pass.Info, st.X); ok {
			switch op {
			case "Lock", "RLock":
				held[name] = true
			case "Unlock", "RUnlock":
				held[name] = false
			}
			return
		}
		lockHoldExpr(pass, st.X, held)
	case *ast.DeferStmt:
		if name, op, ok := mutexOp(pass.Info, st.Call); ok && (op == "Unlock" || op == "RUnlock") {
			// Deferred unlock: the mutex stays held for the remainder of
			// the function body; keep scanning with it held.
			_ = name
			return
		}
		lockHoldExpr(pass, st.Call, held)
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			lockHoldExpr(pass, rhs, held)
		}
	case *ast.DeclStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				lockHoldExpr(pass, e, held)
				return false
			}
			return true
		})
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			lockHoldExpr(pass, r, held)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			lockHoldStmt(pass, st.Init, held)
		}
		lockHoldExpr(pass, st.Cond, held)
		body := held.clone()
		checkLockRegions(pass, st.Body, body)
		if !terminates(st.Body) {
			mergeUnlocks(held, body)
		}
		if st.Else != nil {
			els := held.clone()
			switch e := st.Else.(type) {
			case *ast.BlockStmt:
				checkLockRegions(pass, e, els)
				if !terminates(e) {
					mergeUnlocks(held, els)
				}
			case *ast.IfStmt:
				lockHoldStmt(pass, e, els)
				mergeUnlocks(held, els)
			}
		}
	case *ast.ForStmt:
		if st.Init != nil {
			lockHoldStmt(pass, st.Init, held)
		}
		if st.Cond != nil {
			lockHoldExpr(pass, st.Cond, held)
		}
		checkLockRegions(pass, st.Body, held.clone())
	case *ast.RangeStmt:
		lockHoldExpr(pass, st.X, held)
		checkLockRegions(pass, st.Body, held.clone())
	case *ast.BlockStmt:
		checkLockRegions(pass, st, held)
	case *ast.SwitchStmt:
		if st.Tag != nil {
			lockHoldExpr(pass, st.Tag, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				inner := held.clone()
				for _, s := range cc.Body {
					lockHoldStmt(pass, s, inner)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				inner := held.clone()
				for _, s := range cc.Body {
					lockHoldStmt(pass, s, inner)
				}
			}
		}
	case *ast.SelectStmt:
		if held.any() {
			pass.Reportf(st.Pos(), "select while holding %s blocks every other request; release the mutex first", heldNames(held))
		}
	case *ast.SendStmt:
		if held.any() {
			pass.Reportf(st.Pos(), "channel send while holding %s; release the mutex first", heldNames(held))
		}
		lockHoldExpr(pass, st.Value, held)
	case *ast.GoStmt:
		// Spawning is non-blocking; the goroutine body runs without the
		// caller's locks, so scan it with a fresh state.
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			checkLockRegions(pass, fl.Body, newHeldSet())
		}
	case *ast.LabeledStmt:
		lockHoldStmt(pass, st.Stmt, held)
	}
}

// lockHoldExpr flags blocking expressions (channel receives, solver and
// I/O calls) evaluated while a mutex is held, and recurses into nested
// calls. Func literals are scanned with a fresh state only when invoked
// directly; stored closures run later, without the lock necessarily held.
func lockHoldExpr(pass *Pass, e ast.Expr, held heldSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && held.any() {
				pass.Reportf(n.Pos(), "channel receive while holding %s; release the mutex first", heldNames(held))
			}
		case *ast.CallExpr:
			if !held.any() {
				return true
			}
			path, name := calleePkgPath(pass.Info, n)
			if path == "" {
				return true
			}
			for _, solver := range lockHoldSolverPackages {
				if strings.HasSuffix(path, solver) {
					pass.Reportf(n.Pos(), "solver call %s.%s while holding %s; snapshot under the lock and solve outside it", path[strings.LastIndex(path, "/")+1:], name, heldNames(held))
					return true
				}
			}
			if lockHoldIOPackages[path] {
				pass.Reportf(n.Pos(), "%s.%s (blocking/I/O) while holding %s; release the mutex first", path, name, heldNames(held))
				return true
			}
			if path == "fmt" && strings.HasPrefix(name, "Fprint") {
				pass.Reportf(n.Pos(), "fmt.%s writes to an io.Writer while holding %s; format after releasing", name, heldNames(held))
			}
			if path == "sync" && name == "Wait" {
				pass.Reportf(n.Pos(), "sync WaitGroup.Wait while holding %s deadlocks waiters; release the mutex first", heldNames(held))
			}
		}
		return true
	})
}

// mutexOp recognizes x.Lock()/x.Unlock()/x.RLock()/x.RUnlock() calls on a
// sync.Mutex or sync.RWMutex receiver and returns the printed receiver
// name and the operation.
func mutexOp(info *types.Info, e ast.Expr) (name, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return "", "", false
	}
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", "", false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return exprString(sel.X), sel.Sel.Name, true
	}
	return "", "", false
}

// mergeUnlocks applies unlocks observed on a fall-through branch to the
// outer state: if the branch released a mutex, treat it as released after
// the construct (optimistic, minimizes false positives).
func mergeUnlocks(outer, branch heldSet) {
	for k, v := range branch {
		if !v {
			outer[k] = false
		}
	}
}

// terminates reports whether a block's last statement unconditionally
// leaves the function (return or panic), so its lock effects never reach
// the code after the enclosing if.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func heldNames(held heldSet) string {
	var names []string
	for k, v := range held {
		if v {
			names = append(names, k)
		}
	}
	if len(names) == 0 {
		return "a mutex"
	}
	// Deterministic order for stable diagnostics.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return strings.Join(names, ", ")
}

// exprString renders a selector chain ("s.mu") for region matching and
// diagnostics; non-ident forms collapse to a stable placeholder.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	default:
		return "<expr>"
	}
}
