package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathMarker is the directive that opts a function into hotpathalloc
// scrutiny. Place it in the function's doc comment:
//
//	// flatAggregate is the devirtualized inner loop.
//	//
//	//pubopt:hotpath
//	func (w *Workspace) flatAggregate(level float64) float64 { ... }
const HotPathMarker = "//pubopt:hotpath"

// HotPathAlloc enforces the 0 allocs/op contract of the warm solve path
// (internal/alloc.Workspace's flattened kernel loop, core.Solver's
// class-game iteration, sweep.RunRows's per-cell work, internal/refine's
// curvature screen and surrogate evaluation) at vet time, before the CI
// benchmark gate can even run.
//
// Inside a function marked //pubopt:hotpath it flags every construct the gc
// compiler turns into a heap allocation on at least some escape-analysis
// outcome:
//
//   - slice and map composite literals, and &T{...} (heap-escaping literal);
//   - make and new;
//   - append (growth allocates; preallocate in the workspace instead);
//   - func literals capturing enclosing variables (closure allocation);
//   - any call into package fmt (formatting allocates and boxes);
//   - implicit interface conversions at call sites and explicit
//     conversions to interface types (boxing).
//
// One-time setup cost inside a hot function (e.g. a per-call worker spawn
// amortized over thousands of cells) is suppressed explicitly with
// //pubopt:allow(hotpathalloc): <why this is not per-iteration>.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid allocation-inducing constructs in //pubopt:hotpath functions",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcDocMarked(fd, HotPathMarker) {
				continue
			}
			checkHotPathBody(pass, fd)
		}
	}
	return nil
}

func checkHotPathBody(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "hot path: slice literal allocates")
			case *types.Map:
				pass.Reportf(n.Pos(), "hot path: map literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "hot path: &composite literal escapes to the heap")
				}
			}
		case *ast.FuncLit:
			if capturesEnclosing(info, fd, n) {
				pass.Reportf(n.Pos(), "hot path: func literal captures enclosing variables (closure allocates)")
			}
		case *ast.CallExpr:
			checkHotPathCall(pass, n)
		}
		return true
	})
}

// checkHotPathCall flags allocating builtins, fmt calls, and interface
// boxing at call boundaries.
func checkHotPathCall(pass *Pass, call *ast.CallExpr) {
	info := pass.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "make":
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				pass.Reportf(call.Pos(), "hot path: make allocates; reuse a workspace buffer")
				return
			}
		case "new":
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				pass.Reportf(call.Pos(), "hot path: new allocates; reuse a workspace field")
				return
			}
		case "append":
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				pass.Reportf(call.Pos(), "hot path: append may grow and allocate; preallocate to capacity")
				return
			}
		}
	}

	if path, name := calleePkgPath(info, call); path == "fmt" {
		pass.Reportf(call.Pos(), "hot path: fmt.%s allocates; move formatting off the hot path", name)
		return
	}

	// Explicit conversion to an interface type: I(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) {
			if len(call.Args) == 1 && !types.IsInterface(info.TypeOf(call.Args[0])) {
				pass.Reportf(call.Pos(), "hot path: conversion to interface boxes its operand")
			}
		}
		return
	}

	// Implicit boxing: a concrete argument passed to an interface parameter.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice: no boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(arg.Pos(), "hot path: argument boxes %s into interface %s", at, pt)
	}
}

// capturesEnclosing reports whether lit references a variable declared in
// fd's scope outside lit itself — the condition under which the compiler
// must heap-allocate a closure (and usually the captured variables too).
func capturesEnclosing(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Declared inside the enclosing function but outside the literal?
		if v.Pos() >= fd.Pos() && v.Pos() < fd.End() &&
			!(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			captured = true
		}
		return true
	})
	return captured
}
