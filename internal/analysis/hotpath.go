package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotpath enforces the allocation-free contract on functions annotated
// //heimdall:hotpath — the inference paths (PredictInto, AdmitBatchInto,
// Admit) and the replay event heaps whose 0 allocs/op the §5
// latency results depend on. Inside an annotated function the lint flags:
//
//   - calls into fmt or log (formatting allocates and takes locks);
//   - function literals (closure construction allocates);
//   - conversions of concrete values to interface types, explicit or via
//     a call argument (interface boxing allocates);
//   - append whose destination is not rooted at the receiver or a
//     parameter (growing a local or global slice allocates per call);
//   - defer statements (the defer frame and delayed call defeat the fast
//     path);
//   - channel sends, receives, ranges, and go statements (channel ops
//     take locks and may block; spawning a goroutine allocates);
//   - map iteration (the order is nondeterministic and the hidden
//     iterator defeats the fast path).
//
// The AllocsPerRun tests pin the measured behaviour; this pass pins the
// code shape, so a regression is caught at vet time rather than when the
// benchmark next runs. The hotclosure pass extends the same rule set
// transitively to everything a hotpath root calls.
func hotpath(cfg Config, mod *Module, pkg *Package, report reporter) {
	_ = cfg
	_ = mod
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasAnnotation(fd.Doc, annHotpath) {
				continue
			}
			checkHotBody(pkg, fd, "on a //heimdall:hotpath function", report)
		}
	}
}

// checkHotBody applies the hotpath rule set to one function body. The
// where clause frames the findings ("on a //heimdall:hotpath function" for
// the base lint; the hotclosure pass uses a reachability clause and
// prefixes the call chain).
func checkHotBody(pkg *Package, fd *ast.FuncDecl, where string, report func(pos token.Pos, msg string)) {
	info := pkg.Info
	owned := ownedObjects(info, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "closure constructed "+where+"; hoist it or pass a named function")
			return false // the literal itself is the violation; don't re-flag its body
		case *ast.DeferStmt:
			report(n.Pos(), "defer "+where+"; the defer frame and the delayed call defeat the fast path")
		case *ast.GoStmt:
			report(n.Pos(), "go statement "+where+"; spawning a goroutine allocates")
		case *ast.SendStmt:
			report(n.Pos(), "channel send "+where+"; channel ops take locks and may block")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.Pos(), "channel receive "+where+"; channel ops take locks and may block")
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					report(n.Pos(), "map iteration "+where+"; the order is nondeterministic and the hidden iterator defeats the fast path")
				case *types.Chan:
					report(n.Pos(), "range over a channel "+where+"; channel ops take locks and may block")
				}
			}
		case *ast.CallExpr:
			checkHotCall(info, n, owned, where, report)
		}
		return true
	})
}

// ownedObjects collects the receiver and parameter objects of fd: the only
// slices a hotpath function may append to, since growth is then amortized
// by the caller's buffer reuse.
func ownedObjects(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	owned := map[types.Object]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					owned[obj] = true
				}
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	return owned
}

func checkHotCall(info *types.Info, call *ast.CallExpr, owned map[types.Object]bool, where string, report func(pos token.Pos, msg string)) {
	// Explicit conversion T(x)?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && !isInterfaceOrNil(info, call.Args[0]) {
			report(call.Pos(), "conversion to interface type "+tv.Type.String()+" boxes the value (allocates)")
		}
		return
	}
	obj := calleeObject(info, call)
	if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt", "log":
			report(call.Pos(), fn.Pkg().Path()+"."+fn.Name()+" called "+where+"; formatting allocates")
			return
		}
	}
	if b, ok := obj.(*types.Builtin); ok {
		if b.Name() == "append" && len(call.Args) > 0 && !rootedIn(info, call.Args[0], owned) {
			report(call.Pos(), "append to a slice not rooted at the receiver or a parameter; growth allocates per call")
		}
		return
	}
	// Implicit interface conversions at call arguments.
	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice does not box its elements
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if !isInterfaceOrNil(info, arg) {
			report(arg.Pos(), "concrete value passed as interface "+pt.String()+" (boxing allocates)")
		}
	}
}

// callSignature returns the signature of a non-conversion, non-builtin
// call, following named function types.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// isInterfaceOrNil reports whether the argument is already an interface
// value or the untyped nil (neither boxes at the call).
func isInterfaceOrNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return true // be lenient on exotic exprs rather than misfire
	}
	if tv.IsNil() {
		return true
	}
	return types.IsInterface(tv.Type)
}

// rootedIn walks selector/index/star/paren chains to the base identifier
// and reports whether it resolves to one of the owned objects.
func rootedIn(info *types.Info, e ast.Expr, owned map[types.Object]bool) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return owned[obj]
			}
			return false
		default:
			return false
		}
	}
}
