package lint

import (
	"go/ast"
	"go/types"
)

// summarizeBody walks one function body (or package-level initializer
// expression) and records base facts and static call edges on n. Nested
// function literals are included: conservatively, defining a literal
// that does X means the enclosing function may reach X.
func summarizeBody(pkg *Package, body ast.Node, n *funcNode) {
	sanctioned := n.pkg == obsPath // observability boundary: clock reads allowed
	ast.Inspect(body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			summarizeCall(pkg, call, n, sanctioned)
		}
		return true
	})
}

// summarizeCall records the facts and the call edge of one call site.
func summarizeCall(pkg *Package, call *ast.CallExpr, n *funcNode, sanctioned bool) {
	info := pkg.Info
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && !sanctioned {
		if name, ok := pkgFunc(info, sel, "time"); ok {
			switch name {
			case "Now", "Since", "Until":
				n.facts |= FactReadsClock
			}
		}
		for _, path := range []string{"math/rand", "math/rand/v2"} {
			name, ok := pkgFunc(info, sel, path)
			if !ok {
				continue
			}
			if _, isFunc := info.Uses[sel.Sel].(*types.Func); isFunc && !randConstructors[name] {
				n.facts |= FactReadsGlobalRand
			}
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if name, ok := pkgFunc(info, sel, "context"); ok && (name == "Background" || name == "TODO") {
			n.facts |= FactCallsBareContext
		}
	}

	name := calleeName(call)
	if n.returnsError && persistFamily(name) {
		if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok && returnsError(sig) {
			exempt := false
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && alwaysNilErrWriter(info.TypeOf(sel.X)) {
				exempt = true
			}
			if !exempt {
				n.facts |= FactForwardsPersistError
			}
		}
	}

	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if isLockAcquire(fn) {
		n.facts |= FactAcquiresLock
	}
	// Only module-internal edges enter the graph: stdlib bodies are not
	// loaded, so edges into them could never carry facts.
	if moduleOf(fn.Pkg().Path()) == moduleOf(n.pkg) {
		n.callees = append(n.callees, FuncID(fn))
	}
}

// isLockAcquire matches sync.Mutex/RWMutex Lock-family methods.
func isLockAcquire(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
	default:
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && (named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}
