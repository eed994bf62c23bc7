package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlowAnalyzer enforces context propagation on the serving tier
// (the root package, internal/core, the internal/fleet front door, and
// every cmd tool): once a
// request carries a context, every downstream call must honor it, or
// cancelled requests keep consuming batcher slots and worker time.
// Inside an http.Handler body or any function that accepts a
// context.Context:
//
//  1. minting a fresh context with context.Background or context.TODO
//     is forbidden — handlers must derive from r.Context(), context-
//     carrying functions from their ctx parameter;
//  2. with whole-repo facts, calling any module function that
//     transitively mints a bare context (and does not itself accept
//     one) is flagged — the wrapper hides the drop, the analyzer
//     follows it.
//
// Functions outside the serving tier, and functions with neither a
// handler signature nor a ctx parameter, are not checked: code with no
// context in hand has nothing to propagate.
var CtxFlowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Doc:  "require request contexts to flow through the serving tier instead of being dropped or re-minted",
	Run:  runCtxFlow,
}

func ctxFlowInScope(base string) bool {
	return base == "soteria" ||
		base == "soteria/internal/core" ||
		base == "soteria/internal/fleet" ||
		base == "soteria/internal/registry" ||
		strings.HasPrefix(base, "soteria/cmd/")
}

// ctxKind classifies a checked function body.
type ctxKind int

const (
	ctxKindHandler ctxKind = iota // func(http.ResponseWriter, *http.Request)
	ctxKindCtxFn                  // accepts a context.Context parameter
)

func runCtxFlow(pass *Pass) {
	if !ctxFlowInScope(pass.BasePath()) {
		return
	}
	for _, f := range pass.Files {
		// First sweep: find every qualifying body so the per-body walk
		// can skip nested qualifying literals (each is checked once,
		// against its own kind).
		type checked struct {
			body *ast.BlockStmt
			kind ctxKind
		}
		var targets []checked
		qualifying := make(map[*ast.BlockStmt]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var sig *types.Signature
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
				if fn, ok := pass.Info.Defs[n.Name].(*types.Func); ok {
					sig, _ = fn.Type().(*types.Signature)
				}
			case *ast.FuncLit:
				body = n.Body
				sig, _ = pass.Info.TypeOf(n).(*types.Signature)
			default:
				return true
			}
			if body == nil || sig == nil {
				return true
			}
			switch {
			case isHandlerSig(sig):
				targets = append(targets, checked{body, ctxKindHandler})
				qualifying[body] = true
			case hasContextParam(sig):
				targets = append(targets, checked{body, ctxKindCtxFn})
				qualifying[body] = true
			}
			return true
		})
		for _, t := range targets {
			checkCtxBody(pass, t.body, t.kind, qualifying)
		}
	}
}

// checkCtxBody walks one qualifying body, skipping nested bodies that
// qualify on their own (they get their own pass).
func checkCtxBody(pass *Pass, body *ast.BlockStmt, kind ctxKind, qualifying map[*ast.BlockStmt]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BlockStmt); ok && b != body && qualifying[b] {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			checkCtxCall(pass, call, kind)
		}
		return true
	})
}

// checkCtxCall applies the two rules to one call site, most specific
// first, reporting at most once.
func checkCtxCall(pass *Pass, call *ast.CallExpr, kind ctxKind) {
	// Rule 1: a direct context.Background/TODO call.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if name, ok := pkgFunc(pass.Info, sel, "context"); ok && (name == "Background" || name == "TODO") {
			src := "the ctx parameter"
			if kind == ctxKindHandler {
				src = "r.Context()"
			}
			pass.Reportf(call.Pos(), "context.%s mints a fresh context inside a context-carrying path; derive from %s instead", name, src)
			return
		}
	}
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || hasContextParam(sig) {
		return // callee accepts a context; propagation is its problem
	}
	// Rule 2: the callee transitively mints a bare context.
	if pass.Facts.Has(FuncID(fn), FactCallsBareContext) {
		pass.Reportf(call.Pos(), "call to %s reaches context.Background/TODO without accepting a context; plumb the caller's context through it", fn.Name())
	}
}

// isHandlerSig reports whether sig is func(http.ResponseWriter,
// *http.Request) — the standard handler shape.
func isHandlerSig(sig *types.Signature) bool {
	params := sig.Params()
	if params.Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	return isHTTPNamed(params.At(0).Type(), "ResponseWriter", false) &&
		isHTTPNamed(params.At(1).Type(), "Request", true)
}

// isHTTPNamed reports whether t is net/http.<name>, optionally behind
// one pointer.
func isHTTPNamed(t types.Type, name string, wantPtr bool) bool {
	t = types.Unalias(t)
	if wantPtr {
		p, ok := t.(*types.Pointer)
		if !ok {
			return false
		}
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == name
}
