package lint

import (
	"go/ast"
	"go/types"
)

const (
	cnnPath     = "soteria/internal/cnn"
	autoencPath = "soteria/internal/autoenc"
)

// batchMissTargets maps each per-sample scoring entry point to the
// cross-sample batched alternative the diagnostic should steer toward.
// The receiver package disambiguates same-named methods elsewhere.
var batchMissTargets = map[string]struct {
	pkg     string
	batched string
}{
	"Vote":                 {cnnPath, "Ensemble.VoteBatch"},
	"Probs":                {cnnPath, "Classifier.Probs over all rows at once"},
	"ReconstructionError":  {autoencPath, "Detector.ReconstructionErrorsInto"},
	"ReconstructionErrors": {autoencPath, "Detector.ReconstructionErrorsInto over all rows at once"},
}

// BatchMissAnalyzer flags per-sample scoring calls inside worker-pool
// loop bodies: Ensemble.Vote, Classifier.Probs and the detector's
// ReconstructionError(s) each run a forward pass, so calling them once
// per item from a par.For/ForChunked body feeds the blocked GEMM a
// stream of tiny matrices that can never amortize kernel packing —
// per-walk slivers instead of the one large product the batched entry
// points (VoteBatch, ReconstructionErrorsInto) were built to run. Standalone-eval loops
// that knowingly trade throughput for per-sample control carry a
// //lint:ignore batchmiss justification in place.
var BatchMissAnalyzer = &Analyzer{
	Name: "batchmiss",
	Doc: "flag per-sample scoring calls (Vote/Probs/ReconstructionError) " +
		"inside par loop bodies; assemble row matrices and use the batched entry points",
	Run: runBatchMiss,
}

func runBatchMiss(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			parFn, ok := pkgFunc(pass.Info, sel, parPath)
			if !ok {
				return true
			}
			var fnArg ast.Expr
			switch {
			case (parFn == "For" || parFn == "ForChunked") && len(call.Args) == 2:
				fnArg = call.Args[1]
			case parFn == "ForChunkedGrain" && len(call.Args) == 3:
				fnArg = call.Args[2]
			default:
				return true
			}
			lit := resolveFuncLit(pass, f, fnArg)
			if lit == nil {
				return true
			}
			checkScoringCalls(pass, lit, parFn)
			return true
		})
	}
}

// checkScoringCalls reports every per-sample scoring call nested
// anywhere inside the par body (including in nested literals — those
// still execute once per work item).
func checkScoringCalls(pass *Pass, lit *ast.FuncLit, parFn string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, batched, ok := scoringCall(pass.Info, call)
		if !ok {
			return true
		}
		pass.Reportf(call.Pos(),
			"%s inside a par.%s body runs one tiny forward per item and cannot amortize the blocked GEMM; assemble the rows into one matrix and call %s, or justify with //lint:ignore batchmiss",
			name, parFn, batched)
		return true
	})
}

// scoringCall classifies call as one of the per-sample scoring methods
// and returns its display name plus the batched alternative.
func scoringCall(info *types.Info, call *ast.CallExpr) (name, batched string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	target, found := batchMissTargets[fn.Name()]
	if !found || fn.Pkg().Path() != target.pkg {
		return "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", false
	}
	recv := sig.Recv().Type()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	return named.Obj().Name() + "." + fn.Name(), target.batched, true
}
