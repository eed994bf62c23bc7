// Package lint implements soterialint, the repository's pure-stdlib
// static-analysis driver. The reproduction's guarantees — bit-identical
// feature vectors and models across runs, machines, and refactors —
// depend on invariants no compiler enforces: no wall-clock or global
// RNG input to model-affecting code, no iteration-order-sensitive
// accumulation, disciplined use of the internal/par worker pool, and
// checked errors on every persistence path. Each analyzer in this
// package machine-checks one of those invariants so `go test ./...`
// fails when a PR reintroduces a violation, instead of relying on
// reviewer vigilance.
//
// Intentional exceptions are suppressed in place with
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory: a suppression without one is itself reported, so every
// exception stays documented where it lives.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Diagnostic is one reported violation, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check. Run inspects the package in
// pass and reports violations through pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pass *Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the import path the package was loaded as; external
	// test packages carry a "_test" suffix. Analyzers use it to scope
	// themselves (see BasePath).
	PkgPath string
	// Facts is the whole-repo interprocedural fact store, populated when
	// the pass is part of a multi-package run (RunPackageFacts / Run).
	// Nil in single-package mode; every Facts query is nil-safe, so
	// analyzers degrade to their intraprocedural rules.
	Facts *Facts

	report func(Diagnostic)
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// BasePath returns the pass's package path with any external-test
// suffix removed, so scope checks treat foo and foo_test alike.
func (p *Pass) BasePath() string {
	return strings.TrimSuffix(p.PkgPath, "_test")
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		ParMisuseAnalyzer,
		PersistErrAnalyzer,
		PackedKeyAnalyzer,
		HotAllocAnalyzer,
		BatchMissAnalyzer,
		ObsHotAnalyzer,
		LockSafeAnalyzer,
		CtxFlowAnalyzer,
	}
}

// ByName resolves a comma-separated analyzer list; unknown names error.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
	}
	return out, nil
}

// RunPackage applies every analyzer to one loaded package in
// single-package (intraprocedural) mode: no fact store is attached, so
// summary-driven rules stay silent and only the syntactic rules fire.
// Results are filtered through //lint:ignore suppressions and returned
// sorted by position. Malformed suppressions (missing analyzer or
// reason) are reported under the pseudo-analyzer "ignore".
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return RunPackageFacts(pkg, analyzers, nil)
}

// RunPackageFacts is RunPackage with a whole-repo fact store attached
// to every pass, enabling the interprocedural rules. Run (run.go)
// computes facts once across all loaded packages and calls this per
// package.
func RunPackageFacts(pkg *Package, analyzers []*Analyzer, facts *Facts) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			PkgPath:  pkg.Path,
			Facts:    facts,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		a.Run(pass)
	}
	sup, bad := suppressions(pkg)
	diags = append(filterSuppressed(diags, sup), bad...)
	sortDiagnostics(diags)
	return diags
}

const ignoreDirective = "//lint:ignore"

// suppressKey identifies one (file, line, analyzer) suppression target.
type suppressKey struct {
	file     string
	line     int
	analyzer string
}

// suppressions indexes every well-formed //lint:ignore directive in the
// package and reports malformed ones. A directive on line n suppresses
// matching diagnostics on lines n and n+1, so it works both as an
// end-of-line comment and as a standalone comment above the statement.
func suppressions(pkg *Package) (map[suppressKey]bool, []Diagnostic) {
	sup := make(map[suppressKey]bool)
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignoreDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignoreDirective)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:ignored — not ours
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "ignore",
						Message:  "malformed //lint:ignore directive: need \"//lint:ignore <analyzer> <reason>\"",
					})
					continue
				}
				names := strings.Split(fields[0], ",")
				valid := true
				for _, n := range names {
					if _, err := ByName(n); err != nil {
						bad = append(bad, Diagnostic{
							Pos:      pos,
							Analyzer: "ignore",
							Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q", n),
						})
						valid = false
					}
				}
				if !valid {
					continue
				}
				for _, n := range names {
					for _, line := range []int{pos.Line, pos.Line + 1} {
						sup[suppressKey{pos.Filename, line, n}] = true
					}
				}
			}
		}
	}
	return sup, bad
}

func filterSuppressed(diags []Diagnostic, sup map[suppressKey]bool) []Diagnostic {
	if len(sup) == 0 {
		return diags
	}
	out := diags[:0]
	for _, d := range diags {
		if sup[suppressKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			continue
		}
		out = append(out, d)
	}
	return out
}
