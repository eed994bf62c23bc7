package lint

import "sort"

// RunOptions configures one driver-level run of the analyzer suite.
type RunOptions struct {
	Root      string // module root directory
	Module    string // module path
	Tests     bool   // analyze _test.go files
	Patterns  []string
	Analyzers []*Analyzer
	// WantFacts returns the computed fact store on the result.
	WantFacts bool
}

// PackageError is one package that failed to parse or type-check.
type PackageError struct {
	Path string
	Err  error
}

// RunResult is the outcome of Run.
type RunResult struct {
	Diags []Diagnostic
	// Broken lists packages whose analysis was refused because they do
	// not type-check; when non-empty the run is unreliable and the
	// driver exits 2.
	Broken []PackageError
	// Facts is the computed fact store (nil unless WantFacts).
	Facts *Facts
}

// Run executes the analyzer suite over the packages the patterns
// denote, with whole-repo interprocedural facts computed once across
// every package that type-checks.
func Run(opts RunOptions) (*RunResult, error) {
	if len(opts.Analyzers) == 0 {
		opts.Analyzers = All()
	}
	loader := NewLoader(opts.Root, opts.Module, opts.Tests)
	pkgs, err := loader.LoadPatterns(opts.Patterns)
	if err != nil {
		return nil, err
	}
	res := &RunResult{}
	var clean []*Package
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			for _, e := range pkg.Errors {
				res.Broken = append(res.Broken, PackageError{Path: pkg.Path, Err: e})
			}
			continue
		}
		clean = append(clean, pkg)
	}
	facts := ComputeFacts(clean)
	for _, pkg := range clean {
		res.Diags = append(res.Diags, RunPackageFacts(pkg, opts.Analyzers, facts)...)
	}
	sortDiagnostics(res.Diags)
	if opts.WantFacts {
		res.Facts = facts
	}
	return res, nil
}

// sortDiagnostics orders diags by (file, line, col, analyzer) — the
// byte-stable order the -json schema pins.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
