package lint

import (
	"path/filepath"
	"testing"
)

// TestInterprocRegression pins the gap between the syntactic and
// summary-driven modes on the three upgraded analyzers: each directory
// fixture hides its violation behind wrapper functions, so the old
// single-package mode (RunPackage, nil facts) must find NOTHING while
// the whole-repo mode (RunPackageFacts over computed facts) must find
// exactly the fixture's want set. If the syntactic mode ever starts
// catching these, the fixture no longer guards the interprocedural
// machinery; if the facts mode misses them, the machinery regressed.
func TestInterprocRegression(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		dir      string
	}{
		{DeterminismAnalyzer, filepath.Join("testdata", "determinism", "interproc")},
		{PersistErrAnalyzer, filepath.Join("testdata", "persisterr", "interproc")},
		{CtxFlowAnalyzer, filepath.Join("testdata", "ctxflow", "interproc")},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			tmp, want := materializeDirFixture(t, tc.dir)
			if len(want) == 0 {
				t.Fatalf("fixture %s declares no wants; it proves nothing", tc.dir)
			}
			pkgs := loadDirFixture(t, tmp)

			var syntactic []Diagnostic
			for _, pkg := range pkgs {
				syntactic = append(syntactic, RunPackage(pkg, []*Analyzer{tc.analyzer})...)
			}
			for _, d := range syntactic {
				t.Errorf("syntactic mode unexpectedly caught %s:%d: %s — the fixture no longer isolates the interprocedural gap", d.Pos.Filename, d.Pos.Line, d.Message)
			}

			facts := ComputeFacts(pkgs)
			caught := make(map[fixtureKey]bool)
			for _, pkg := range pkgs {
				for _, d := range RunPackageFacts(pkg, []*Analyzer{tc.analyzer}, facts) {
					rel, err := filepath.Rel(tmp, d.Pos.Filename)
					if err != nil {
						t.Fatal(err)
					}
					caught[fixtureKey{filepath.ToSlash(rel), d.Pos.Line}] = true
				}
			}
			for k := range want {
				if !caught[k] {
					t.Errorf("facts mode missed the %s violation at %s:%d", tc.analyzer.Name, k.file, k.line)
				}
			}
		})
	}
}
