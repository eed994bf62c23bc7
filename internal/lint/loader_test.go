package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLoaderSkipsBuildExcludedFiles proves //go:build constraints are
// honored: a file excluded for this platform must neither contribute
// declarations nor break type-checking of the files that remain.
func TestLoaderSkipsBuildExcludedFiles(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/plat/plat.go": `package plat

func Generic() int { return 1 }
`,
		// An impossible constraint: never buildable, and it references
		// an undefined symbol so accidental inclusion fails loudly.
		"internal/plat/never.go": `//go:build neverever

package plat

func FromExcluded() int { return undefinedSymbol }
`,
	})
	loader := NewLoader(root, "soteria", true)
	pkgs, err := loader.LoadPatterns([]string{"./internal/plat"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if len(pkg.Errors) > 0 {
		t.Fatalf("excluded file leaked into the type-check: %v", pkg.Errors)
	}
	for _, f := range pkg.Files {
		name := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
		if name == "never.go" {
			t.Fatal("build-excluded never.go was parsed into the package")
		}
	}
	if pkg.Types.Scope().Lookup("Generic") == nil {
		t.Fatal("included declaration missing from the package scope")
	}
	if pkg.Types.Scope().Lookup("FromExcluded") != nil {
		t.Fatal("excluded declaration leaked into the package scope")
	}
}

// TestLoaderExternalTestPackage proves foo_test external test packages
// load as their own unit, importing the non-test view of foo, and that
// fact computation attributes their functions to the base package.
func TestLoaderExternalTestPackage(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/thing/thing.go": `package thing

func Value() int { return 42 }
`,
		"internal/thing/thing_ext_test.go": `package thing_test

import (
	"testing"

	"soteria/internal/thing"
)

func TestValue(t *testing.T) {
	if thing.Value() != 42 {
		t.Fatal("wrong value")
	}
}
`,
	})
	loader := NewLoader(root, "soteria", true)
	pkgs, err := loader.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			t.Fatalf("%s: %v", pkg.Path, pkg.Errors)
		}
		paths = append(paths, pkg.Path)
	}
	joined := strings.Join(paths, " ")
	if !strings.Contains(joined, "soteria/internal/thing_test") {
		t.Fatalf("external test package not loaded; got %v", paths)
	}
	facts := ComputeFacts(pkgs)
	if got := facts.PkgOf("soteria/internal/thing_test.TestValue"); got != "soteria/internal/thing" {
		t.Fatalf("external test function attributed to %q, want the base package", got)
	}
}

// TestLoaderExternalTestImportsDependent covers an external test package
// that also imports a package depending on the package under test: as
// with `go test`, the dependent must be checked against the test build,
// or the two views of the package under test disagree on every type.
func TestLoaderExternalTestImportsDependent(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/base/base.go": `package base

type Node struct{ ID int }
`,
		"internal/base/base_test.go": `package base

func helper() Node { return Node{ID: 1} }
`,
		"internal/user/user.go": `package user

import "soteria/internal/base"

func Make(id int) *base.Node { return &base.Node{ID: id} }
`,
		"internal/base/base_ext_test.go": `package base_test

import (
	"testing"

	"soteria/internal/base"
	"soteria/internal/user"
)

func TestMake(t *testing.T) {
	var n *base.Node = user.Make(2)
	if n.ID != 2 {
		t.Fatal("wrong id")
	}
}
`,
	})
	loader := NewLoader(root, "soteria", true)
	pkgs, err := loader.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			t.Fatalf("%s: %v", pkg.Path, pkg.Errors)
		}
	}
}

// TestLoaderTypeErrorIsReportedNotFatal proves a package that fails to
// type-check surfaces through Package.Errors (and Run's Broken list)
// instead of panicking or failing the whole load: the driver turns it
// into exit 2.
func TestLoaderTypeErrorIsReportedNotFatal(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/good/good.go": `package good

func Fine() int { return 1 }
`,
		"internal/bad/bad.go": `package bad

func Broken() int { return "not an int" }
`,
	})
	loader := NewLoader(root, "soteria", true)
	pkgs, err := loader.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatalf("a type error must not fail the whole load: %v", err)
	}
	var goodOK, badErrored bool
	for _, pkg := range pkgs {
		switch pkg.Path {
		case "soteria/internal/good":
			goodOK = len(pkg.Errors) == 0
		case "soteria/internal/bad":
			badErrored = len(pkg.Errors) > 0
		}
	}
	if !goodOK {
		t.Error("healthy sibling package was poisoned by the broken one")
	}
	if !badErrored {
		t.Error("type-broken package reported no errors")
	}

	res, err := Run(RunOptions{Root: root, Module: "soteria", Tests: true, Patterns: []string{"./..."}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Broken) == 0 {
		t.Fatal("Run did not surface the broken package")
	}
}
