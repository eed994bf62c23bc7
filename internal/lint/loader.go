package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked unit of analysis: either a
// package's compiled files plus its in-package test files, or the
// external (_test-suffixed) test package of a directory.
type Package struct {
	Path  string // import path; external test packages end in "_test"
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Errors holds parse and type errors. Analyzer output for a
	// package with errors is unreliable; the driver refuses to
	// report findings over broken input.
	Errors []error
}

// Loader parses and type-checks packages of one module from source,
// with no dependencies outside the standard library. Intra-module
// imports resolve to Root; everything else goes through the compiler's
// export data (with a from-source fallback), so loading stays correct
// even on toolchains that ship no precompiled stdlib.
type Loader struct {
	// Root is the module root directory.
	Root string
	// Module is the module path (the `module` line of go.mod).
	Module string
	// Tests controls whether _test.go files are loaded for analysis.
	Tests bool

	fset    *token.FileSet
	std     types.Importer
	stdSrc  types.Importer
	clean   map[string]*types.Package
	loading map[string]bool
}

// NewLoader returns a loader for the module rooted at root.
func NewLoader(root, module string, tests bool) *Loader {
	return &Loader{
		Root:    root,
		Module:  module,
		Tests:   tests,
		fset:    token.NewFileSet(),
		std:     importer.Default(),
		clean:   make(map[string]*types.Package),
		loading: make(map[string]bool),
	}
}

// Fset exposes the loader's file set (shared by every loaded package).
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Import implements types.Importer over module-internal paths and the
// standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		return l.importClean(path)
	}
	pkg, err := l.std.Import(path)
	if err == nil {
		return pkg, nil
	}
	// Export data unavailable (e.g. cold build cache): fall back to
	// type-checking the standard library from source.
	if l.stdSrc == nil {
		l.stdSrc = importer.ForCompiler(l.fset, "source", nil)
	}
	pkg, srcErr := l.stdSrc.Import(path)
	if srcErr != nil {
		return nil, fmt.Errorf("import %q: %v (source fallback: %v)", path, err, srcErr)
	}
	return pkg, nil
}

// importClean loads the non-test build of a module-internal package,
// caching the result for every importer.
func (l *Loader) importClean(path string) (*types.Package, error) {
	if pkg, ok := l.clean[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirOf(path)
	files, _, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	l.clean[path] = pkg
	return pkg, nil
}

func (l *Loader) dirOf(path string) string {
	if path == l.Module {
		return l.Root
	}
	return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.Module+"/")))
}

func (l *Loader) pathOf(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.Module, nil
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// parseDir parses every buildable Go file in dir into three groups:
// compiled files, in-package test files, and external (pkg_test) test
// files.
func (l *Loader) parseDir(dir string) (base, inTest, extTest []*ast.File, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var baseName string
	type parsed struct {
		file *ast.File
		test bool
	}
	var all []parsed
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !l.Tests {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		if !buildable(f) {
			continue
		}
		if !isTest && baseName == "" {
			baseName = f.Name.Name
		}
		all = append(all, parsed{f, isTest})
	}
	if baseName == "" { // test-only directory
		for _, p := range all {
			if !strings.HasSuffix(p.file.Name.Name, "_test") {
				baseName = p.file.Name.Name
				break
			}
		}
	}
	for _, p := range all {
		switch {
		case !p.test:
			base = append(base, p.file)
		case p.file.Name.Name == baseName+"_test":
			extTest = append(extTest, p.file)
		default:
			inTest = append(inTest, p.file)
		}
	}
	return base, inTest, extTest, nil
}

// buildable evaluates a file's //go:build constraint against the host
// GOOS/GOARCH and release tags, with every optional tag (race, cgo,
// custom) false — matching how the default `go test ./...` run builds
// the tree.
func buildable(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true
			}
			return expr.Eval(buildTag)
		}
	}
	return true
}

func buildTag(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, runtime.Compiler:
		return true
	case "unix":
		switch runtime.GOOS {
		case "linux", "darwin", "freebsd", "netbsd", "openbsd", "solaris", "aix", "dragonfly", "illumos", "ios":
			return true
		}
		return false
	}
	if v, ok := strings.CutPrefix(tag, "go1."); ok {
		minor, err := strconv.Atoi(v)
		if err != nil {
			return false
		}
		parts := strings.SplitN(runtime.Version(), ".", 3)
		if len(parts) >= 2 {
			if cur, err := strconv.Atoi(parts[1]); err == nil {
				return minor <= cur
			}
		}
		return true // devel toolchain: assume newest
	}
	return false
}

// LoadDir loads the package in one directory: the compiled+in-package
// view always, plus the external test package when present. Type errors
// are collected on the returned packages rather than aborting, so the
// caller can report them all.
func (l *Loader) LoadDir(dir string) ([]*Package, error) {
	base, inTest, extTest, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(base)+len(inTest)+len(extTest) == 0 {
		return nil, nil
	}
	path, err := l.pathOf(dir)
	if err != nil {
		return nil, err
	}
	var out []*Package
	mainFiles := append(append([]*ast.File(nil), base...), inTest...)
	if len(mainFiles) > 0 {
		pkg := l.check(path, dir, mainFiles, nil)
		out = append(out, pkg)
		if len(extTest) > 0 {
			// The external test package must see the package under
			// test as built *with* its in-package test files, so
			// export_test.go hooks resolve.
			override := map[string]*types.Package{path: pkg.Types}
			out = append(out, l.check(path+"_test", dir, extTest, override))
		}
	} else if len(extTest) > 0 {
		out = append(out, l.check(path+"_test", dir, extTest, nil))
	}
	return out, nil
}

// check type-checks one file group as import path `path`.
func (l *Loader) check(path, dir string, files []*ast.File, override map[string]*types.Package) *Package {
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		},
	}
	var imp types.Importer = l
	if override != nil {
		imp = overrideImporter{l: l, pkgs: override, dep: make(map[string]bool)}
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.Errors = append(pkg.Errors, err) },
	}
	tpkg, err := conf.Check(path, l.fset, files, pkg.Info)
	pkg.Types = tpkg
	if err != nil && len(pkg.Errors) == 0 {
		pkg.Errors = append(pkg.Errors, err)
	}
	return pkg
}

// overrideImporter resolves an external test package's imports the way
// `go test` builds them: the package under test comes from pkgs (built
// with its in-package test files), and every module package that
// imports it, directly or not, is re-checked against that build, so
// the test and its other imports share one set of types.
type overrideImporter struct {
	l    *Loader
	pkgs map[string]*types.Package // overridden and re-checked packages
	dep  map[string]bool           // memo for dependsOnOverride
}

func (o overrideImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := o.pkgs[path]; ok {
		return pkg, nil
	}
	clean, err := o.l.Import(path)
	if err != nil || !o.dependsOnOverride(clean) {
		return clean, err
	}
	files, _, _, err := o.l.parseDir(o.l.dirOf(path))
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: o}
	pkg, err := conf.Check(path, o.l.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("type-check %s for the test build: %v", path, err)
	}
	o.pkgs[path] = pkg
	return pkg, nil
}

// dependsOnOverride reports whether the module package pkg imports an
// overridden package, directly or not.
func (o overrideImporter) dependsOnOverride(pkg *types.Package) bool {
	if d, ok := o.dep[pkg.Path()]; ok {
		return d
	}
	d := false
	for _, imp := range pkg.Imports() {
		p := imp.Path()
		if _, ok := o.pkgs[p]; ok || (strings.HasPrefix(p, o.l.Module+"/") && o.dependsOnOverride(imp)) {
			d = true
			break
		}
	}
	o.dep[pkg.Path()] = d
	return d
}

// LoadFile loads a single file as its own package under the given
// import path. Fixture tests use this to run analyzers over testdata
// files as if they lived at a chosen path.
func (l *Loader) LoadFile(file, asPath string) (*Package, error) {
	f, err := parser.ParseFile(l.fset, file, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return l.check(asPath, filepath.Dir(file), []*ast.File{f}, nil), nil
}

// LoadPatterns resolves a list of ./dir, ./dir/..., or ./... patterns
// relative to the module root and loads every matching package
// directory in deterministic order.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	dirs, err := matchDirs(l.Root, patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		pkgs, err := l.LoadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dir, err)
		}
		out = append(out, pkgs...)
	}
	return out, nil
}

// matchDirs resolves ./dir, ./dir/..., and ./... patterns relative to
// root into the sorted list of package directories they denote.
func matchDirs(root string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		pat = strings.TrimPrefix(pat, "./")
		recursive := false
		if pat == "..." {
			pat, recursive = "", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		start := filepath.Join(root, filepath.FromSlash(pat))
		if !recursive {
			add(start)
			continue
		}
		err := filepath.WalkDir(start, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != start && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") {
			return true
		}
	}
	return false
}

// FindModuleRoot walks upward from dir to the nearest go.mod and
// returns the directory and module path.
func FindModuleRoot(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
