package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsLintClean is the tier-1 gate: it runs the full analyzer
// suite over every package in the module (tests included), with
// whole-repo interprocedural facts, and fails on any diagnostic. A new
// violation anywhere in the tree breaks `go test ./...`, not just
// `go run ./cmd/soterialint ./...`.
func TestRepoIsLintClean(t *testing.T) {
	root := moduleRoot(t)
	loader := NewLoader(root, "soteria", true)
	pkgs, err := loader.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	var clean []*Package
	for _, pkg := range pkgs {
		for _, e := range pkg.Errors {
			t.Errorf("%s: type error: %v", pkg.Path, e)
		}
		if len(pkg.Errors) == 0 {
			clean = append(clean, pkg)
		}
	}
	facts := ComputeFacts(clean)
	for _, pkg := range clean {
		for _, d := range RunPackageFacts(pkg, All(), facts) {
			rel, err := filepath.Rel(root, d.Pos.Filename)
			if err != nil {
				rel = d.Pos.Filename
			}
			t.Errorf("%s:%d:%d: %s: %s", rel, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
}

// TestSeededViolationsAreCaught proves the gate has teeth: a synthetic
// module seeded with one violation per analyzer must produce a
// diagnostic from every analyzer in the suite.
func TestSeededViolationsAreCaught(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/par/par.go", `package par

func For(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

func ForChunked(n int, fn func(lo, hi int)) {
	fn(0, n)
}
`)
	write("internal/features/bad.go", `package features

import (
	"strings"
	"time"

	"soteria/internal/par"
)

func violations(xs []float64) (float64, string) {
	_ = time.Now()
	total := 0.0
	par.For(len(xs), func(i int) {
		total += xs[i]
	})
	return total, strings.Join([]string{"1", "2"}, "|")
}
`)
	write("internal/nn/bad.go", `package nn

type Matrix struct {
	Rows, Cols int
	Data       []float64
}

func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

type layer struct{}

func (l *layer) Forward(x *Matrix, train bool) *Matrix {
	return NewMatrix(x.Rows, x.Cols)
}
`)
	write("internal/autoenc/bad.go", `package autoenc

import "soteria/internal/par"

type Detector struct{}

func (d *Detector) ReconstructionError(vec []float64) float64 {
	return float64(len(vec))
}

func scoreAll(d *Detector, vecs [][]float64, res []float64) {
	par.For(len(vecs), func(i int) {
		res[i] = d.ReconstructionError(vecs[i])
	})
}
`)
	write("internal/core/bad.go", `package core

import "os"

func save(path string, data []byte) {
	f, _ := os.Create(path)
	f.Write(data)
	f.Close()
}
`)
	write("internal/obs/obs.go", `package obs

type Counter struct{ v uint64 }

func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}
`)
	write("internal/core/lockbad.go", `package core

import "sync"

type registry struct {
	mu sync.Mutex
	m  map[string]int
}

func lookup(r registry, key string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[key]
}
`)
	write("cmd/srv/main.go", `package main

import (
	"context"
	"net/http"
)

func main() {
	http.HandleFunc("/work", func(w http.ResponseWriter, r *http.Request) {
		_ = doWork(context.Background())
	})
}

func doWork(ctx context.Context) error {
	_ = ctx
	return nil
}
`)
	write("internal/core/obsbad.go", `package core

import (
	"soteria/internal/obs"
	"soteria/internal/par"
)

func observeAll(c *obs.Counter, xs []float64, out []float64) {
	par.For(len(xs), func(i int) {
		out[i] = xs[i]
		c.Inc()
	})
}
`)

	loader := NewLoader(root, "soteria", false)
	pkgs, err := loader.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	hits := map[string]int{}
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			t.Fatalf("%s: seeded module does not type-check: %v", pkg.Path, pkg.Errors)
		}
	}
	facts := ComputeFacts(pkgs)
	for _, pkg := range pkgs {
		for _, d := range RunPackageFacts(pkg, All(), facts) {
			hits[d.Analyzer]++
		}
	}
	for _, a := range All() {
		if hits[a.Name] == 0 {
			t.Errorf("seeded violation for %s not caught (hits: %v)", a.Name, hits)
		}
	}
}

// TestStoreScopeHasTeeth proves persisterr really polices the store
// package: a seeded internal/store file with the record log's classic
// failure modes (discarded Rename after a snapshot, discarded Truncate
// during tail recovery, deferred Close on a write-opened log) must
// produce a diagnostic for each.
func TestStoreScopeHasTeeth(t *testing.T) {
	root := t.TempDir()
	path := filepath.Join(root, "internal", "store", "bad.go")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package store

import "os"

func rotate(tmp, dst string, data []byte) error {
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(data); err != nil {
		return err
	}
	os.Rename(tmp, dst)
	return nil
}

func recoverTail(f *os.File, good int64) {
	f.Truncate(good)
}

var (
	_ = rotate
	_ = recoverTail
)
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, "soteria", false)
	pkgs, err := loader.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			t.Fatalf("%s: seeded module does not type-check: %v", pkg.Path, pkg.Errors)
		}
		for _, d := range RunPackage(pkg, []*Analyzer{PersistErrAnalyzer}) {
			msgs = append(msgs, d.Message)
		}
	}
	for _, want := range []string{
		"error returned by Rename is discarded",
		"error returned by Truncate is discarded",
		`deferred Close on "f" discards the error`,
	} {
		found := false
		for _, m := range msgs {
			if strings.Contains(m, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic matching %q in %q", want, msgs)
		}
	}
}

// TestFleetScopeHasTeeth proves ctxflow really polices internal/fleet:
// a seeded front-door file that mints fresh contexts inside a proxy
// handler and a ctx-carrying prober must produce a diagnostic for
// each.
func TestFleetScopeHasTeeth(t *testing.T) {
	root := t.TempDir()
	path := filepath.Join(root, "internal", "fleet", "bad.go")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package fleet

import (
	"context"
	"net/http"
)

func proxy(w http.ResponseWriter, r *http.Request) {
	ctx := context.Background()
	forward(ctx)
}

func probeRound(ctx context.Context) {
	_ = context.TODO()
}

func forward(ctx context.Context) { _ = ctx }

var (
	_ = proxy
	_ = probeRound
)
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, "soteria", false)
	pkgs, err := loader.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			t.Fatalf("%s: seeded module does not type-check: %v", pkg.Path, pkg.Errors)
		}
		for _, d := range RunPackage(pkg, []*Analyzer{CtxFlowAnalyzer}) {
			msgs = append(msgs, d.Message)
		}
	}
	for _, want := range []string{
		"derive from r.Context()",
		"derive from the ctx parameter",
	} {
		found := false
		for _, m := range msgs {
			if strings.Contains(m, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic matching %q in %q", want, msgs)
		}
	}
}

// TestRegistryScopeHasTeeth proves ctxflow polices internal/registry:
// a seeded registry file whose admin handler mints a fresh context,
// plus a ctx-carrying scorer that re-mints, must produce a diagnostic
// for each violation.
func TestRegistryScopeHasTeeth(t *testing.T) {
	root := t.TempDir()
	path := filepath.Join(root, "internal", "registry", "bad.go")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package registry

import (
	"context"
	"net/http"
)

func handleActivate(w http.ResponseWriter, r *http.Request) {
	ctx := context.Background()
	_ = ctx
}

func scoreShadow(ctx context.Context) {
	_ = context.TODO()
}

var (
	_ = handleActivate
	_ = scoreShadow
)
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, "soteria", false)
	pkgs, err := loader.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			t.Fatalf("%s: seeded module does not type-check: %v", pkg.Path, pkg.Errors)
		}
		for _, d := range RunPackage(pkg, []*Analyzer{CtxFlowAnalyzer}) {
			msgs = append(msgs, d.Message)
		}
	}
	for _, want := range []string{
		"derive from r.Context()",
		"derive from the ctx parameter",
	} {
		found := false
		for _, m := range msgs {
			if strings.Contains(m, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic matching %q in %q", want, msgs)
		}
	}
}
