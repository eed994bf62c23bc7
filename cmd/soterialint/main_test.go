package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soteria/internal/lint"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

func repoRoot(t *testing.T) string {
	t.Helper()
	root, module, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if module != "soteria" {
		t.Fatalf("unexpected module %q", module)
	}
	return root
}

// The committed tree must be clean: text mode, one package pattern.
func TestRunCleanPackage(t *testing.T) {
	root := repoRoot(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", root, "-module", "soteria", "./internal/evalx"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("expected no findings, got:\n%s", stdout.String())
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, name := range []string{"determinism", "parmisuse", "persisterr", "packedkey"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout.String())
		}
	}
}

func TestRunUnknownAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr: %s", stderr.String())
	}
}

// -json over a module seeded with a violation: exit 1 and a parseable
// report naming the finding.
func TestRunJSONOnSeededViolation(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "features")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package features

import "time"

func stamp() int64 {
	return time.Now().UnixNano()
}
`
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "-root", root, "-module", "soteria", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	var rep struct {
		Module      string `json:"module"`
		Count       int    `json:"count"`
		Diagnostics []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout.String())
	}
	if rep.Module != "soteria" || rep.Count != 1 || len(rep.Diagnostics) != 1 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	d := rep.Diagnostics[0]
	if d.File != "internal/features/bad.go" || d.Analyzer != "determinism" || !strings.Contains(d.Message, "time.Now") {
		t.Errorf("unexpected diagnostic: %+v", d)
	}
}

// goldenModule seeds a fixed multi-package module whose findings span
// several analyzers and files, exercising the report's sort order.
func goldenModule(t *testing.T) string {
	t.Helper()
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
	write("internal/core/save.go", `package core

import (
	"os"
	"time"
)

func save(path string, data []byte) {
	_ = time.Now()
	f, _ := os.Create(path)
	f.Write(data)
	f.Close()
}
`)
	write("internal/features/feat.go", `package features

import "time"

func stamp() int64 { return time.Now().UnixNano() }
`)
	return root
}

// The -json report must be byte-stable: same tree, same bytes, pinned
// by a golden file. Regenerate with
// `go test ./cmd/soterialint -run TestRunJSONGolden -update`.
func TestRunJSONGolden(t *testing.T) {
	root := goldenModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "-root", root, "-module", "soteria", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	got := stdout.String()

	golden := filepath.Join("testdata", "golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("report drifted from golden file:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// -facts dumps sorted per-function summaries instead of findings.
func TestRunFactsDump(t *testing.T) {
	root := goldenModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-facts", "-root", root, "-module", "soteria", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "soteria/internal/features.stamp: reads-clock") {
		t.Errorf("-facts output missing stamp's clock fact:\n%s", out)
	}
	if !strings.Contains(out, "soteria/internal/core.save:") {
		t.Errorf("-facts output missing save's summary:\n%s", out)
	}
}

// A module that does not type-check must refuse with exit 2, not
// under-report with exit 0.
func TestRunBrokenPackage(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "pkg")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte("package pkg\n\nfunc f() { undefined() }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", root, "-module", "soteria", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2\nstderr:\n%s", code, stderr.String())
	}
}
