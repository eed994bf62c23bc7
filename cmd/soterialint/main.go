// Command soterialint runs the repository's invariant analyzers
// (internal/lint) over module packages: determinism of model-affecting
// code, internal/par pool discipline, checked errors on persistence
// paths, gram-key construction kept behind the ngram API, sync-value
// copy safety, and context propagation through the serving tier. It is
// part of the full verify pipeline (see ROADMAP.md) and backs
// lint_repo_test.go, which fails `go test ./...` on any new violation.
//
// Usage:
//
//	soterialint [-json] [-tests=true] [-analyzers a,b] [-facts] [pattern ...]
//
// Patterns are module-relative directories (./internal/core), trees
// (./internal/...), or the whole module (./..., the default). Exit
// status: 0 clean, 1 findings, 2 load or usage errors.
//
// Analysis is interprocedural: a whole-repo call graph with
// per-function summaries lets the analyzers follow wall-clock reads,
// discarded persistence errors, and dropped contexts through wrapper
// functions. -facts dumps the computed function summaries instead of
// findings.
//
// Intentional exceptions are suppressed in place with
// `//lint:ignore <analyzer> <reason>` on the offending line or the
// line above it; the reason is mandatory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"soteria/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonSchemaVersion identifies the -json document shape; it bumps on
// any field or ordering change so downstream consumers can pin it.
const jsonSchemaVersion = 2

// jsonDiag is one finding in -json output, with the file path relative
// to the module root.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the -json document, shaped like cmd/benchreport's
// output: a self-describing object a CI step can consume directly.
// Diagnostics are sorted by (file, line, col, analyzer), so the same
// tree always serializes to the same bytes.
type jsonReport struct {
	SchemaVersion int        `json:"schemaVersion"`
	Module        string     `json:"module"`
	Count         int        `json:"count"`
	Diagnostics   []jsonDiag `json:"diagnostics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("soterialint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut   = fs.Bool("json", false, "emit findings as a JSON report")
		tests     = fs.Bool("tests", true, "analyze _test.go files too")
		list      = fs.Bool("list", false, "list analyzers and exit")
		analyzers = fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		rootFlag  = fs.String("root", "", "module root (default: nearest go.mod above the working directory)")
		modFlag   = fs.String("module", "", "module path (default: read from go.mod)")
		facts     = fs.Bool("facts", false, "dump per-function summaries instead of findings")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	suite := lint.All()
	if *analyzers != "" {
		var err error
		if suite, err = lint.ByName(*analyzers); err != nil {
			fmt.Fprintln(stderr, "soterialint:", err)
			return 2
		}
	}

	root, module := *rootFlag, *modFlag
	if root == "" || module == "" {
		wd, err := os.Getwd()
		if err != nil {
			fmt.Fprintln(stderr, "soterialint:", err)
			return 2
		}
		foundRoot, foundMod, err := lint.FindModuleRoot(wd)
		if err != nil {
			fmt.Fprintln(stderr, "soterialint:", err)
			return 2
		}
		if root == "" {
			root = foundRoot
		}
		if module == "" {
			module = foundMod
		}
	}
	res, err := lint.Run(lint.RunOptions{
		Root:      root,
		Module:    module,
		Tests:     *tests,
		Patterns:  fs.Args(),
		Analyzers: suite,
		WantFacts: *facts,
	})
	if err != nil {
		fmt.Fprintln(stderr, "soterialint:", err)
		return 2
	}
	if len(res.Broken) > 0 {
		// Findings over a package that does not type-check are
		// unreliable; refuse rather than under-report.
		for _, b := range res.Broken {
			fmt.Fprintf(stderr, "soterialint: %s: %v\n", b.Path, b.Err)
		}
		return 2
	}
	if *facts {
		for _, id := range res.Facts.FuncIDs() {
			fmt.Fprintf(stdout, "%s: %s\n", id, res.Facts.TaintedBy(id))
		}
		return 0
	}

	rel := func(file string) string {
		if r, err := filepath.Rel(root, file); err == nil {
			return filepath.ToSlash(r)
		}
		return file
	}
	if *jsonOut {
		rep := jsonReport{SchemaVersion: jsonSchemaVersion, Module: module, Count: len(res.Diags), Diagnostics: []jsonDiag{}}
		for _, d := range res.Diags {
			rep.Diagnostics = append(rep.Diagnostics, jsonDiag{
				File: rel(d.Pos.Filename), Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "soterialint: write:", err)
			return 2
		}
	} else {
		for _, d := range res.Diags {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	if len(res.Diags) > 0 {
		return 1
	}
	return 0
}
