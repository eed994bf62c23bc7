package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soteria/internal/disasm"
	"soteria/internal/gea"
	"soteria/internal/malgen"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestDecisionsMatchGolden pins decisions across commits, not just
// across two paths of one build: the batchEnv pipeline's fingerprint
// and every decision (verdict, RE bits, class) over batchCorpus plus a
// few fixed-seed GEA merges must match the committed golden file. A
// change that moves training, saved-model bytes or scoring arithmetic
// by one ulp fails here. Regenerate only for an intended model change:
// `go test ./internal/core -run TestDecisionsMatchGolden -update`.
//
// The golden lines come from one AnalyzeBatch, whose scoring runs the
// multi-row kernels. A served request is scored alone, on the
// single-row kernel, so every sample is also scored by itself — through
// Analyze and through a one-sample AnalyzeBatch — and both must print
// the same golden lines.
func TestDecisionsMatchGolden(t *testing.T) {
	p, corpus := batchEnv(t)

	cfgs := make([]*disasm.CFG, 0, len(corpus)+3)
	for _, s := range corpus {
		cfgs = append(cfgs, s.CFG)
	}
	target, err := malgen.NewGenerator(malgen.Config{Seed: 99}).SampleSized(malgen.Benign, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range corpus {
		if s.Class == malgen.Benign || len(cfgs) == len(corpus)+3 {
			continue
		}
		_, cfg, err := gea.MergeToCFG(s.Program, target.Program)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	salts := make([]int64, len(cfgs))
	for i := range salts {
		salts[i] = int64(7000 + i)
	}

	alone := []struct {
		path  string
		score func(p *Pipeline, i int) (*Decision, error)
		lines strings.Builder
	}{
		{path: "Analyze", score: func(p *Pipeline, i int) (*Decision, error) {
			return p.Analyze(cfgs[i], salts[i])
		}},
		{path: "a one-sample AnalyzeBatch", score: func(p *Pipeline, i int) (*Decision, error) {
			decs, err := p.AnalyzeBatch(cfgs[i:i+1], salts[i:i+1])
			if err != nil {
				return nil, err
			}
			return decs[0], nil
		}},
	}
	fp, err := p.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	// The perWalk=false prefix dates from when the file also pinned a
	// per-walk detector; it stays so the pinned lines do not change.
	header := fmt.Sprintf("perWalk=false fingerprint=%x\n", fp)
	var b strings.Builder
	b.WriteString(header)
	decs, err := p.AnalyzeBatch(cfgs, salts)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decs {
		writeGoldenLine(&b, i, d)
	}
	for a := range alone {
		alone[a].lines.WriteString(header)
		for i := range cfgs {
			d, err := alone[a].score(p, i)
			if err != nil {
				t.Fatal(err)
			}
			writeGoldenLine(&alone[a].lines, i, d)
		}
	}
	got := b.String()

	golden := filepath.Join("testdata", "decisions.golden")
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
		t.Errorf("decisions drifted from golden file:\ngot:\n%s\nwant:\n%s", got, want)
	}
	for a := range alone {
		if got := alone[a].lines.String(); got != string(want) {
			t.Errorf("samples scored alone through %s drifted from golden file:\ngot:\n%s\nwant:\n%s", alone[a].path, got, want)
		}
	}
}

func writeGoldenLine(b *strings.Builder, i int, d *Decision) {
	fmt.Fprintf(b, "perWalk=false sample=%d adversarial=%v re=%016x class=%v\n",
		i, d.Adversarial, math.Float64bits(d.RE), d.Class)
}
