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
// across two paths of one build: each batchEnv pipeline's fingerprint
// and every decision (verdict, RE bits, class) over batchCorpus plus a
// few fixed-seed GEA merges must match the committed golden file. A
// change that moves training, saved-model bytes or scoring arithmetic
// by one ulp fails here. Regenerate only for an intended model change:
// `go test ./internal/core -run TestDecisionsMatchGolden -update`.
func TestDecisionsMatchGolden(t *testing.T) {
	pipes, corpus := batchEnv(t)

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

	var b strings.Builder
	for _, perWalk := range []bool{false, true} {
		p := pipes[perWalk]
		fp, err := p.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "perWalk=%v fingerprint=%x\n", perWalk, fp)
		decs, err := p.AnalyzeBatch(cfgs, salts)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range decs {
			fmt.Fprintf(&b, "perWalk=%v sample=%d adversarial=%v re=%016x class=%v\n",
				perWalk, i, d.Adversarial, math.Float64bits(d.RE), d.Class)
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
}
