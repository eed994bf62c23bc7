package soteria_test

// The benchmark harness: one testing.B benchmark per paper table and
// figure (run with `go test -bench=. -benchmem`). All experiment
// benches share one trained environment (built once); each iteration
// re-runs the experiment's computation — AE analysis, classification,
// PCA, threshold sweeps — against it.
//
// Substrate micro-benchmarks (disassembly, labeling, walks, GEA merge,
// detector and classifier inference) quantify the pipeline stages the
// paper's Fig. 3 describes.

import (
	"strconv"
	"sync"
	"testing"

	"soteria/internal/disasm"
	"soteria/internal/dynamic"
	"soteria/internal/experiments"
	"soteria/internal/features"
	"soteria/internal/gea"
	"soteria/internal/labeling"
	"soteria/internal/lint"
	"soteria/internal/malgen"
	"soteria/internal/ngram"
	"soteria/internal/walk"

	mrand "math/rand"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = experiments.Setup(experiments.QuickConfig())
	})
	if benchErr != nil {
		b.Fatalf("setup: %v", benchErr)
	}
	return benchEnv
}

func benchExperiment(b *testing.B, id string) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, env); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper table --------------------------------------

func BenchmarkTable2Dataset(b *testing.B)       { benchExperiment(b, "tab2") }
func BenchmarkTable3GEATargets(b *testing.B)    { benchExperiment(b, "tab3") }
func BenchmarkTable4DetectorAEs(b *testing.B)   { benchExperiment(b, "tab4") }
func BenchmarkTable5Features(b *testing.B)      { benchExperiment(b, "tab5") }
func BenchmarkTable6DetectorClean(b *testing.B) { benchExperiment(b, "tab6") }
func BenchmarkTable7Classifiers(b *testing.B)   { benchExperiment(b, "tab7") }
func BenchmarkTable8Evaders(b *testing.B)       { benchExperiment(b, "tab8") }

// --- One benchmark per paper figure --------------------------------------

func BenchmarkFig8PCABaseline(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkFig9PCADBL(b *testing.B)          { benchExperiment(b, "fig9") }
func BenchmarkFig10PCALBL(b *testing.B)         { benchExperiment(b, "fig10") }
func BenchmarkFig11PCACombined(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFig12REDistribution(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFig13AlphaSweep(b *testing.B)     { benchExperiment(b, "fig13") }

// --- Pipeline-stage micro-benchmarks --------------------------------------

func benchSample(b *testing.B, nodes int) *malgen.Sample {
	b.Helper()
	gen := malgen.NewGenerator(malgen.Config{Seed: 42})
	s, err := gen.SampleSized(malgen.Gafgyt, nodes)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkDisassemble64(b *testing.B) {
	s := benchSample(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := disasm.Disassemble(s.Binary); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLabelingBoth times both labelings of one CFG on a warmed
// workspace, as extraction runs them, at Gafgyt's median size and
// Table III's largest.
func BenchmarkLabelingBoth(b *testing.B) {
	for _, nodes := range []int{64, 443} {
		s := benchSample(b, nodes)
		b.Run(strconv.Itoa(nodes), func(b *testing.B) {
			var w labeling.Workspace
			w.Both(s.CFG.G, s.CFG.EntryNode())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Both(s.CFG.G, s.CFG.EntryNode())
			}
		})
	}
}

func BenchmarkRandomWalks64(b *testing.B) {
	s := benchSample(b, 64)
	perm := labeling.DensityBased(s.CFG.G, s.CFG.EntryNode()).Perm
	rng := mrand.New(mrand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walk.Walks(s.CFG.G, s.CFG.EntryNode(), perm, walk.DefaultCount, walk.DefaultLengthFactor, rng)
	}
}

func BenchmarkFeatureExtraction(b *testing.B) {
	env := benchEnvironment(b)
	s := env.TestSamples()[0]
	ext := env.Pipeline.Extractor
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ext.Extract(s.CFG, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGramCounting isolates n-gram counting on one walk-length
// trace, the innermost extraction loop, at Gafgyt's median CFG size and
// Table III's largest. slots is what extraction runs: one pass over the
// walk into the slots of a 128-entry vocabulary (DefaultOptions' TopK),
// fitted on the sample's own walks. map is GramCounter.AddTrace, which
// counts every gram for fitting's document frequencies.
func BenchmarkGramCounting(b *testing.B) {
	for _, nodes := range []int{64, 443} {
		s := benchSample(b, nodes)
		perm := labeling.DensityBased(s.CFG.G, s.CFG.EntryNode()).Perm
		rng := mrand.New(mrand.NewSource(1))
		steps := walk.DefaultLengthFactor * s.CFG.G.NumNodes()
		walks := make([]*ngram.GramCounter, walk.DefaultCount)
		for i := range walks {
			walks[i] = ngram.NewGramCounter()
			walks[i].AddTrace(walk.Random(s.CFG.G, s.CFG.EntryNode(), perm, steps, rng), ngram.DefaultNs)
		}
		vec := ngram.FitPacked(walks, 128)
		trace := walk.Random(s.CFG.G, s.CFG.EntryNode(), perm, steps, rng)
		counts := make([]int, len(vec.Vocab))
		b.Run("slots/"+strconv.Itoa(nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clear(counts)
				vec.CountSlots(counts, trace, ngram.DefaultNs)
			}
		})
		if nodes != 64 {
			continue
		}
		c := ngram.NewGramCounter()
		c.AddTrace(trace, ngram.DefaultNs)
		b.Run("map/64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Reset()
				c.AddTrace(trace, ngram.DefaultNs)
			}
		})
	}
}

// BenchmarkExtractBatch measures steady-state batch throughput: the
// pooled scratch (labeling workspace, walk and gram buffers) makes
// each extraction allocate little beyond its output vectors.
func BenchmarkExtractBatch(b *testing.B) {
	env := benchEnvironment(b)
	samples := env.TestSamples()
	ext := env.Pipeline.Extractor
	cfgs := make([]*disasm.CFG, len(samples))
	salts := make([]int64, len(samples))
	for i, s := range samples {
		cfgs[i] = s.CFG
		salts[i] = int64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ext.ExtractBatch(cfgs, salts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGEAMerge(b *testing.B) {
	gen := malgen.NewGenerator(malgen.Config{Seed: 7})
	victim, err := gen.SampleSized(malgen.Mirai, 48)
	if err != nil {
		b.Fatal(err)
	}
	target, err := gen.SampleSized(malgen.Benign, 50)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gea.MergeToCFG(victim.Program, target.Program); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectorInference(b *testing.B) {
	env := benchEnvironment(b)
	s := env.TestSamples()[0]
	v, err := env.Pipeline.Extractor.Extract(s.CFG, 1)
	if err != nil {
		b.Fatal(err)
	}
	det := env.Pipeline.Detector
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.ReconstructionError(v.Combined)
	}
}

func BenchmarkEnsembleVote(b *testing.B) {
	env := benchEnvironment(b)
	s := env.TestSamples()[0]
	v, err := env.Pipeline.Extractor.Extract(s.CFG, 1)
	if err != nil {
		b.Fatal(err)
	}
	ens := env.Pipeline.Ensemble
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ens.Vote(v.DBL, v.LBL); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndAnalyze(b *testing.B) {
	env := benchEnvironment(b)
	s := env.TestSamples()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Pipeline.Analyze(s.CFG, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicVsStatic quantifies the paper's scalability argument
// for static analysis: extracting behavioural features requires a full
// sandboxed execution, while CFG recovery is a linear disassembly pass.
func BenchmarkDynamicTraceExtraction(b *testing.B) {
	s := benchSample(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynamic.Trace(s.Binary, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStaticCFGExtraction(b *testing.B) {
	s := benchSample(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := disasm.Disassemble(s.Binary); err != nil {
			b.Fatal(err)
		}
	}
}

// --- soterialint engine benchmarks ----------------------------------------

// lintBenchOptions mirrors the driver's defaults over the real tree.
func lintBenchOptions(b *testing.B) lint.RunOptions {
	b.Helper()
	root, module, err := lint.FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	return lint.RunOptions{Root: root, Module: module, Tests: true, Patterns: []string{"./..."}}
}

func lintBenchIteration(b *testing.B, opts lint.RunOptions) {
	b.Helper()
	res, err := lint.Run(opts)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Broken) > 0 {
		b.Fatalf("repo does not type-check: %v", res.Broken[0].Err)
	}
}

// BenchmarkSoterialintCold measures a full load + type-check + fact
// propagation + nine-analyzer pass over the whole module.
func BenchmarkSoterialintCold(b *testing.B) {
	opts := lintBenchOptions(b)
	lintBenchIteration(b, opts) // untimed: warm the OS file caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lintBenchIteration(b, opts)
	}
}

func BenchmarkCorpusGeneration(b *testing.B) {
	gen := malgen.NewGenerator(malgen.Config{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Sample(malgen.Gafgyt); err != nil {
			b.Fatal(err)
		}
	}
}

// featuresConfigForBench keeps the name referenced in docs stable.
var _ = features.DefaultConfig
