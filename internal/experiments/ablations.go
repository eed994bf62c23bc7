package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"soteria/internal/autoenc"
	"soteria/internal/baselines"
	"soteria/internal/disasm"
	"soteria/internal/features"
	"soteria/internal/gea"
	"soteria/internal/isa"
	"soteria/internal/nn"
	"soteria/internal/obfuscate"
	"soteria/internal/par"
)

// Ablations are the design-choice studies DESIGN.md calls out. They are
// not paper tables; each isolates one pipeline choice and reports how
// detector quality moves. Run with `cmd/experiments -run abl-labeling`
// etc. (they retrain detectors, so they are not part of "all").
var Ablations = []string{
	"abl-labeling", "abl-walks", "abl-topk", "abl-randomization",
	"abl-splitting", "abl-obfuscation", "abl-advtraining",
}

// RunAblation dispatches one ablation by ID.
func RunAblation(id string, env *Env) (*Report, error) {
	switch id {
	case "abl-labeling":
		return AblationLabeling(env)
	case "abl-walks":
		return AblationWalks(env)
	case "abl-topk":
		return AblationTopK(env)
	case "abl-randomization":
		return AblationRandomization(env)
	case "abl-splitting":
		return AblationSplitting(env)
	case "abl-obfuscation":
		return AblationObfuscation(env)
	case "abl-advtraining":
		return AblationAdvTraining(env)
	default:
		return nil, fmt.Errorf("experiments: unknown ablation %q", id)
	}
}

// detectorQuality trains a detector on the environment's training split
// under a modified feature config and scores it against clean test
// samples and a slice of the AE corpus.
type detectorQuality struct {
	CleanFP float64 // fraction of clean test samples flagged
	AEDet   float64 // fraction of AEs detected
	AUC     float64 // rank separation between clean and AE REs
}

// detectorStudy evaluates one feature configuration. mask selects which
// part of the combined vector feeds the detector: "dbl", "lbl", or
// "both".
func detectorStudy(env *Env, fcfg features.Config, mask string) (detectorQuality, error) {
	var q detectorQuality
	train := env.TrainSamples()
	test := env.TestSamples()

	ext := features.NewExtractor(fcfg)
	cfgs := make([]*disasm.CFG, len(train))
	for i, s := range train {
		cfgs[i] = s.CFG
	}
	ext.Fit(cfgs)

	slice := func(v []float64) []float64 {
		half := len(v) / 2
		switch mask {
		case "dbl":
			return v[:half]
		case "lbl":
			return v[half:]
		default:
			return v
		}
	}

	first, err := ext.Extract(train[0].CFG, 0)
	if err != nil {
		return q, err
	}
	dim := len(slice(first.Combined))
	x := nn.NewMatrix(len(train), dim)
	for i, s := range train {
		v, err := ext.Extract(s.CFG, int64(i))
		if err != nil {
			return q, err
		}
		copy(x.Row(i), slice(v.Combined))
	}
	dcfg := autoenc.DefaultConfig(dim)
	dcfg.Epochs = env.Cfg.Opts.DetectorEpochs
	dcfg.BatchSize = env.Cfg.Opts.BatchSize
	dcfg.Seed = env.Cfg.Seed
	det, err := autoenc.Train(x, dcfg)
	if err != nil {
		return q, err
	}

	cleanRE := make([]float64, len(test))
	var aeRE []float64
	fp, tp := 0, 0
	cleanErrs := make([]error, len(test))
	par.For(len(test), func(i int) {
		v, err := ext.Extract(test[i].CFG, int64(100000+i))
		if err != nil {
			cleanErrs[i] = err
			return
		}
		//lint:ignore batchmiss standalone ablation eval: each variant is scored through the per-sample path so ablation deltas measure the pipeline choice under study, not the batched kernels; extraction dominates this loop anyway.
		cleanRE[i] = det.ReconstructionError(slice(v.Combined))
	})
	for _, err := range cleanErrs {
		if err != nil {
			return q, err
		}
	}
	for _, re := range cleanRE {
		if re > det.Threshold() {
			fp++
		}
	}
	n := 0
	for i := range env.Targets {
		for j, ae := range env.AEs[i] {
			if j%4 != 0 { // subsample for speed
				continue
			}
			v, err := ext.Extract(ae.CFG, int64(200000+n))
			if err != nil {
				return q, err
			}
			n++
			re := det.ReconstructionError(slice(v.Combined))
			aeRE = append(aeRE, re)
			if re > det.Threshold() {
				tp++
			}
		}
	}
	if len(cleanRE) > 0 {
		q.CleanFP = float64(fp) / float64(len(cleanRE))
	}
	if len(aeRE) > 0 {
		q.AEDet = float64(tp) / float64(len(aeRE))
	}
	sort.Float64s(cleanRE)
	above := 0
	for _, a := range aeRE {
		above += sort.SearchFloat64s(cleanRE, a)
	}
	if len(aeRE) > 0 && len(cleanRE) > 0 {
		q.AUC = float64(above) / float64(len(aeRE)*len(cleanRE))
	}
	return q, nil
}

func (q detectorQuality) row(name string) string {
	return fmt.Sprintf("%-24s cleanFP=%6.2f%%  AEdet=%6.2f%%  AUC=%.3f",
		name, 100*q.CleanFP, 100*q.AEDet, q.AUC)
}

// AblationLabeling compares DBL-only, LBL-only, and combined detector
// inputs.
func AblationLabeling(env *Env) (*Report, error) {
	r := &Report{ID: "abl-labeling", Title: "Ablation: labeling schemes feeding the detector"}
	fcfg := env.Cfg.Opts.Features
	fcfg.Seed = env.Cfg.Seed
	for _, mask := range []string{"dbl", "lbl", "both"} {
		q, err := detectorStudy(env, fcfg, mask)
		if err != nil {
			return nil, err
		}
		r.Lines = append(r.Lines, q.row(mask))
	}
	r.addf("(paper's design uses both labelings; combined should dominate)")
	return r, nil
}

// AblationWalks varies the number of random walks per labeling.
func AblationWalks(env *Env) (*Report, error) {
	r := &Report{ID: "abl-walks", Title: "Ablation: random-walk count and length"}
	for _, w := range []struct{ count, lf int }{{1, 5}, {3, 5}, {10, 5}, {10, 1}} {
		fcfg := env.Cfg.Opts.Features
		fcfg.Seed = env.Cfg.Seed
		fcfg.WalkCount = w.count
		fcfg.LengthFactor = w.lf
		q, err := detectorStudy(env, fcfg, "both")
		if err != nil {
			return nil, err
		}
		//lint:ignore packedkey "%d|V|" is the paper's walk-length notation (a multiple of |V|), not a gram key
		r.Lines = append(r.Lines, q.row(fmt.Sprintf("walks=%d len=%d|V|", w.count, w.lf)))
	}
	r.addf("(paper uses 10 walks of 5|V|; more walks stabilize the representation)")
	return r, nil
}

// AblationTopK varies the per-labeling vocabulary size.
func AblationTopK(env *Env) (*Report, error) {
	r := &Report{ID: "abl-topk", Title: "Ablation: vocabulary size (top-k grams per labeling)"}
	for _, k := range []int{32, 64, 128, 256} {
		fcfg := env.Cfg.Opts.Features
		fcfg.Seed = env.Cfg.Seed
		fcfg.TopK = k
		q, err := detectorStudy(env, fcfg, "both")
		if err != nil {
			return nil, err
		}
		r.Lines = append(r.Lines, q.row(fmt.Sprintf("topK=%d", k)))
	}
	r.addf("(paper uses 500 per labeling at full dataset scale)")
	return r, nil
}

// AblationRandomization contrasts Soteria's randomized walk features
// with the deterministic graph-theoretic features of the baseline under
// GEA: the deterministic features move smoothly under grafting, so a
// detector built on them separates AEs worse.
func AblationRandomization(env *Env) (*Report, error) {
	r := &Report{ID: "abl-randomization", Title: "Ablation: randomized walk features vs deterministic graph features"}

	// Walk-feature detector (the pipeline's own numbers).
	fcfg := env.Cfg.Opts.Features
	fcfg.Seed = env.Cfg.Seed
	q, err := detectorStudy(env, fcfg, "both")
	if err != nil {
		return nil, err
	}
	r.Lines = append(r.Lines, q.row("randomized walks"))

	// Deterministic graph-feature detector.
	train := env.TrainSamples()
	test := env.TestSamples()
	x := nn.NewMatrix(len(train), baselines.GraphFeatureDim)
	for i, s := range train {
		copy(x.Row(i), normalizeGraphFeatures(baselines.GraphFeatures(s.CFG)))
	}
	dcfg := autoenc.DefaultConfig(baselines.GraphFeatureDim)
	dcfg.Epochs = env.Cfg.Opts.DetectorEpochs
	dcfg.Seed = env.Cfg.Seed
	det, err := autoenc.Train(x, dcfg)
	if err != nil {
		return nil, err
	}
	var gq detectorQuality
	var cleanRE, aeRE []float64
	fp, tp := 0, 0
	for _, s := range test {
		re := det.ReconstructionError(normalizeGraphFeatures(baselines.GraphFeatures(s.CFG)))
		cleanRE = append(cleanRE, re)
		if re > det.Threshold() {
			fp++
		}
	}
	for i := range env.Targets {
		for j, ae := range env.AEs[i] {
			if j%4 != 0 {
				continue
			}
			re := det.ReconstructionError(normalizeGraphFeatures(baselines.GraphFeatures(ae.CFG)))
			aeRE = append(aeRE, re)
			if re > det.Threshold() {
				tp++
			}
		}
	}
	if len(cleanRE) > 0 {
		gq.CleanFP = float64(fp) / float64(len(cleanRE))
	}
	if len(aeRE) > 0 {
		gq.AEDet = float64(tp) / float64(len(aeRE))
	}
	sort.Float64s(cleanRE)
	above := 0
	for _, a := range aeRE {
		above += sort.SearchFloat64s(cleanRE, a)
	}
	if len(aeRE) > 0 && len(cleanRE) > 0 {
		gq.AUC = float64(above) / float64(len(aeRE)*len(cleanRE))
	}
	r.Lines = append(r.Lines, gq.row("deterministic graph"))
	r.addf("(the adversary can anticipate deterministic features; randomization is the defense)")
	return r, nil
}

// AblationSplitting measures the detector and classifier against the
// paper's subtler code-level perturbation — block splitting — at
// increasing strengths. The paper's limitations section predicts small
// structural edits evade the detector while the classifier still
// recovers the true class; this ablation quantifies that gradient.
func AblationSplitting(env *Env) (*Report, error) {
	r := &Report{ID: "abl-splitting", Title: "Ablation: block-splitting perturbation strength"}
	test := env.TestSamples()
	rng := rand.New(rand.NewSource(env.Cfg.Seed + 77))
	r.addf("%-10s %10s %14s %16s", "splits", "# samples", "% detected", "% class intact")
	for _, k := range []int{1, 4, 16} {
		detected, intact, n := 0, 0, 0
		for i, s := range test {
			_, cfg, err := gea.SplitToCFG(s.Program, k, rng)
			if err != nil {
				continue
			}
			dec, err := env.Pipeline.Analyze(cfg, saltFor(60+k, i))
			if err != nil {
				continue
			}
			n++
			if dec.Adversarial {
				detected++
			}
			if dec.Class == s.Class {
				intact++
			}
		}
		if n == 0 {
			continue
		}
		r.addf("%-10d %10d %13.2f%% %15.2f%%", k, n,
			100*float64(detected)/float64(n), 100*float64(intact)/float64(n))
	}
	r.addf("(paper: small non-branching edits evade detection but keep the true class)")
	return r, nil
}

// AblationObfuscation measures the paper's second limitation: opaque
// predicates add statically-reachable junk branches that never execute,
// so the CFG — and every feature derived from it — changes while the
// program's behaviour does not. The paper predicts such samples are
// flagged or misclassified until the system is retrained.
func AblationObfuscation(env *Env) (*Report, error) {
	r := &Report{ID: "abl-obfuscation", Title: "Ablation: opaque-predicate obfuscation strength"}
	test := env.TestSamples()
	rng := rand.New(rand.NewSource(env.Cfg.Seed + 99))
	r.addf("%-12s %10s %14s %16s", "predicates", "# samples", "% flagged", "% class intact")
	for _, k := range []int{2, 8, 24} {
		var cfgs []*disasm.CFG
		var salts []int64
		var classes []int
		for i, s := range test {
			obf, err := obfuscate.OpaquePredicates(s.Program, k, rng)
			if err != nil {
				continue
			}
			bin, _, err := isa.Assemble(obf, isa.AsmOptions{})
			if err != nil {
				continue
			}
			cfg, err := disasm.Disassemble(bin)
			if err != nil {
				continue
			}
			cfgs = append(cfgs, cfg)
			salts = append(salts, saltFor(80+k, i))
			classes = append(classes, int(s.Class))
		}
		decs, err := env.Pipeline.AnalyzeBatch(cfgs, salts)
		if err != nil {
			return nil, err
		}
		flagged, intact := 0, 0
		for i, dec := range decs {
			if dec.Adversarial {
				flagged++
			}
			if int(dec.Class) == classes[i] {
				intact++
			}
		}
		n := len(decs)
		if n == 0 {
			continue
		}
		r.addf("%-12d %10d %13.2f%% %15.2f%%", k, n,
			100*float64(flagged)/float64(n), 100*float64(intact)/float64(n))
	}
	r.addf("(paper: obfuscation yields incomplete/perturbed CFGs and degrades the system until retrained)")
	return r, nil
}

// AblationAdvTraining reproduces the paper's section II-B argument
// against adversarial training: a supervised clean-vs-adversarial
// discriminator trained on ONE attack's examples (block splitting) is
// evaluated against a DIFFERENT attack (GEA). The paper predicts —
// and this ablation measures — that robustness does not transfer
// across attacks, which is why Soteria's detector trains on clean data
// only.
func AblationAdvTraining(env *Env) (*Report, error) {
	r := &Report{ID: "abl-advtraining", Title: "Ablation: adversarial training does not transfer across attacks"}
	train := env.TrainSamples()
	test := env.TestSamples()
	ext := env.extractor()
	rng := rand.New(rand.NewSource(env.Cfg.Seed + 55))

	// Training set: clean train samples (label 0) + split-attack AEs of
	// the same samples (label 1).
	var cfgs []*disasm.CFG
	var salts []int64
	var labels []int
	for i, s := range train {
		cfgs = append(cfgs, s.CFG)
		salts = append(salts, saltFor(90, i))
		labels = append(labels, 0)
		_, sp, err := gea.SplitToCFG(s.Program, 4, rng)
		if err != nil {
			continue
		}
		cfgs = append(cfgs, sp)
		salts = append(salts, saltFor(91, i))
		labels = append(labels, 1)
	}
	vecs, err := ext.ExtractBatch(cfgs, salts)
	if err != nil {
		return nil, err
	}
	x := nn.NewMatrix(len(vecs), ext.Dim())
	for i, v := range vecs {
		copy(x.Row(i), v.Combined)
	}
	netRng := rand.New(rand.NewSource(env.Cfg.Seed))
	net := nn.NewNetwork(
		nn.NewDense(ext.Dim(), 64, netRng), nn.NewReLU(),
		nn.NewDense(64, 2, netRng),
	)
	tr := nn.Trainer{Net: net, Loss: nn.SoftmaxCrossEntropy{}, Opt: nn.NewAdam(1e-3)}
	if _, err := tr.Fit(x, nn.OneHot(labels, 2), nn.TrainConfig{
		Epochs: env.Cfg.BaselineEpochs, BatchSize: 64, Seed: env.Cfg.Seed,
	}); err != nil {
		return nil, err
	}
	detectRate := func(cfgSet []*disasm.CFG, saltKind int) (float64, error) {
		if len(cfgSet) == 0 {
			return 0, nil
		}
		ss := make([]int64, len(cfgSet))
		for i := range ss {
			ss[i] = saltFor(saltKind, i)
		}
		vs, err := ext.ExtractBatch(cfgSet, ss)
		if err != nil {
			return 0, err
		}
		m := nn.NewMatrix(len(vs), ext.Dim())
		for i, v := range vs {
			copy(m.Row(i), v.Combined)
		}
		pred := nn.Argmax(net.Predict(m))
		hit := 0
		for _, p := range pred {
			if p == 1 {
				hit++
			}
		}
		return float64(hit) / float64(len(pred)), nil
	}

	// In-distribution attack: split AEs of test samples.
	var splitTest []*disasm.CFG
	for _, s := range test {
		if _, sp, err := gea.SplitToCFG(s.Program, 4, rng); err == nil {
			splitTest = append(splitTest, sp)
		}
	}
	inDist, err := detectRate(splitTest, 92)
	if err != nil {
		return nil, err
	}
	// Out-of-distribution attack: GEA AEs (subsampled).
	var geaTest []*disasm.CFG
	for i := range env.AEs {
		for j, ae := range env.AEs[i] {
			if j%6 == 0 {
				geaTest = append(geaTest, ae.CFG)
			}
		}
	}
	outDist, err := detectRate(geaTest, 93)
	if err != nil {
		return nil, err
	}
	// Clean false positives.
	var cleanCFGs []*disasm.CFG
	for _, s := range test {
		cleanCFGs = append(cleanCFGs, s.CFG)
	}
	fp, err := detectRate(cleanCFGs, 94)
	if err != nil {
		return nil, err
	}

	r.addf("supervised discriminator trained on split-attack AEs only:")
	r.addf("  split AEs detected (trained attack):   %6.2f%%", 100*inDist)
	r.addf("  GEA AEs detected (unseen attack):      %6.2f%%", 100*outDist)
	r.addf("  clean false positives:                 %6.2f%%", 100*fp)
	decs, err := env.AEDecisions()
	if err != nil {
		return nil, err
	}
	det, tot := 0, 0
	for i := range decs {
		for _, d := range decs[i] {
			tot++
			if d.Adversarial {
				det++
			}
		}
	}
	r.addf("Soteria's unsupervised detector on GEA:  %6.2f%% (no AEs at training time)", 100*rate(det, tot))
	r.addf("(paper II-B: training against one attack does not guarantee robustness against others)")
	return r, nil
}

// normalizeGraphFeatures squashes the baseline's wildly different
// feature scales into comparable ranges for autoencoder training.
func normalizeGraphFeatures(f []float64) []float64 {
	out := make([]float64, len(f))
	for i, v := range f {
		out[i] = v / (1 + v) // bounded [0, 1) for nonnegative features
	}
	return out
}
