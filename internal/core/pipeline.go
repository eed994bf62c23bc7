// Package core wires Soteria's three components — the feature
// extractor, the autoencoder adversarial-example detector, and the
// majority-voting CNN classifier — into the end-to-end pipeline of the
// paper's Fig. 2: a sample's CFG is turned into walk features, the
// detector filters adversarial examples, and clean samples are
// classified into Benign / Gafgyt / Mirai / Tsunami.
package core

import (
	"errors"
	"fmt"
	"sync"

	"soteria/internal/autoenc"
	"soteria/internal/cnn"
	"soteria/internal/disasm"
	"soteria/internal/features"
	"soteria/internal/malgen"
	"soteria/internal/nn"
	"soteria/internal/obs"
	"soteria/internal/par"
	"soteria/internal/store"
)

// Options configures pipeline training. Zero values default to reduced
// CI-scale parameters; use PaperOptions for the paper's exact scale.
type Options struct {
	// Features configures extraction (walks, n-grams, vocabulary).
	Features features.Config `json:"features"`
	// DetectorEpochs, ClassifierEpochs and shared batch size/learning
	// rate for the two models.
	DetectorEpochs   int     `json:"detectorEpochs"`
	ClassifierEpochs int     `json:"classifierEpochs"`
	BatchSize        int     `json:"batchSize"`
	LR               float64 `json:"lr"`
	// Alpha is the detector threshold multiplier (default 1.0). An
	// explicit Alpha of 0 is indistinguishable from unset: Train fills
	// every zero scalar from DefaultOptions (fillFrom, applied
	// unconditionally at the top of Train), so 0 always becomes 1.0 —
	// even alongside a custom Features. A zero multiplier would flag
	// every sample as adversarial; use a small positive value instead
	// if that extreme is really intended.
	Alpha float64 `json:"alpha"`
	// Filters and DenseUnits size the CNN (defaults 46 / 512 per paper,
	// which CI-scale configs shrink).
	Filters    int `json:"filters"`
	DenseUnits int `json:"denseUnits"`
	// PerWalkDetector must be false: Train rejects true with
	// ErrPerWalkDetector, and Load rejects a saved model that carries
	// it. The per-walk detector it selected is deleted (DESIGN.md §5).
	// The field stays because saved models serialize it under
	// "options", and dropping the key would change every model's bytes
	// and fingerprint.
	PerWalkDetector bool `json:"perWalkDetector"`
	// Seed drives all model randomness.
	Seed int64 `json:"seed"`
	// Obs, when non-nil, receives training metrics (per-epoch loss and
	// wall time under train.detector.* / train.classifier.*) and leaves
	// the trained pipeline instrumented (see Pipeline.Instrument).
	// Observations are write-only: a pipeline trained with Obs set
	// produces bit-identical models and decisions to one trained
	// without. Not persisted.
	Obs *obs.Registry `json:"-"`
}

// DefaultOptions returns a CI-scale configuration that trains in tens of
// seconds: reduced vocabulary, fewer walks, smaller CNN.
func DefaultOptions() Options {
	f := features.DefaultConfig()
	f.TopK = 128
	f.WalkCount = 6
	f.LengthFactor = 5
	return Options{
		Features:         f,
		DetectorEpochs:   40,
		ClassifierEpochs: 30,
		BatchSize:        64,
		LR:               1e-3,
		Alpha:            1.0,
		Filters:          12,
		DenseUnits:       64,
		Seed:             1,
	}
}

// PaperOptions returns the paper's full-scale parameters (1000-feature
// detector, 46-filter CNNs, 100 epochs). Training at this scale takes
// hours in pure Go; use for faithful runs only.
func PaperOptions() Options {
	return Options{
		Features:         features.DefaultConfig(),
		DetectorEpochs:   100,
		ClassifierEpochs: 100,
		BatchSize:        128,
		LR:               1e-3,
		Alpha:            1.0,
		Filters:          46,
		DenseUnits:       512,
		Seed:             1,
	}
}

// Pipeline is a trained Soteria instance.
type Pipeline struct {
	Extractor *features.Extractor
	Detector  *autoenc.Detector
	Ensemble  *cnn.Ensemble

	opts Options

	// chunks recycles the per-chunk row matrices of the scan path and
	// of the Batcher's collector, so a steady stream of batches
	// allocates only decisions.
	chunks sync.Pool
	// vecs recycles per-sample extraction output (*features.Vectors):
	// an extraction worker or a Batcher submitter borrows a set, the
	// extractor overwrites it in place (ExtractInto), and the rows are
	// copied into a chunk's matrices before the set returns to the pool.
	vecs sync.Pool

	// cache, when non-nil, memoizes verdicts under modelFP (the
	// fingerprint pinned at AttachCache time). Every cache
	// interaction is gated on the nil check, so an uncached pipeline
	// runs the exact pre-cache path.
	cache   *store.Cache
	modelFP [32]byte

	// fp memoizes Fingerprint (stamped by Train/Load, cleared by
	// InvalidateFingerprint) so identity lookups never re-serialize the
	// model. Written only while the pipeline is quiescent.
	fp    [32]byte
	fpSet bool

	// reg is the registry Instrument was called with (nil when
	// uninstrumented); Batchers built on this pipeline pick it up.
	reg *obs.Registry
	// met holds the analyze path's metrics; all fields are nil until
	// Instrument, so an uninstrumented pipeline pays one pointer check
	// per chunk.
	met pipelineObs
}

// pipelineObs is the analyze path's metric set. Latency is observed at
// chunk granularity — the sanctioned observation point: timing wraps
// the par.Overlap stage closures, never the par.For worker bodies
// inside them (the obshot analyzer enforces the latter). A Batcher
// submitter extracts its one sample outside any worker loop and
// observes that extraction itself.
type pipelineObs struct {
	extractNs  *obs.Histogram // extraction latency per chunk, or per Batcher submission
	scoreNs    *obs.Histogram // scoring stage latency per chunk
	samples    *obs.Counter   // samples scored (decisions produced)
	errors     *obs.Counter   // per-sample extraction failures
	cacheHitNs *obs.Histogram // verdict-cache hit-path latency
}

// Instrument registers the analyze path's metrics ("pipeline.extract_ns",
// "pipeline.score_ns", "pipeline.samples", "pipeline.errors", plus the
// "cache.hit_ns" hit-path latency histogram) in r and instruments the
// detector's drift metrics. Idempotent; a nil registry
// is a no-op (the pipeline stays on the uninstrumented fast path). Not
// safe to call concurrently with Analyze/AnalyzeBatch — instrument
// before serving. Observations are write-only and never affect
// decisions.
func (p *Pipeline) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	p.reg = r
	p.met = pipelineObs{
		extractNs:  r.Histogram("pipeline.extract_ns", obs.DurationBuckets()),
		scoreNs:    r.Histogram("pipeline.score_ns", obs.DurationBuckets()),
		samples:    r.Counter("pipeline.samples"),
		errors:     r.Counter("pipeline.errors"),
		cacheHitNs: r.Histogram("cache.hit_ns", obs.DurationBuckets()),
	}
	p.Detector.Instrument(r)
}

// Decision is the pipeline's verdict on one sample.
type Decision struct {
	// Adversarial is the detector verdict; adversarial samples are not
	// forwarded to the classifier in the paper's deployment (Class is
	// still populated for analysis, e.g. Table VIII).
	Adversarial bool
	// RE is the autoencoder reconstruction error.
	RE float64
	// Class is the majority-vote classification.
	Class malgen.Class
}

// ErrNoSamples is returned when Train receives no samples.
var ErrNoSamples = errors.New("core: no training samples")

// ErrPerWalkDetector is returned by Train, and by Load for a saved
// model, when Options.PerWalkDetector is true: the per-walk detector
// is gone, and a model trained with it cannot score the walk-aggregated
// rows the pipeline serves.
var ErrPerWalkDetector = errors.New("core: the per-walk detector is not supported; PerWalkDetector must be false")

// Train fits the full pipeline on labeled clean samples. Per the
// paper's operation mode, neither the detector nor the classifier ever
// sees adversarial data.
func Train(samples []*malgen.Sample, opts Options) (*Pipeline, error) {
	if opts.PerWalkDetector {
		return nil, ErrPerWalkDetector
	}
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	// Field-wise defaulting is unconditional: a custom Features must not
	// disable the zero-value fills for the scalar knobs (Alpha, LR,
	// epochs, ...) — gating this on Features.TopK == 0 once silently
	// trained with Alpha = 0, flagging every sample as adversarial.
	opts = fillFrom(opts, DefaultOptions())
	opts.Features.Seed = opts.Seed

	ext := features.NewExtractor(opts.Features)
	cfgs := make([]*disasm.CFG, len(samples))
	salts := make([]int64, len(samples))
	for i, s := range samples {
		cfgs[i] = s.CFG
		salts[i] = int64(i)
	}
	ext.Fit(cfgs)

	// Extract every representation once (parallel across samples).
	vecs, err := ext.ExtractBatch(cfgs, salts)
	if err != nil {
		return nil, fmt.Errorf("core: extract: %w", err)
	}
	// Every sample contributes exactly WalkCount per-walk rows, so the
	// training matrices assemble with fixed per-sample offsets — which
	// lets the copy fan out across workers deterministically.
	wc := ext.Config().WalkCount
	combined := nn.NewMatrix(len(samples), ext.Dim())
	walkRows := make([][]float64, len(samples)*wc)
	lblRows := make([][]float64, len(samples)*wc)
	walkLabels := make([]int, len(samples)*wc)
	par.For(len(samples), func(i int) {
		v := vecs[i]
		copy(combined.Row(i), v.Combined)
		for w := 0; w < wc; w++ {
			r := i*wc + w
			walkRows[r] = v.DBL[w]
			lblRows[r] = v.LBL[w]
			walkLabels[r] = int(samples[i].Class)
		}
	})

	detCfg := autoenc.DefaultConfig(ext.Dim())
	detCfg.Epochs = opts.DetectorEpochs
	detCfg.BatchSize = opts.BatchSize
	detCfg.LR = opts.LR
	detCfg.Alpha = opts.Alpha
	detCfg.Seed = opts.Seed
	detCfg.Hooks = opts.Obs.TrainHooks("train.detector")
	// L2-normalized pattern features with a light denoising prior and no
	// z-scoring won the detector study (see EXPERIMENTS.md): GEA merges
	// shift the gram *pattern*, and standardization drowns that signal
	// in rescaled sparse-feature noise.
	detCfg.NoStandardize = true
	detCfg.NoiseStd = 0.02
	det, err := autoenc.Train(combined, detCfg)
	if err != nil {
		return nil, fmt.Errorf("core: detector: %w", err)
	}

	clsCfg := cnn.DefaultConfig(ext.WalkDim(), malgen.NumClasses)
	clsCfg.Filters = opts.Filters
	clsCfg.DenseUnits = opts.DenseUnits
	clsCfg.Epochs = opts.ClassifierEpochs
	clsCfg.BatchSize = opts.BatchSize
	clsCfg.LR = opts.LR
	clsCfg.Seed = opts.Seed
	clsCfg.Hooks = opts.Obs.TrainHooks("train.classifier")
	ens, err := cnn.TrainEnsemble(nn.FromRows(walkRows), nn.FromRows(lblRows), walkLabels, clsCfg)
	if err != nil {
		return nil, fmt.Errorf("core: classifier: %w", err)
	}

	p := &Pipeline{Extractor: ext, Detector: det, Ensemble: ens, opts: opts}
	// Stamp the fingerprint while the pipeline is provably quiescent, so
	// serving-time Fingerprint calls are pure reads.
	if _, err := p.Fingerprint(); err != nil {
		return nil, err
	}
	p.Instrument(opts.Obs)
	return p, nil
}

// Analyze runs the full pipeline on one CFG. salt individualizes the
// walk randomness (use a stable per-sample value for reproducibility).
func (p *Pipeline) Analyze(c *disasm.CFG, salt int64) (*Decision, error) {
	v, err := p.Extractor.Extract(c, salt)
	if err != nil {
		return nil, err
	}
	re := p.Detector.ReconstructionError(v.Combined)
	cls, err := p.Ensemble.Vote(v.DBL, v.LBL)
	if err != nil {
		return nil, err
	}
	return &Decision{
		Adversarial: re > p.Detector.Threshold(),
		RE:          re,
		Class:       malgen.Class(cls),
	}, nil
}

// analyzeChunkSize is the number of samples per scoring chunk in
// AnalyzeBatch. Large chunks feed the sharded GEMM path: 512 samples
// contribute 512*WalkCount walk rows per labeling, enough M for the
// kernels' statically owned row ranges to occupy every worker, where
// 64-row chunks left the M split mostly serial. The in-flight row
// matrices stay modest — at the default feature scale a chunk holds a
// few MB across its detector and classifier matrices, times
// analyzeDepth slots.
const analyzeChunkSize = 512

// analyzeDepth is the extraction look-ahead in chunks: extraction may
// run at most this many chunks ahead of scoring, bounding buffer
// memory while letting the two stages overlap. Two slots stay the
// right lookahead after the chunk-size raise: extraction and scoring
// shifted in the same ratio (both are per-sample work), so one chunk
// of lookahead still hides extraction behind scoring, and deeper
// pipelines would only multiply the (now 8x larger) resident chunk
// buffers without closing any stall.
const analyzeDepth = 2

// chunkBuf is one slot of the two-stage analyze pipeline: pre-offset
// row matrices the extraction stage fills (chunk sample i owns detector
// row i and classifier rows [i*wc, (i+1)*wc), wc the fixed per-sample
// walk count) and the scoring stage consumes with cross-sample batched
// forwards.
type chunkBuf struct {
	lo, n      int        // sample range [lo, lo+n) of the batch
	wc         int        // walks (classifier rows) per sample
	dblX, lblX *nn.Matrix // per-walk classifier rows, n*wc x WalkDim
	detX       *nn.Matrix // walk-aggregated detector rows, n x Dim
	errs       []error    // per-sample extraction errors
	res        []float64  // per-sample reconstruction errors
	cls        []int      // per-sample vote winners
}

func (p *Pipeline) getChunk() *chunkBuf {
	if c, ok := p.chunks.Get().(*chunkBuf); ok {
		return c
	}
	return new(chunkBuf)
}

// shape sizes the chunk for samples [lo, lo+n) of a batch under p's
// feature layout. Row contents and errs are unspecified until place
// fills each sample.
func (c *chunkBuf) shape(p *Pipeline, lo, n int) {
	c.lo, c.n = lo, n
	c.wc = p.Extractor.Config().WalkCount
	c.dblX = ensureMat(&c.dblX, n*c.wc, p.Extractor.WalkDim())
	c.lblX = ensureMat(&c.lblX, n*c.wc, p.Extractor.WalkDim())
	c.detX = ensureMat(&c.detX, n, p.Extractor.Dim())
	c.errs = ensureErrs(&c.errs, n)
}

// place records chunk sample i's outcome: its extracted vectors copied
// into its rows, or, when err is non-nil, the error and zeroed rows, so
// the chunk's batched forwards stay well-shaped and deterministic.
// Distinct samples touch disjoint rows, so workers may place
// concurrently.
func (c *chunkBuf) place(i int, v *features.Vectors, err error) {
	wc := c.wc
	c.errs[i] = err
	if err != nil {
		for r := i * wc; r < (i+1)*wc; r++ {
			zeroRow(c.dblX.Row(r))
			zeroRow(c.lblX.Row(r))
		}
		zeroRow(c.detX.Row(i))
		return
	}
	for w := 0; w < wc; w++ {
		r := i*wc + w
		copy(c.dblX.Row(r), v.DBL[w])
		copy(c.lblX.Row(r), v.LBL[w])
	}
	copy(c.detX.Row(i), v.Combined)
}

// AnalyzeBatch analyzes many CFGs through a bounded two-stage pipeline:
// extraction chunks fan out across the worker pool into pre-offset row
// matrices (walk counts are fixed per sample, so each sample's rows
// land at deterministic offsets) while the scoring stage consumes
// completed chunks with cross-sample batched forwards — a chunk's
// detector errors and ensemble votes run as a handful of large GEMMs
// instead of per-sample slivers, and extraction of the next chunk
// overlaps the scoring of the current one. Results are bit-identical
// to per-sample Analyze calls with the same salts; a failing sample's
// error carries its index.
func (p *Pipeline) AnalyzeBatch(cfgs []*disasm.CFG, salts []int64) ([]*Decision, error) {
	if len(cfgs) != len(salts) {
		return nil, fmt.Errorf("core: %d cfgs but %d salts", len(cfgs), len(salts))
	}
	out, errs := p.analyzeBatch(cfgs, salts, nil)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// analyzeBatch is AnalyzeBatch with per-sample error reporting: errs[i]
// is non-nil exactly when sample i failed, and out[i] is non-nil
// otherwise. A non-nil keys slice (parallel to cfgs) asks the scoring
// stage to fill the attached cache with each successful sample's
// verdict; nil runs fully uncached.
func (p *Pipeline) analyzeBatch(cfgs []*disasm.CFG, salts []int64, keys []store.Key) ([]*Decision, []error) {
	n := len(cfgs)
	out := make([]*Decision, n)
	errs := make([]error, n)
	if n == 0 {
		return out, errs
	}
	nChunks := (n + analyzeChunkSize - 1) / analyzeChunkSize
	depth := analyzeDepth
	if depth > nChunks {
		depth = nChunks
	}
	slots := make([]*chunkBuf, depth)
	for i := range slots {
		slots[i] = p.getChunk()
	}
	par.Overlap(nChunks, depth,
		func(ci, slot int) {
			lo := ci * analyzeChunkSize
			hi := lo + analyzeChunkSize
			if hi > n {
				hi = n
			}
			t := p.met.extractNs.Start()
			p.extractChunk(slots[slot], cfgs, salts, lo, hi)
			p.met.extractNs.Stop(t)
		},
		func(ci, slot int) {
			t := p.met.scoreNs.Start()
			p.scoreChunk(slots[slot], out, errs, keys)
			p.met.scoreNs.Stop(t)
		})
	for _, c := range slots {
		p.chunks.Put(c)
	}
	return out, errs
}

// extractChunk fills one chunk's row matrices from samples [lo, hi) of
// the batch, fanning the per-sample extractions across the worker pool.
func (p *Pipeline) extractChunk(c *chunkBuf, cfgs []*disasm.CFG, salts []int64, lo, hi int) {
	c.shape(p, lo, hi-lo)
	par.For(c.n, func(i int) {
		vb, _ := p.vecs.Get().(*features.Vectors)
		v, err := p.Extractor.ExtractInto(vb, cfgs[lo+i], salts[lo+i])
		if v != nil {
			defer p.vecs.Put(v)
		} else if vb != nil {
			defer p.vecs.Put(vb)
		}
		if err != nil {
			err = fmt.Errorf("core: sample %d: %w", lo+i, err)
		}
		c.place(i, v, err)
	})
}

// scoreChunk runs the batched scoring stage over one extracted chunk —
// one standardize+forward+RMSE pass for the detector and one forward
// per labeling for the ensemble — and scatters decisions into the
// batch-level output. With a non-nil keys slice it also stores each
// decision in the attached cache; this runs in the serial scoring
// stage, the sanctioned place for shared-state side effects (the
// extraction stage's par.For bodies must stay pure).
func (p *Pipeline) scoreChunk(c *chunkBuf, out []*Decision, errs []error, keys []store.Key) {
	failed := 0
	for _, err := range c.errs {
		if err != nil {
			failed++
		}
	}
	p.met.samples.Add(uint64(c.n - failed))
	p.met.errors.Add(uint64(failed))
	var threshold float64
	if failed < c.n {
		c.res = ensureF64(&c.res, c.n)
		c.cls = ensureInts(&c.cls, c.n)
		p.Detector.ReconstructionErrorsInto(c.res, c.detX)
		p.Ensemble.VoteBatchInto(c.cls, c.dblX, c.lblX, c.wc)
		threshold = p.Detector.Threshold()
	}
	fill := p.cache != nil && keys != nil
	for i := 0; i < c.n; i++ {
		if err := c.errs[i]; err != nil {
			errs[c.lo+i] = err
			continue
		}
		d := &Decision{
			Adversarial: c.res[i] > threshold,
			RE:          c.res[i],
			Class:       malgen.Class(c.cls[i]),
		}
		out[c.lo+i] = d
		if fill {
			p.cache.PutVerdict(keys[c.lo+i], verdictOf(d))
		}
	}
}

// AnalyzeBinary disassembles and analyzes a raw SOTB binary. With a
// cache attached, the verdict is looked up before any parsing or
// disassembly (a hit is a pure hash lookup), and a miss stores the
// verdict it computes.
func (p *Pipeline) AnalyzeBinary(bin []byte, salt int64) (*Decision, error) {
	var k store.Key
	if p.cache != nil {
		k = p.byteKey(bin, salt)
		t := p.met.cacheHitNs.Start()
		if v, ok := p.cache.Verdict(k); ok {
			p.met.cacheHitNs.Stop(t)
			return decisionOf(v), nil
		}
	}
	cfg, err := disassemble(bin)
	if err != nil {
		return nil, err
	}
	d, err := p.Analyze(cfg, salt)
	if err == nil && p.cache != nil {
		p.cache.PutVerdict(k, verdictOf(d))
	}
	return d, err
}

// AnalyzeBinaryBatch disassembles and analyzes many raw SOTB binaries
// in one batched pass. A binary that fails to parse or disassemble
// aborts the batch with its index in the error. With a cache attached
// the batch partitions: verdict hits are served immediately, and only
// misses flow through the two-stage extract/score pipeline (which
// stores their verdicts as it goes). Per-sample results are
// bit-identical either way.
func (p *Pipeline) AnalyzeBinaryBatch(bins [][]byte, salts []int64) ([]*Decision, error) {
	if len(bins) != len(salts) {
		return nil, fmt.Errorf("core: %d binaries but %d salts", len(bins), len(salts))
	}
	if p.cache == nil {
		cfgs, err := p.disassembleAll(bins, nil)
		if err != nil {
			return nil, err
		}
		return p.AnalyzeBatch(cfgs, salts)
	}

	out := make([]*Decision, len(bins))
	keys := make([]store.Key, len(bins))
	var missIdx []int
	for i, bin := range bins {
		keys[i] = p.byteKey(bin, salts[i])
		if v, ok := p.cache.Verdict(keys[i]); ok {
			out[i] = decisionOf(v)
			continue
		}
		missIdx = append(missIdx, i)
	}
	if len(missIdx) == 0 {
		return out, nil
	}
	missBins := make([][]byte, len(missIdx))
	missSalts := make([]int64, len(missIdx))
	missKeys := make([]store.Key, len(missIdx))
	for j, i := range missIdx {
		missBins[j] = bins[i]
		missSalts[j] = salts[i]
		missKeys[j] = keys[i]
	}
	cfgs, err := p.disassembleAll(missBins, missIdx)
	if err != nil {
		return nil, err
	}
	decs, errs := p.analyzeBatch(cfgs, missSalts, missKeys)
	for j, i := range missIdx {
		if errs[j] != nil {
			return nil, fmt.Errorf("core: sample %d: %w", i, errs[j])
		}
		out[i] = decs[j]
	}
	return out, nil
}

// disassembleAll parses and disassembles every binary in parallel; a
// failure aborts with the lowest failing sample's index. idx, when
// non-nil, maps local positions back to the caller's original indices
// for error messages.
func (p *Pipeline) disassembleAll(bins [][]byte, idx []int) ([]*disasm.CFG, error) {
	cfgs := make([]*disasm.CFG, len(bins))
	errs := make([]error, len(bins))
	par.For(len(bins), func(i int) {
		n := i
		if idx != nil {
			n = idx[i]
		}
		var err error
		if cfgs[i], err = disassemble(bins[i]); err != nil {
			errs[i] = fmt.Errorf("core: sample %d: %w", n, err)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cfgs, nil
}

// Options returns the training options.
func (p *Pipeline) Options() Options { return p.opts }

func fillFrom(opts, def Options) Options {
	if opts.Features.TopK == 0 {
		opts.Features = def.Features
	}
	if opts.DetectorEpochs == 0 {
		opts.DetectorEpochs = def.DetectorEpochs
	}
	if opts.ClassifierEpochs == 0 {
		opts.ClassifierEpochs = def.ClassifierEpochs
	}
	if opts.BatchSize == 0 {
		opts.BatchSize = def.BatchSize
	}
	if opts.LR == 0 {
		opts.LR = def.LR
	}
	if opts.Alpha == 0 {
		opts.Alpha = def.Alpha
	}
	if opts.Filters == 0 {
		opts.Filters = def.Filters
	}
	if opts.DenseUnits == 0 {
		opts.DenseUnits = def.DenseUnits
	}
	if opts.Seed == 0 {
		opts.Seed = def.Seed
	}
	return opts
}
