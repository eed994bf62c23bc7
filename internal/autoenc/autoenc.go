// Package autoenc implements Soteria's adversarial-example detector
// (paper section III-B.3): a five-layer fully connected autoencoder
// trained exclusively on clean samples to reconstruct the combined
// DBL+LBL feature vector. At inference, the root-mean-square
// reconstruction error (RE) of a sample is compared against a threshold
// derived from the training distribution, T = mu(RE) + alpha*sigma(RE);
// samples above the threshold are flagged adversarial.
//
// The paper's layer widths are 1000 -> 2000 -> 3000 -> 2000 -> 1000,
// i.e. hidden widths of 2x, 3x and 2x the input dimension; Config keeps
// that ratio for any input size so CI-scale feature dimensions train in
// seconds while paper-scale dimensions remain available.
package autoenc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"soteria/internal/nn"
	"soteria/internal/obs"
)

// Config parameterizes the detector.
type Config struct {
	// InputDim is the combined feature dimension (paper: 1000).
	InputDim int `json:"inputDim"`
	// Hidden are the encoder/decoder widths (paper: 2000, 3000, 2000).
	// Empty means 2x/3x/2x of InputDim.
	Hidden []int `json:"hidden"`
	// Alpha is the threshold multiplier in T = mu + alpha*sigma
	// (paper: 1.0, chosen without access to the test set).
	Alpha float64 `json:"alpha"`
	// Epochs and BatchSize follow the paper (100, 128) by default.
	Epochs    int `json:"epochs"`
	BatchSize int `json:"batchSize"`
	// LR is the Adam learning rate.
	LR float64 `json:"lr"`
	// ValFraction is the share of the clean training set held out for
	// the validation unit that calibrates mu and sigma. Calibrating on
	// unseen clean data keeps the threshold honest when the autoencoder
	// memorizes its training rows. Default 0.15.
	ValFraction float64 `json:"valFraction"`
	// NoiseStd adds Gaussian input noise during training (denoising
	// autoencoder): each training row also appears as Augment noisy
	// replicas whose reconstruction target is the clean row. The noise
	// scale is relative — each feature's noise is NoiseStd times that
	// feature's standard deviation over the training set — so it adapts
	// to the feature magnitude. This keeps held-out clean samples
	// reconstructible when the training corpus is small. Default 0.25;
	// set negative to disable.
	NoiseStd float64 `json:"noiseStd"`
	// Augment is the number of noisy replicas per row (default 3).
	Augment int `json:"augment"`
	// NoStandardize disables the z-score feature standardization in
	// front of the autoencoder (enabled by default).
	NoStandardize bool `json:"noStandardize"`
	// Seed makes weight init and batching deterministic.
	Seed int64 `json:"seed"`
	// Hooks observes per-epoch training loss and wall time (nil = off).
	// Write-only: fitted weights are bit-identical with hooks on or off.
	Hooks *obs.TrainHooks `json:"-"`
}

// DefaultConfig returns the paper's training parameters for the given
// input dimension.
func DefaultConfig(inputDim int) Config {
	return Config{
		InputDim:  inputDim,
		Alpha:     1.0,
		Epochs:    100,
		BatchSize: 128,
		LR:        1e-3,
		Seed:      1,
	}
}

func (c *Config) fill() error {
	if c.InputDim <= 0 {
		return fmt.Errorf("autoenc: invalid input dim %d", c.InputDim)
	}
	if len(c.Hidden) == 0 {
		c.Hidden = []int{2 * c.InputDim, 3 * c.InputDim, 2 * c.InputDim}
	}
	if c.Alpha == 0 {
		c.Alpha = 1.0
	}
	if c.Epochs <= 0 {
		c.Epochs = 100
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 128
	}
	if c.LR <= 0 {
		c.LR = 1e-3
	}
	if c.ValFraction <= 0 || c.ValFraction >= 0.9 {
		c.ValFraction = 0.15
	}
	if c.NoiseStd == 0 {
		c.NoiseStd = 0.25
	}
	if c.NoiseStd < 0 {
		c.NoiseStd = 0
	}
	if c.Augment <= 0 {
		c.Augment = 3
	}
	return nil
}

// Detector is a trained adversarial-example detector.
type Detector struct {
	cfg       Config
	net       *nn.Network
	mu, sigma float64
	// Feature standardization (z-score) fitted on the training set.
	// Standardizing before the autoencoder equalizes feature scales —
	// raw TF-IDF values are tiny and sparse — and turns the depressed
	// in-vocabulary mass of a GEA sample into large negative z-scores
	// across many features, which reconstruct poorly.
	featMean, featStd []float64

	// scratch recycles per-call scoring buffers; each concurrent scorer
	// borrows its own set, so scoring a shared detector is race-free
	// and, at steady state, allocation-free.
	scratch sync.Pool

	// met holds the detector's drift metrics; all fields are nil until
	// Instrument, so an uninstrumented detector pays one pointer check
	// per scored sample.
	met detObs
}

// detObs tracks the deployed RE distribution against the trained
// calibration: a histogram of per-sample reconstruction errors, their
// exponentially weighted rolling mean, and that mean's distance from
// the trained mu in units of sigma — the drift signal an operator
// watches to notice the clean-traffic distribution sliding toward (or
// away from) the fixed threshold.
type detObs struct {
	re     *obs.Histogram
	reMean *obs.EWMA
	drift  *obs.Gauge
}

// reDecay is the rolling-mean decay: each sample moves the mean 1% of
// the way to its RE, i.e. a ~100-sample memory — long enough to smooth
// walk noise, short enough to show drift within one dashboard refresh.
const reDecay = 0.01

// Instrument registers the detector's drift metrics ("detector.re",
// "detector.re_mean", "detector.re_drift_sigma") in r and starts
// observing every scored sample's reconstruction error. A nil registry
// is a no-op. Call before serving; observations are write-only and never
// affect scores or the threshold.
func (d *Detector) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	// Bucket the RE axis around the calibration: 32 linear buckets
	// spanning [0, mu+8*sigma] put the threshold (mu + alpha*sigma)
	// well inside the resolved range, with drift past it landing in the
	// upper buckets and overflow.
	hi := d.mu + 8*d.sigma
	if hi <= 0 {
		hi = 1
	}
	d.met = detObs{
		re:     r.Histogram("detector.re", obs.LinearBuckets(hi/32, hi/32, 32)),
		reMean: r.EWMA("detector.re_mean", reDecay),
		drift:  r.Gauge("detector.re_drift_sigma"),
	}
}

// observeRE folds one sample's reconstruction error into the drift
// metrics. One pointer check when uninstrumented; allocation-free and
// race-safe when instrumented.
func (d *Detector) observeRE(re float64) {
	if d.met.re == nil {
		return
	}
	d.met.re.Observe(re)
	d.met.reMean.Observe(re)
	if d.sigma > 0 {
		d.met.drift.Set((d.met.reMean.Value() - d.mu) / d.sigma)
	} else {
		d.met.drift.Set(d.met.reMean.Value() - d.mu)
	}
}

// observeREs is observeRE over a batch of errors.
func (d *Detector) observeREs(res []float64) {
	if d.met.re == nil {
		return
	}
	for _, re := range res {
		d.observeRE(re)
	}
}

// scoreScratch is one scorer's working set: the standardized input and
// the per-row error vector. (The reconstruction itself needs no buffer
// — it is read straight from the network's inference arena.)
type scoreScratch struct {
	z   *nn.Matrix
	res []float64
}

func (d *Detector) getScratch() *scoreScratch {
	if s, ok := d.scratch.Get().(*scoreScratch); ok {
		return s
	}
	return new(scoreScratch)
}

// ensureF64 resizes a float64 slice, reusing capacity. Contents are
// unspecified.
func ensureF64(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return *s
}

// ensureMat resizes *m to rows x cols, reusing the backing storage
// when possible. Contents are unspecified.
func ensureMat(m **nn.Matrix, rows, cols int) *nn.Matrix {
	if *m == nil || cap((*m).Data) < rows*cols {
		*m = nn.NewMatrix(rows, cols)
		return *m
	}
	(*m).Rows, (*m).Cols, (*m).Data = rows, cols, (*m).Data[:rows*cols]
	return *m
}

// standardize maps raw feature rows into z-score space.
func (d *Detector) standardize(x *nn.Matrix) *nn.Matrix {
	out := x.Clone()
	d.standardizeInPlace(out)
	return out
}

func (d *Detector) standardizeInPlace(x *nn.Matrix) {
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = (row[j] - d.featMean[j]) / d.featStd[j]
		}
	}
}

// scoreInto reconstructs the already-standardized rows of z and writes
// each row's RMSE into dst (length z.Rows). The reconstruction is read
// straight from the network's inference arena, so the pass makes no
// output copy and no allocation.
func (d *Detector) scoreInto(dst []float64, z *nn.Matrix) {
	d.net.PredictApply(z, func(rec *nn.Matrix) {
		nn.RMSEInto(dst, rec, z)
	})
}

// standardizeCopy copies x into the scratch matrix s.z and z-scores it,
// leaving the caller's input untouched.
func (d *Detector) standardizeCopy(s *scoreScratch, x *nn.Matrix) *nn.Matrix {
	if x.Cols != d.cfg.InputDim {
		panic(fmt.Sprintf("autoenc: input has %d features, want %d", x.Cols, d.cfg.InputDim))
	}
	z := ensureMat(&s.z, x.Rows, x.Cols)
	copy(z.Data, x.Data)
	d.standardizeInPlace(z)
	return z
}

// ErrNoTrainingData is returned when Train receives an empty matrix.
var ErrNoTrainingData = errors.New("autoenc: no training data")

// Train fits the autoencoder on clean feature vectors (rows of x) and
// calibrates the detection threshold from the reconstruction errors of
// a held-out validation unit: a shuffled ValFraction of the rows that
// the network never trains on. The detector never sees adversarial
// data, per the paper's operation mode.
func Train(x *nn.Matrix, cfg Config) (*Detector, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if x.Rows == 0 {
		return nil, ErrNoTrainingData
	}
	if x.Cols != cfg.InputDim {
		return nil, fmt.Errorf("autoenc: data has %d features, config says %d", x.Cols, cfg.InputDim)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := buildNet(cfg, rng)

	d := &Detector{cfg: cfg, net: net}
	if cfg.NoStandardize {
		d.featMean = make([]float64, x.Cols)
		d.featStd = make([]float64, x.Cols)
		for j := range d.featStd {
			d.featStd[j] = 1
		}
	} else {
		d.featMean, d.featStd = columnMeanStd(x)
	}
	z := d.standardize(x)

	// Split off the validation unit's calibration rows. Both splits
	// keep ascending row order; only membership is shuffled.
	perm := make([]int, x.Rows)
	for i := range perm {
		perm[i] = i
	}
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	nVal := int(float64(x.Rows) * cfg.ValFraction)
	if nVal < 1 && x.Rows > 1 {
		nVal = 1
	}
	isVal := make([]bool, x.Rows)
	for _, r := range perm[:nVal] {
		isVal[r] = true
	}
	var trainRows, valRows []int
	for r, v := range isVal {
		if v {
			valRows = append(valRows, r)
		} else {
			trainRows = append(trainRows, r)
		}
	}
	if len(trainRows) == 0 {
		trainRows = valRows
	}
	trainX := nn.NewMatrix(len(trainRows), z.Cols)
	for i, r := range trainRows {
		copy(trainX.Row(i), z.Row(r))
	}

	// Denoising augmentation: clean rows plus noisy replicas targeting
	// the clean row (features are standardized, so NoiseStd is already
	// relative to feature scale).
	inX, tgtX := trainX, trainX
	if cfg.NoiseStd > 0 && cfg.Augment > 0 {
		rows := trainX.Rows * (1 + cfg.Augment)
		in := nn.NewMatrix(rows, trainX.Cols)
		tgt := nn.NewMatrix(rows, trainX.Cols)
		for i := 0; i < trainX.Rows; i++ {
			copy(in.Row(i), trainX.Row(i))
			copy(tgt.Row(i), trainX.Row(i))
		}
		for a := 0; a < cfg.Augment; a++ {
			for i := 0; i < trainX.Rows; i++ {
				r := (1+a)*trainX.Rows + i
				src := trainX.Row(i)
				dst := in.Row(r)
				for j, v := range src {
					dst[j] = v + cfg.NoiseStd*rng.NormFloat64()
				}
				copy(tgt.Row(r), src)
			}
		}
		inX, tgtX = in, tgt
	}

	tr := nn.Trainer{Net: net, Loss: nn.MSE{}, Opt: nn.NewAdam(cfg.LR)}
	if _, err := tr.Fit(inX, tgtX, nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: cfg.BatchSize,
		Seed:      cfg.Seed,
		Hooks:     cfg.Hooks,
	}); err != nil {
		return nil, fmt.Errorf("autoenc: train: %w", err)
	}

	// Calibrate on the validation unit's reconstruction errors.
	calibRows := valRows
	if len(calibRows) == 0 {
		calibRows = trainRows
	}
	calibX := nn.NewMatrix(len(calibRows), z.Cols)
	for i, r := range calibRows {
		copy(calibX.Row(i), z.Row(r))
	}
	d.mu, d.sigma = meanStd(nn.RMSE(net.PredictInto(nil, calibX), calibX))
	return d, nil
}

func buildNet(cfg Config, rng *rand.Rand) *nn.Network {
	dims := append([]int{cfg.InputDim}, cfg.Hidden...)
	dims = append(dims, cfg.InputDim)
	layers := make([]nn.Layer, 0, 2*len(dims))
	for i := 0; i+1 < len(dims); i++ {
		layers = append(layers, nn.NewDense(dims[i], dims[i+1], rng))
		if i+2 < len(dims) { // no activation on the reconstruction layer
			layers = append(layers, nn.NewReLU())
		}
	}
	return nn.NewNetwork(layers...)
}

// ReconstructionErrors returns the per-row RMSE between the
// standardized input and its reconstruction. Safe for concurrent use
// on a shared trained detector; the returned slice is the call's only
// allocation.
func (d *Detector) ReconstructionErrors(x *nn.Matrix) []float64 {
	return d.ReconstructionErrorsInto(make([]float64, x.Rows), x)
}

// ReconstructionErrorsInto is ReconstructionErrors written into a
// caller-provided slice of length x.Rows: one batched
// standardize+forward+RMSE pass, allocation-free at steady state and
// safe for concurrent use.
func (d *Detector) ReconstructionErrorsInto(dst []float64, x *nn.Matrix) []float64 {
	if len(dst) != x.Rows {
		panic(fmt.Sprintf("autoenc: ReconstructionErrorsInto dst has len %d, want %d", len(dst), x.Rows))
	}
	if x.Rows == 0 {
		return dst
	}
	s := d.getScratch()
	z := d.standardizeCopy(s, x)
	d.scoreInto(dst, z)
	d.scratch.Put(s)
	d.observeREs(dst)
	return dst
}

// ReconstructionError returns the RMSE of one feature vector. The call
// is allocation-free at steady state and safe for concurrent use.
func (d *Detector) ReconstructionError(vec []float64) float64 {
	s := d.getScratch()
	z := ensureMat(&s.z, 1, d.cfg.InputDim)
	if len(vec) != z.Cols {
		panic(fmt.Sprintf("autoenc: feature vector has %d entries, want %d", len(vec), z.Cols))
	}
	row := z.Row(0)
	for j, v := range vec {
		row[j] = (v - d.featMean[j]) / d.featStd[j]
	}
	res := ensureF64(&s.res, 1)
	d.scoreInto(res, z)
	re := res[0]
	d.scratch.Put(s)
	d.observeRE(re)
	return re
}

// Threshold returns the calibrated detection threshold
// mu + Alpha*sigma.
func (d *Detector) Threshold() float64 { return d.ThresholdAt(d.cfg.Alpha) }

// ThresholdAt returns the threshold for an arbitrary alpha, supporting
// the paper's Fig. 13 sensitivity sweep.
func (d *Detector) ThresholdAt(alpha float64) float64 { return d.mu + alpha*d.sigma }

// Mu returns the mean training reconstruction error.
func (d *Detector) Mu() float64 { return d.mu }

// Sigma returns the standard deviation of training reconstruction error.
func (d *Detector) Sigma() float64 { return d.sigma }

// Alpha returns the configured threshold multiplier.
func (d *Detector) Alpha() float64 { return d.cfg.Alpha }

// SetAlpha changes the threshold multiplier (recalibration is free; mu
// and sigma are retained from training).
func (d *Detector) SetAlpha(alpha float64) { d.cfg.Alpha = alpha }

// IsAdversarial reports whether one feature vector exceeds the
// detection threshold.
func (d *Detector) IsAdversarial(vec []float64) bool {
	return d.ReconstructionError(vec) > d.Threshold()
}

// DetectBatch flags every row of x whose RE exceeds the threshold. The
// returned slice is the call's only allocation.
func (d *Detector) DetectBatch(x *nn.Matrix) []bool {
	out := make([]bool, x.Rows)
	if x.Rows == 0 {
		return out
	}
	s := d.getScratch()
	z := d.standardizeCopy(s, x)
	res := ensureF64(&s.res, x.Rows)
	d.scoreInto(res, z)
	th := d.Threshold()
	for i, r := range res {
		out[i] = r > th
	}
	d.scratch.Put(s)
	return out
}

// Network exposes the underlying autoencoder (for persistence).
func (d *Detector) Network() *nn.Network { return d.net }

// Config returns the detector's effective (filled) configuration.
func (d *Detector) Config() Config { return d.cfg }

// Calibration exposes mu and sigma for persistence.
func (d *Detector) Calibration() (mu, sigma float64) { return d.mu, d.sigma }

// State is everything needed to rebuild a trained detector.
type State struct {
	Weights   []float64 `json:"weights"`
	Mu, Sigma float64
	FeatMean  []float64 `json:"featMean"`
	FeatStd   []float64 `json:"featStd"`
}

// State exports the detector's trained state.
func (d *Detector) State() State {
	return State{
		Weights:  d.net.SaveWeights(),
		Mu:       d.mu,
		Sigma:    d.sigma,
		FeatMean: append([]float64(nil), d.featMean...),
		FeatStd:  append([]float64(nil), d.featStd...),
	}
}

// Restore rebuilds a detector from persisted state.
func Restore(cfg Config, st State) (*Detector, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(st.FeatMean) != cfg.InputDim || len(st.FeatStd) != cfg.InputDim {
		return nil, fmt.Errorf("autoenc: standardization stats have %d/%d entries, want %d",
			len(st.FeatMean), len(st.FeatStd), cfg.InputDim)
	}
	net := buildNet(cfg, rand.New(rand.NewSource(cfg.Seed)))
	if err := net.LoadWeights(st.Weights); err != nil {
		return nil, err
	}
	return &Detector{
		cfg: cfg, net: net,
		mu: st.Mu, sigma: st.Sigma,
		featMean: st.FeatMean, featStd: st.FeatStd,
	}, nil
}

// columnMeanStd returns per-column mean and standard deviation, with
// zero-variance columns getting std 1 so standardization stays finite.
func columnMeanStd(x *nn.Matrix) (mean, std []float64) {
	mean = make([]float64, x.Cols)
	std = make([]float64, x.Cols)
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(x.Rows)
	}
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(x.Rows))
		if std[j] < 1e-12 {
			std[j] = 1
		}
	}
	return mean, std
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}
