// Package autoenc implements Soteria's adversarial-example detector
// (paper section III-B.3): a five-layer fully connected autoencoder
// trained exclusively on clean samples to reconstruct the combined
// DBL+LBL feature vector. At inference, the root-mean-square
// reconstruction error (RE) of a sample is compared against a threshold
// derived from the training distribution, T = mu(RE) + alpha*sigma(RE);
// samples above the threshold are flagged adversarial.
//
// The paper's layer widths are 1000 -> 2000 -> 3000 -> 2000 -> 1000,
// i.e. hidden widths of 2x, 3x and 2x the input dimension. The detector
// keeps that ratio for any input size, so CI-scale feature dimensions
// train in seconds while paper-scale dimensions remain available.
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
	// InputDim is the combined feature dimension (paper: 1000). The
	// hidden widths are fixed at 2x, 3x and 2x InputDim (paper: 2000,
	// 3000, 2000).
	InputDim int `json:"inputDim"`
	// Alpha is the threshold multiplier in T = mu + alpha*sigma
	// (paper: 1.0, chosen without access to the test set).
	Alpha float64 `json:"alpha"`
	// Epochs and BatchSize follow the paper (100, 128) by default.
	Epochs    int `json:"epochs"`
	BatchSize int `json:"batchSize"`
	// LR is the Adam learning rate.
	LR float64 `json:"lr"`
	// Seed makes weight init and batching deterministic.
	Seed int64 `json:"seed"`
	// Hooks observes per-epoch training loss and wall time (nil = off).
	// Write-only: fitted weights are bit-identical with hooks on or off.
	Hooks *obs.TrainHooks `json:"-"`
}

// Training settings the paper leaves open, fixed by the detector design
// study (EXPERIMENTS.md). The detector reads its feature vectors as
// they come, L2-normalized per labeling, without z-scoring.
const (
	// valFraction is the share of the clean training set held out for
	// the validation unit that calibrates mu and sigma. Calibrating on
	// unseen clean data keeps the threshold honest when the autoencoder
	// memorizes its training rows.
	valFraction = 0.15
	// noiseStd is the standard deviation of the Gaussian input noise of
	// denoising training, an absolute scale on the feature values (each
	// labeling's half of a detector vector has unit L2 norm): each
	// training row also appears as augment noisy replicas whose
	// reconstruction target is the clean row. This light prior keeps
	// held-out clean samples reconstructible when the training corpus
	// is small.
	noiseStd = 0.02
	// augment is the number of noisy replicas per training row.
	augment = 3
)

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
	return nil
}

// Detector is a trained adversarial-example detector.
type Detector struct {
	cfg       Config
	net       *nn.Network
	mu, sigma float64

	// scratch recycles ReconstructionError's working set; each
	// concurrent scorer borrows its own, so scoring a shared detector
	// is race-free and, at steady state, allocation-free.
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

// scoreScratch is one single-vector scorer's working set: a one-row
// matrix over the caller's vector and its error. (The reconstruction
// itself needs no buffer — it is read straight from the network's
// inference arena.)
type scoreScratch struct {
	x   nn.Matrix
	res [1]float64
}

func (d *Detector) getScratch() *scoreScratch {
	if s, ok := d.scratch.Get().(*scoreScratch); ok {
		return s
	}
	return new(scoreScratch)
}

// scoreInto reconstructs the rows of x and writes each row's RMSE into
// dst (length x.Rows). The reconstruction is read straight from the
// network's inference arena, so the pass makes no copy of its input or
// output and no allocation.
func (d *Detector) scoreInto(dst []float64, x *nn.Matrix) {
	if x.Cols != d.cfg.InputDim {
		panic(fmt.Sprintf("autoenc: input has %d features, want %d", x.Cols, d.cfg.InputDim))
	}
	d.net.PredictApply(x, func(rec *nn.Matrix) {
		nn.RMSEInto(dst, rec, x)
	})
}

// ErrNoTrainingData is returned when Train receives an empty matrix.
var ErrNoTrainingData = errors.New("autoenc: no training data")

// Train fits the autoencoder on clean feature vectors (rows of x) and
// calibrates the detection threshold from the reconstruction errors of
// a held-out validation unit: a shuffled valFraction of the rows that
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

	// Split off the validation unit's calibration rows. Both splits
	// keep ascending row order; only membership is shuffled.
	perm := make([]int, x.Rows)
	for i := range perm {
		perm[i] = i
	}
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	nVal := int(float64(x.Rows) * valFraction)
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

	// Denoising augmentation: the training rows, then augment noisy
	// replicas of them, each row targeting its clean original.
	n := len(trainRows)
	inX := nn.NewMatrix(n*(1+augment), x.Cols)
	tgtX := nn.NewMatrix(inX.Rows, x.Cols)
	for i, r := range trainRows {
		copy(inX.Row(i), x.Row(r))
	}
	for a := 0; a < augment; a++ {
		for i := 0; i < n; i++ {
			dst := inX.Row((1+a)*n + i)
			for j, v := range inX.Row(i) {
				dst[j] = v + noiseStd*rng.NormFloat64()
			}
		}
	}
	for r := 0; r < tgtX.Rows; r++ {
		copy(tgtX.Row(r), inX.Row(r%n))
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
	calibX := nn.NewMatrix(len(calibRows), x.Cols)
	for i, r := range calibRows {
		copy(calibX.Row(i), x.Row(r))
	}
	mu, sigma := meanStd(nn.RMSE(net.PredictInto(nil, calibX), calibX))
	return &Detector{cfg: cfg, net: net, mu: mu, sigma: sigma}, nil
}

// buildNet builds the paper's five-layer autoencoder at cfg.InputDim:
// hidden widths 2x, 3x and 2x the input.
func buildNet(cfg Config, rng *rand.Rand) *nn.Network {
	in := cfg.InputDim
	dims := []int{in, 2 * in, 3 * in, 2 * in, in}
	layers := make([]nn.Layer, 0, 2*len(dims))
	for i := 0; i+1 < len(dims); i++ {
		layers = append(layers, nn.NewDense(dims[i], dims[i+1], rng))
		if i+2 < len(dims) { // no activation on the reconstruction layer
			layers = append(layers, nn.NewReLU())
		}
	}
	return nn.NewNetwork(layers...)
}

// ReconstructionErrors returns the per-row RMSE between the input and
// its reconstruction. Safe for concurrent use on a shared trained
// detector; the returned slice is the call's only allocation.
func (d *Detector) ReconstructionErrors(x *nn.Matrix) []float64 {
	return d.ReconstructionErrorsInto(make([]float64, x.Rows), x)
}

// ReconstructionErrorsInto is ReconstructionErrors written into a
// caller-provided slice of length x.Rows: one batched forward+RMSE
// pass over the caller's rows, allocation-free at steady state and
// safe for concurrent use.
func (d *Detector) ReconstructionErrorsInto(dst []float64, x *nn.Matrix) []float64 {
	if len(dst) != x.Rows {
		panic(fmt.Sprintf("autoenc: ReconstructionErrorsInto dst has len %d, want %d", len(dst), x.Rows))
	}
	if x.Rows == 0 {
		return dst
	}
	d.scoreInto(dst, x)
	d.observeREs(dst)
	return dst
}

// ReconstructionError returns the RMSE of one feature vector. The call
// is allocation-free at steady state and safe for concurrent use.
func (d *Detector) ReconstructionError(vec []float64) float64 {
	s := d.getScratch()
	s.x = nn.Matrix{Rows: 1, Cols: len(vec), Data: vec}
	d.scoreInto(s.res[:], &s.x)
	re := s.res[0]
	s.x.Data = nil // the pool must not keep the caller's vector alive
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
}

// State exports the detector's trained state.
func (d *Detector) State() State {
	return State{Weights: d.net.SaveWeights(), Mu: d.mu, Sigma: d.sigma}
}

// Restore rebuilds a detector from persisted state.
func Restore(cfg Config, st State) (*Detector, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	net := buildNet(cfg, rand.New(rand.NewSource(cfg.Seed)))
	if err := net.LoadWeights(st.Weights); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, net: net, mu: st.Mu, sigma: st.Sigma}, nil
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
