// Package dynamic implements the behavioural-analysis alternative the
// paper's introduction contrasts with Soteria's static approach:
// execute each sample in a sandbox (the bundled SOT-32 VM), record its
// system-call trace, and classify on trace features. Dynamic features
// are comprehensive — they see exactly what the program does — but
// extraction costs a full execution per sample, the scalability
// weakness the paper cites; BenchmarkDynamicVsStatic quantifies it.
package dynamic

import (
	"errors"
	"fmt"
	"math/rand"

	"soteria/internal/isa"
	"soteria/internal/ngram"
	"soteria/internal/nn"
)

// DefaultMaxSteps bounds sandbox executions.
const DefaultMaxSteps = 500_000

// Trace executes the binary in the VM and returns its syscall-number
// sequence. Executions that exceed maxSteps return what was observed so
// far (sandboxes time out; partial traces are still useful), but other
// failures — crashed samples — are errors.
func Trace(bin *isa.Binary, maxSteps int) ([]int, error) {
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	vm := isa.NewVM(bin)
	err := vm.Run(maxSteps)
	if err != nil && !errors.Is(err, isa.ErrStepLimit) {
		return nil, fmt.Errorf("dynamic: execution failed: %w", err)
	}
	out := make([]int, len(vm.Syscalls))
	for i, sc := range vm.Syscalls {
		out[i] = int(sc[0])
	}
	return out, nil
}

// Config parameterizes the behavioural feature extractor.
type Config struct {
	// Ns are the syscall n-gram lengths (default 1, 2).
	Ns []int
	// TopK is the vocabulary size (default 128).
	TopK int
	// MaxSteps bounds each execution.
	MaxSteps int
}

func (c *Config) fill() {
	if len(c.Ns) == 0 {
		c.Ns = []int{1, 2}
	}
	if c.TopK <= 0 {
		c.TopK = 128
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = DefaultMaxSteps
	}
}

// Extractor turns syscall traces into TF-IDF vectors.
type Extractor struct {
	cfg Config
	v   *ngram.Vectorizer
}

// NewExtractor returns an unfitted behavioural extractor.
func NewExtractor(cfg Config) *Extractor {
	cfg.fill()
	return &Extractor{cfg: cfg}
}

// ErrNotFitted is returned by Extract before Fit.
var ErrNotFitted = errors.New("dynamic: extractor not fitted")

// Fit executes every training binary and builds the trace-gram
// vocabulary.
func (e *Extractor) Fit(bins []*isa.Binary) error {
	corpus := make([]map[string]int, 0, len(bins))
	for i, b := range bins {
		trace, err := Trace(b, e.cfg.MaxSteps)
		if err != nil {
			return fmt.Errorf("dynamic: fit sample %d: %w", i, err)
		}
		corpus = append(corpus, ngram.Grams(trace, e.cfg.Ns))
	}
	e.v = ngram.Fit(corpus, e.cfg.TopK)
	return nil
}

// Fitted reports whether Fit succeeded.
func (e *Extractor) Fitted() bool { return e.v != nil }

// Dim returns the feature dimension.
func (e *Extractor) Dim() int { return e.cfg.TopK }

// Extract executes the binary and vectorizes its trace.
func (e *Extractor) Extract(bin *isa.Binary) ([]float64, error) {
	if !e.Fitted() {
		return nil, ErrNotFitted
	}
	trace, err := Trace(bin, e.cfg.MaxSteps)
	if err != nil {
		return nil, err
	}
	return e.v.Vector(ngram.Grams(trace, e.cfg.Ns)), nil
}

// ClassifierConfig parameterizes the behavioural classifier.
type ClassifierConfig struct {
	Classes   int
	Hidden    []int // default {64, 32}
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
}

// Classifier is a dense network over behavioural features.
type Classifier struct {
	ext *Extractor
	net *nn.Network
}

// TrainClassifier fits the behavioural baseline end to end: traces and
// vectorizes the binaries, then trains a dense classifier.
func TrainClassifier(ext *Extractor, bins []*isa.Binary, labels []int, cfg ClassifierConfig) (*Classifier, error) {
	if !ext.Fitted() {
		return nil, ErrNotFitted
	}
	if len(bins) == 0 {
		return nil, errors.New("dynamic: no training data")
	}
	if len(bins) != len(labels) {
		return nil, fmt.Errorf("dynamic: %d binaries but %d labels", len(bins), len(labels))
	}
	if cfg.Classes <= 1 {
		return nil, fmt.Errorf("dynamic: invalid class count %d", cfg.Classes)
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{64, 32}
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 80
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}

	x := nn.NewMatrix(len(bins), ext.Dim())
	for i, b := range bins {
		vec, err := ext.Extract(b)
		if err != nil {
			return nil, err
		}
		copy(x.Row(i), vec)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dims := append([]int{ext.Dim()}, cfg.Hidden...)
	layers := make([]nn.Layer, 0, 2*len(dims))
	for i := 0; i+1 < len(dims); i++ {
		layers = append(layers, nn.NewDense(dims[i], dims[i+1], rng), nn.NewReLU())
	}
	layers = append(layers, nn.NewDense(dims[len(dims)-1], cfg.Classes, rng))
	net := nn.NewNetwork(layers...)
	tr := nn.Trainer{Net: net, Loss: nn.SoftmaxCrossEntropy{}, Opt: nn.NewAdam(cfg.LR)}
	if _, err := tr.Fit(x, nn.OneHot(labels, cfg.Classes), nn.TrainConfig{
		Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, Seed: cfg.Seed,
	}); err != nil {
		return nil, fmt.Errorf("dynamic: train: %w", err)
	}
	return &Classifier{ext: ext, net: net}, nil
}

// Predict classifies binaries by executing them.
func (c *Classifier) Predict(bins []*isa.Binary) ([]int, error) {
	out := make([]int, len(bins))
	for i, b := range bins {
		vec, err := c.ext.Extract(b)
		if err != nil {
			return nil, err
		}
		out[i] = nn.Argmax(c.net.Predict(nn.FromRows([][]float64{vec})))[0]
	}
	return out, nil
}
