// Package cnn implements Soteria's malware classifier (paper section
// III-C): a 1-D CNN per labeling scheme — two convolutional blocks
// (each two conv layers of 46 filters of size 1x3 with stride 1,
// followed by 2x max-pooling and dropout 0.25) and a classification
// block (dense 512, dropout 0.5, softmax) — plus the majority-voting
// ensemble that combines the per-walk predictions of both CNNs.
package cnn

import (
	"errors"
	"fmt"
	"math/rand"

	"soteria/internal/nn"
	"soteria/internal/obs"
)

// Config parameterizes one CNN classifier.
type Config struct {
	// InputDim is the per-walk feature dimension (paper: 500).
	InputDim int `json:"inputDim"`
	// Classes is the number of output classes (paper: 4).
	Classes int `json:"classes"`
	// Filters per convolutional layer (paper: 46).
	Filters int `json:"filters"`
	// DenseUnits in the classification block (paper: 512).
	DenseUnits int `json:"denseUnits"`
	// Epochs and BatchSize follow the paper (100, 128) by default.
	Epochs    int `json:"epochs"`
	BatchSize int `json:"batchSize"`
	// LR is the Adam learning rate.
	LR float64 `json:"lr"`
	// Seed drives weight init, dropout, and batching.
	Seed int64 `json:"seed"`
	// Hooks observes per-epoch training loss and wall time (nil = off).
	// Write-only: fitted weights are bit-identical with hooks on or off.
	Hooks *obs.TrainHooks `json:"-"`
}

// The paper's fixed architecture settings.
const (
	// kernel is the convolution kernel size (1x3).
	kernel = 3
	// dropoutConv follows each conv block.
	dropoutConv = 0.25
	// dropoutFC follows the dense layer of the classification block.
	dropoutFC = 0.5
)

// DefaultConfig returns the paper's classifier parameters for a given
// per-walk feature dimension and class count.
func DefaultConfig(inputDim, classes int) Config {
	return Config{
		InputDim:   inputDim,
		Classes:    classes,
		Filters:    46,
		DenseUnits: 512,
		Epochs:     100,
		BatchSize:  128,
		LR:         1e-3,
		Seed:       1,
	}
}

func (c *Config) fill() error {
	if c.InputDim <= 0 || c.Classes <= 1 {
		return fmt.Errorf("cnn: invalid dims: input=%d classes=%d", c.InputDim, c.Classes)
	}
	if c.Filters <= 0 {
		c.Filters = 46
	}
	if c.DenseUnits <= 0 {
		c.DenseUnits = 512
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
	// The two conv blocks need enough sequence length to survive four
	// valid convolutions and two poolings.
	if c.InputDim < 4*kernel+8 {
		return fmt.Errorf("cnn: input dim %d too small for two conv blocks", c.InputDim)
	}
	return nil
}

// Classifier is one trained CNN.
type Classifier struct {
	cfg Config
	net *nn.Network
}

// ErrNoTrainingData is returned when Train receives an empty dataset.
var ErrNoTrainingData = errors.New("cnn: no training data")

// build constructs the paper's network for the config.
func build(cfg Config, rng *rand.Rand) *nn.Network {
	f, k := cfg.Filters, kernel
	// ConvB1.
	c1a := nn.NewConv1D(cfg.InputDim, 1, f, k, 1, rng)
	c1b := nn.NewConv1D(c1a.OutLen(), f, f, k, 1, rng)
	p1 := nn.NewMaxPool1D(c1b.OutLen(), f, 2, 2)
	// ConvB2.
	c2a := nn.NewConv1D(p1.OutLen(), f, f, k, 1, rng)
	c2b := nn.NewConv1D(c2a.OutLen(), f, f, k, 1, rng)
	p2 := nn.NewMaxPool1D(c2b.OutLen(), f, 2, 2)
	flat := p2.OutLen() * f
	return nn.NewNetwork(
		c1a, nn.NewReLU(),
		c1b, nn.NewReLU(),
		p1, nn.NewDropout(dropoutConv, rng),
		c2a, nn.NewReLU(),
		c2b, nn.NewReLU(),
		p2, nn.NewDropout(dropoutConv, rng),
		nn.NewDense(flat, cfg.DenseUnits, rng), nn.NewReLU(),
		nn.NewDropout(dropoutFC, rng),
		nn.NewDense(cfg.DenseUnits, cfg.Classes, rng),
	)
}

// Train fits one CNN on per-walk vectors x (rows) with integer class
// labels.
func Train(x *nn.Matrix, labels []int, cfg Config) (*Classifier, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if x.Rows == 0 {
		return nil, ErrNoTrainingData
	}
	if x.Rows != len(labels) {
		return nil, fmt.Errorf("cnn: %d rows but %d labels", x.Rows, len(labels))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := build(cfg, rng)
	tr := nn.Trainer{Net: net, Loss: nn.SoftmaxCrossEntropy{}, Opt: nn.NewAdam(cfg.LR)}
	y := nn.OneHot(labels, cfg.Classes)
	if _, err := tr.Fit(x, y, nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: cfg.BatchSize,
		Seed:      cfg.Seed,
		Hooks:     cfg.Hooks,
	}); err != nil {
		return nil, fmt.Errorf("cnn: train: %w", err)
	}
	return &Classifier{cfg: cfg, net: net}, nil
}

// Probs returns class probabilities for each row of x.
func (c *Classifier) Probs(x *nn.Matrix) *nn.Matrix {
	probs := c.net.Predict(x)
	nn.SoftmaxInPlace(probs)
	return probs
}

// Predict returns the argmax class of each row of x.
func (c *Classifier) Predict(x *nn.Matrix) []int {
	return nn.Argmax(c.net.Predict(x))
}

// PredictOne classifies a single vector.
func (c *Classifier) PredictOne(vec []float64) int {
	return c.Predict(nn.FromRows([][]float64{vec}))[0]
}

// Config returns the effective configuration.
func (c *Classifier) Config() Config { return c.cfg }

// Network exposes the underlying network (for persistence).
func (c *Classifier) Network() *nn.Network { return c.net }

// Restore rebuilds a classifier from persisted weights.
func Restore(cfg Config, weights []float64) (*Classifier, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	net := build(cfg, rand.New(rand.NewSource(cfg.Seed)))
	if err := net.LoadWeights(weights); err != nil {
		return nil, err
	}
	return &Classifier{cfg: cfg, net: net}, nil
}
