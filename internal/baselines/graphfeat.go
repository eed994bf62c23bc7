// Package baselines implements the two systems the paper compares
// Soteria against:
//
//   - the graph-theoretic CFG classifier of Alasmary et al. [3], which
//     feeds summary statistics of the CFG's general structure (node and
//     edge counts, density, degrees, shortest paths, centralities,
//     levels) into a deep classifier, and
//   - the image-based classifier of Cui et al. [5], which renders the
//     raw binary as a fixed-size grayscale image and classifies it with
//     a 2-D CNN.
//
// Both consume the same synthetic corpus as Soteria, so the Table VII
// comparison and the PCA contrast of Fig. 8 run end to end.
package baselines

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"soteria/internal/disasm"
	"soteria/internal/graph"
	"soteria/internal/nn"
)

// GraphFeatureDim is the size of the graph-theoretic feature vector.
const GraphFeatureDim = 16

// GraphFeatures extracts Alasmary-style summary features from a CFG's
// general structure. The vector layout is fixed:
//
//	0 node count          8 mean betweenness
//	1 edge count          9 max betweenness
//	2 graph density      10 mean closeness
//	3 mean degree        11 max closeness
//	4 max degree         12 BFS depth (max level)
//	5 mean out-degree    13 mean level
//	6 diameter           14 leaf count (no successors)
//	7 avg shortest path  15 back-edge count (level-non-increasing)
func GraphFeatures(c *disasm.CFG) []float64 {
	g := c.G
	n := g.NumNodes()
	out := make([]float64, GraphFeatureDim)
	if n == 0 {
		return out
	}
	out[0] = float64(n)
	out[1] = float64(g.NumEdges())
	out[2] = g.GraphDensity()

	var degSum, outSum float64
	maxDeg := 0
	leaves := 0
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		degSum += float64(d)
		outSum += float64(g.OutDegree(v))
		if d > maxDeg {
			maxDeg = d
		}
		if g.OutDegree(v) == 0 {
			leaves++
		}
	}
	out[3] = degSum / float64(n)
	out[4] = float64(maxDeg)
	out[5] = outSum / float64(n)
	out[6] = float64(g.Diameter())
	out[7] = g.AverageShortestPath()

	bc, cc := new(graph.Workspace).Centrality(g)
	out[8], out[9] = meanMax(bc)
	out[10], out[11] = meanMax(cc)

	levels := g.BFSLevels(c.EntryNode())
	maxLevel, levelSum, reach := 0, 0, 0
	for _, l := range levels {
		if l < 0 {
			continue
		}
		reach++
		levelSum += l
		if l > maxLevel {
			maxLevel = l
		}
	}
	out[12] = float64(maxLevel)
	if reach > 0 {
		out[13] = float64(levelSum) / float64(reach)
	}
	out[14] = float64(leaves)

	backEdges := 0
	for _, e := range g.Edges() {
		if levels[e[0]] >= 0 && levels[e[1]] >= 0 && levels[e[1]] <= levels[e[0]] {
			backEdges++
		}
	}
	out[15] = float64(backEdges)
	return out
}

func meanMax(xs []float64) (mean, maxV float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
		if x > maxV {
			maxV = x
		}
	}
	return mean / float64(len(xs)), maxV
}

// GraphConfig parameterizes the graph-feature classifier.
type GraphConfig struct {
	Classes   int
	Hidden    []int // default {64, 32}
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
}

func (c *GraphConfig) fill() error {
	if c.Classes <= 1 {
		return fmt.Errorf("baselines: invalid class count %d", c.Classes)
	}
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64, 32}
	}
	if c.Epochs <= 0 {
		c.Epochs = 100
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.LR <= 0 {
		c.LR = 1e-3
	}
	return nil
}

// GraphClassifier is the trained Alasmary-style baseline. Features are
// z-score standardized with statistics from the training set.
type GraphClassifier struct {
	cfg       GraphConfig
	net       *nn.Network
	mean, std []float64
}

// ErrNoTrainingData is returned for empty training sets.
var ErrNoTrainingData = errors.New("baselines: no training data")

// TrainGraph fits the baseline on raw graph-feature rows.
func TrainGraph(x *nn.Matrix, labels []int, cfg GraphConfig) (*GraphClassifier, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if x.Rows == 0 {
		return nil, ErrNoTrainingData
	}
	if x.Rows != len(labels) {
		return nil, fmt.Errorf("baselines: %d rows but %d labels", x.Rows, len(labels))
	}
	mean, std := columnStats(x)
	xs := standardize(x, mean, std)

	rng := rand.New(rand.NewSource(cfg.Seed))
	dims := append([]int{x.Cols}, cfg.Hidden...)
	layers := make([]nn.Layer, 0, 2*len(dims))
	for i := 0; i+1 < len(dims); i++ {
		layers = append(layers, nn.NewDense(dims[i], dims[i+1], rng), nn.NewReLU())
	}
	layers = append(layers, nn.NewDense(dims[len(dims)-1], cfg.Classes, rng))
	net := nn.NewNetwork(layers...)
	tr := nn.Trainer{Net: net, Loss: nn.SoftmaxCrossEntropy{}, Opt: nn.NewAdam(cfg.LR)}
	if _, err := tr.Fit(xs, nn.OneHot(labels, cfg.Classes), nn.TrainConfig{
		Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, Seed: cfg.Seed,
	}); err != nil {
		return nil, fmt.Errorf("baselines: train graph: %w", err)
	}
	return &GraphClassifier{cfg: cfg, net: net, mean: mean, std: std}, nil
}

// Predict classifies raw (unstandardized) graph-feature rows.
func (g *GraphClassifier) Predict(x *nn.Matrix) []int {
	return nn.Argmax(g.net.Predict(standardize(x, g.mean, g.std)))
}

// PredictOne classifies one raw feature vector.
func (g *GraphClassifier) PredictOne(vec []float64) int {
	return g.Predict(nn.FromRows([][]float64{vec}))[0]
}

func columnStats(x *nn.Matrix) (mean, std []float64) {
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

func standardize(x *nn.Matrix, mean, std []float64) *nn.Matrix {
	out := x.Clone()
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] = (row[j] - mean[j]) / std[j]
		}
	}
	return out
}
