package nn

import (
	"fmt"
	"math"
)

// Loss computes a scalar objective and the gradient of that objective
// with respect to the network output.
type Loss interface {
	// Compute returns the mean loss over the batch and dL/dpred.
	Compute(pred, target *Matrix) (float64, *Matrix)
}

// lossInto is the allocation-free form of Loss: the gradient is
// written into a caller-provided matrix of pred's shape. The Trainer
// uses it to reuse one gradient buffer across every minibatch.
type lossInto interface {
	ComputeInto(pred, target, grad *Matrix) float64
}

// MSE is mean squared error, the autoencoder's reconstruction
// objective.
type MSE struct{}

// Compute implements Loss.
func (l MSE) Compute(pred, target *Matrix) (float64, *Matrix) {
	grad := NewMatrix(pred.Rows, pred.Cols)
	return l.ComputeInto(pred, target, grad), grad
}

// ComputeInto computes the mean loss, writing dL/dpred into grad.
func (MSE) ComputeInto(pred, target, grad *Matrix) float64 {
	pred.sameShape(target, "MSE")
	pred.sameShape(grad, "MSE grad")
	var sum float64
	n := float64(len(pred.Data))
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		sum += d * d
		grad.Data[i] = 2 * d / n
	}
	return sum / n
}

// SoftmaxCrossEntropy applies a softmax to the network's logits and
// computes the cross entropy against one-hot targets. The combined
// gradient (softmax - target) / batch is numerically stable.
type SoftmaxCrossEntropy struct{}

// Compute implements Loss.
func (l SoftmaxCrossEntropy) Compute(logits, target *Matrix) (float64, *Matrix) {
	grad := NewMatrix(logits.Rows, logits.Cols)
	return l.ComputeInto(logits, target, grad), grad
}

// ComputeInto computes the mean loss, writing dL/dlogits into grad.
// Each grad row holds the softmax probabilities transiently before
// being overwritten with (p - target) / batch, so no intermediate
// probability matrix is allocated.
func (SoftmaxCrossEntropy) ComputeInto(logits, target, grad *Matrix) float64 {
	logits.sameShape(target, "SoftmaxCrossEntropy")
	logits.sameShape(grad, "SoftmaxCrossEntropy grad")
	var loss float64
	batch := float64(logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		g := grad.Row(i)
		softmaxRowInto(g, logits.Row(i))
		tgt := target.Row(i)
		for j, p := range g {
			g[j] = (p - tgt[j]) / batch
			if tgt[j] > 0 {
				loss -= tgt[j] * math.Log(math.Max(p, 1e-12))
			}
		}
	}
	return loss / batch
}

// softmaxRowInto writes the softmax of row into dst (same length).
func softmaxRowInto(dst, row []float64) {
	maxV := math.Inf(-1)
	for _, v := range row {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for j, v := range row {
		dst[j] = math.Exp(v - maxV)
		sum += dst[j]
	}
	for j := range dst {
		dst[j] /= sum
	}
}

// Softmax returns the row-wise softmax of logits.
func Softmax(logits *Matrix) *Matrix {
	out := NewMatrix(logits.Rows, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		softmaxRowInto(out.Row(i), logits.Row(i))
	}
	return out
}

// SoftmaxInPlace replaces each row of m with its softmax, for
// allocation-free probability readout over a reusable logits buffer.
// (softmaxRowInto tolerates dst == row: the max is read up front and
// element j of the source is consumed before element j of the
// destination is written.)
func SoftmaxInPlace(m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		softmaxRowInto(row, row)
	}
}

// OneHot encodes integer labels as a rows x classes one-hot matrix.
func OneHot(labels []int, classes int) *Matrix {
	out := NewMatrix(len(labels), classes)
	for i, l := range labels {
		if l < 0 || l >= classes {
			panic(fmt.Sprintf("nn: label %d out of range [0, %d)", l, classes))
		}
		out.Set(i, l, 1)
	}
	return out
}

// Argmax returns the index of the largest value in each row.
func Argmax(m *Matrix) []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// RMSE returns the per-row root mean squared error between two
// matrices — the autoencoder detector's reconstruction error.
func RMSE(pred, target *Matrix) []float64 {
	return RMSEInto(make([]float64, pred.Rows), pred, target)
}

// RMSEInto is RMSE written into a caller-provided slice of length
// pred.Rows, for allocation-free scoring loops.
func RMSEInto(dst []float64, pred, target *Matrix) []float64 {
	pred.sameShape(target, "RMSE")
	if len(dst) != pred.Rows {
		panic(fmt.Sprintf("nn: RMSEInto dst has len %d, want %d", len(dst), pred.Rows))
	}
	for i := 0; i < pred.Rows; i++ {
		p, t := pred.Row(i), target.Row(i)
		var sum float64
		for j := range p {
			d := p[j] - t[j]
			sum += d * d
		}
		dst[i] = math.Sqrt(sum / float64(pred.Cols))
	}
	return dst
}
