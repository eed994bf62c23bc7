package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Param is one trainable tensor with its gradient accumulator and
// optimizer slots.
type Param struct {
	W *Matrix // weights
	G *Matrix // gradient, same shape as W
	// M and V are optimizer state (momentum / Adam moments), lazily
	// allocated by the optimizer.
	M, V *Matrix
}

func newParam(rows, cols int) *Param {
	return &Param{W: NewMatrix(rows, cols), G: NewMatrix(rows, cols)}
}

// Layer is one differentiable stage. Forward consumes a (batch x in)
// matrix; Backward consumes the gradient w.r.t. the forward output and
// returns the gradient w.r.t. the forward input, accumulating parameter
// gradients along the way. Backward must be called after the matching
// Forward(x, true) (layers cache activations during training).
//
// Training calls (Forward with train=true, and Backward) reuse
// persistent per-layer workspace buffers: the returned matrices are
// owned by the layer and overwritten by the next pass, and at most one
// goroutine may train a given layer at a time. Forward with
// train=false touches no shared layer state, so any number of
// goroutines may run inference on one trained model concurrently.
type Layer interface {
	Forward(x *Matrix, train bool) *Matrix
	Backward(grad *Matrix) *Matrix
	Params() []*Param
}

// inferLayer is the allocation-free inference path: infer writes the
// layer's output into scratch taken from ws (or returns x unchanged for
// identity layers) without mutating the layer. Network.PredictInto uses
// it for every built-in layer; external Layer implementations fall back
// to Forward(x, false).
type inferLayer interface {
	infer(x *Matrix, ws *Arena) *Matrix
}

// paramBackward is implemented by layers whose Backward spends a full
// GEMM (and for convolutions a scatter pass) producing the input
// gradient. Network.Backward calls backwardParams on its first layer
// instead, where that gradient has no consumer.
type paramBackward interface {
	backwardParams(grad *Matrix)
}

// --- Dense --------------------------------------------------------------

// Dense is a fully connected layer: y = xW + b.
type Dense struct {
	In, Out int
	Weight  *Param
	Bias    *Param

	lastX *Matrix // borrowed input of the last training forward
	out   *Matrix // training forward output workspace
	dx    *Matrix // training backward input-gradient workspace
}

// NewDense creates a dense layer with He-initialized weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out, Weight: newParam(in, out), Bias: newParam(1, out)}
	d.Weight.W.Randomize(rng, math.Sqrt(2.0/float64(in)))
	return d
}

func (d *Dense) checkIn(x *Matrix) {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense(%d->%d) got input with %d cols", d.In, d.Out, x.Cols))
	}
}

// Forward implements Layer.
func (d *Dense) Forward(x *Matrix, train bool) *Matrix {
	d.checkIn(x)
	if !train {
		//lint:ignore hotalloc standalone layer eval must not share workspace across goroutines; Network inference pools arenas via PredictInto
		return d.inferInto(NewMatrix(x.Rows, d.Out), x, false)
	}
	d.lastX = x
	out := ensure(&d.out, x.Rows, d.Out)
	gemm(out, x, d.Weight.W, false, false, false, d.Bias.W.Data, false)
	return out
}

// inferInto writes x@W + b into dst — with the ReLU fused into the
// product's epilogue when relu is set — touching no layer state.
func (d *Dense) inferInto(dst, x *Matrix, relu bool) *Matrix {
	gemm(dst, x, d.Weight.W, false, false, false, d.Bias.W.Data, relu)
	return dst
}

func (d *Dense) infer(x *Matrix, ws *Arena) *Matrix {
	d.checkIn(x)
	return d.inferInto(ws.take(x.Rows, d.Out), x, false)
}

// backwardParams accumulates the weight and bias gradients only,
// skipping the input-gradient GEMM — used when this is the network's
// first layer and the input gradient has no consumer.
func (d *Dense) backwardParams(grad *Matrix) {
	MatMulAddInto(d.Weight.G, d.lastX, grad, true, false)
	grad.addColSumsInto(d.Bias.G.Data)
}

// Backward implements Layer.
func (d *Dense) Backward(grad *Matrix) *Matrix {
	d.backwardParams(grad)
	dx := ensure(&d.dx, grad.Rows, d.In)
	return MatMulInto(dx, grad, d.Weight.W, false, true)
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// --- ReLU ---------------------------------------------------------------

// ReLU is the rectified linear activation.
type ReLU struct {
	out *Matrix // training output; its sign doubles as the backward mask
	dx  *Matrix
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

func reluInto(dst, x *Matrix) *Matrix {
	for i, v := range x.Data {
		if v > 0 {
			dst.Data[i] = v
		} else {
			dst.Data[i] = 0
		}
	}
	return dst
}

// Forward implements Layer.
func (r *ReLU) Forward(x *Matrix, train bool) *Matrix {
	if !train {
		//lint:ignore hotalloc standalone layer eval must not share workspace across goroutines; Network inference pools arenas via PredictInto
		return reluInto(NewMatrix(x.Rows, x.Cols), x)
	}
	return reluInto(ensure(&r.out, x.Rows, x.Cols), x)
}

func (r *ReLU) infer(x *Matrix, ws *Arena) *Matrix {
	return reluInto(ws.take(x.Rows, x.Cols), x)
}

// Backward implements Layer. The cached output's sign is the mask:
// out > 0 exactly when the input was > 0.
func (r *ReLU) Backward(grad *Matrix) *Matrix {
	dx := ensure(&r.dx, grad.Rows, grad.Cols)
	for i, v := range grad.Data {
		if r.out.Data[i] > 0 {
			dx.Data[i] = v
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// --- Sigmoid ------------------------------------------------------------

// Sigmoid is the logistic activation.
type Sigmoid struct {
	out *Matrix // training output, reused by Backward
	dx  *Matrix
}

// NewSigmoid returns a sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

func sigmoidInto(dst, x *Matrix) *Matrix {
	for i, v := range x.Data {
		dst.Data[i] = 1.0 / (1.0 + math.Exp(-v))
	}
	return dst
}

// Forward implements Layer.
func (s *Sigmoid) Forward(x *Matrix, train bool) *Matrix {
	if !train {
		//lint:ignore hotalloc standalone layer eval must not share workspace across goroutines; Network inference pools arenas via PredictInto
		return sigmoidInto(NewMatrix(x.Rows, x.Cols), x)
	}
	return sigmoidInto(ensure(&s.out, x.Rows, x.Cols), x)
}

func (s *Sigmoid) infer(x *Matrix, ws *Arena) *Matrix {
	return sigmoidInto(ws.take(x.Rows, x.Cols), x)
}

// Backward implements Layer.
func (s *Sigmoid) Backward(grad *Matrix) *Matrix {
	dx := ensure(&s.dx, grad.Rows, grad.Cols)
	for i, v := range grad.Data {
		y := s.out.Data[i]
		dx.Data[i] = v * y * (1 - y)
	}
	return dx
}

// Params implements Layer.
func (s *Sigmoid) Params() []*Param { return nil }

// --- Dropout ------------------------------------------------------------

// Dropout zeroes activations with probability P during training and
// rescales survivors by 1/(1-P) (inverted dropout); it is the identity
// at inference time.
type Dropout struct {
	P   float64
	rng *rand.Rand

	mask []float64
	out  *Matrix
	dx   *Matrix
}

// NewDropout creates a dropout layer with drop probability p.
func NewDropout(p float64, rng *rand.Rand) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %v out of [0, 1)", p))
	}
	return &Dropout{P: p, rng: rng}
}

// Forward implements Layer.
func (d *Dropout) Forward(x *Matrix, train bool) *Matrix {
	if !train || d.P == 0 {
		d.mask = nil
		return x
	}
	out := ensure(&d.out, x.Rows, x.Cols)
	mask := ensureF64(&d.mask, len(x.Data))
	keep := 1.0 / (1.0 - d.P)
	for i, v := range x.Data {
		if d.rng.Float64() < d.P {
			mask[i] = 0
			out.Data[i] = 0
		} else {
			mask[i] = keep
			out.Data[i] = v * keep
		}
	}
	return out
}

func (d *Dropout) infer(x *Matrix, _ *Arena) *Matrix { return x }

// Backward implements Layer.
func (d *Dropout) Backward(grad *Matrix) *Matrix {
	if d.mask == nil {
		return grad
	}
	dx := ensure(&d.dx, grad.Rows, grad.Cols)
	for i, v := range grad.Data {
		dx.Data[i] = v * d.mask[i]
	}
	return dx
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Interface checks.
var (
	_ Layer      = (*Dense)(nil)
	_ Layer      = (*ReLU)(nil)
	_ Layer      = (*Sigmoid)(nil)
	_ Layer      = (*Dropout)(nil)
	_ inferLayer = (*Dense)(nil)
	_ inferLayer = (*ReLU)(nil)
	_ inferLayer = (*Sigmoid)(nil)
	_ inferLayer = (*Dropout)(nil)

	_ paramBackward = (*Dense)(nil)
	_ paramBackward = (*Conv1D)(nil)
	_ paramBackward = (*Conv2D)(nil)
)
