package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"soteria/internal/par"
)

// Conv1D is a 1-D convolution over channels-last sequences. A batch row
// of length L*InCh is interpreted as L positions of InCh channels; the
// output row has OutLen()*OutCh elements, with valid padding and the
// given stride. Implemented with im2col + matmul.
//
// The (batch*outLen) x OutCh matmul product and the batch x
// (outLen*OutCh) output have byte-identical row-major layouts, so the
// GEMM writes straight into the output matrix through a reshaped
// header — no unpacking copy — and the bias is fused into the GEMM
// epilogue.
type Conv1D struct {
	InLen, InCh int
	OutCh       int
	Kernel      int
	Stride      int
	Weight      *Param // (Kernel*InCh) x OutCh
	Bias        *Param // 1 x OutCh

	// Training workspace, reused across minibatches.
	lastCols *Matrix // im2col of last input: (batch*outLen) x (Kernel*InCh)
	lastRows int
	out      *Matrix
	prodHdr  Matrix // reshaped view of out for the GEMM
	colGrad  *Matrix
	dx       *Matrix
}

// NewConv1D creates a convolution layer with He-initialized kernels.
func NewConv1D(inLen, inCh, outCh, kernel, stride int, rng *rand.Rand) *Conv1D {
	if kernel <= 0 || stride <= 0 || inLen < kernel {
		panic(fmt.Sprintf("nn: Conv1D bad geometry: inLen=%d kernel=%d stride=%d", inLen, kernel, stride))
	}
	c := &Conv1D{
		InLen: inLen, InCh: inCh, OutCh: outCh, Kernel: kernel, Stride: stride,
		Weight: newParam(kernel*inCh, outCh),
		Bias:   newParam(1, outCh),
	}
	c.Weight.W.Randomize(rng, math.Sqrt(2.0/float64(kernel*inCh)))
	return c
}

// OutLen returns the output sequence length.
func (c *Conv1D) OutLen() int { return (c.InLen-c.Kernel)/c.Stride + 1 }

func (c *Conv1D) checkIn(x *Matrix) {
	if x.Cols != c.InLen*c.InCh {
		panic(fmt.Sprintf("nn: Conv1D expected %d cols, got %d", c.InLen*c.InCh, x.Cols))
	}
}

// im2col writes every kernel window of x as one row of cols.
func (c *Conv1D) im2col(cols, x *Matrix) {
	outLen := c.OutLen()
	kc := c.Kernel * c.InCh
	for b := 0; b < x.Rows; b++ {
		row := x.Row(b)
		for p := 0; p < outLen; p++ {
			start := p * c.Stride * c.InCh
			copy(cols.Row(b*outLen+p), row[start:start+kc])
		}
	}
}

// Forward implements Layer.
func (c *Conv1D) Forward(x *Matrix, train bool) *Matrix {
	c.checkIn(x)
	if !train {
		return c.infer(x, new(Arena))
	}
	outLen := c.OutLen()
	cols := ensure(&c.lastCols, x.Rows*outLen, c.Kernel*c.InCh)
	c.im2col(cols, x)
	c.lastRows = x.Rows

	out := ensure(&c.out, x.Rows, outLen*c.OutCh)
	c.prodHdr = Matrix{Rows: x.Rows * outLen, Cols: c.OutCh, Data: out.Data}
	gemm(&c.prodHdr, cols, c.Weight.W, false, false, false, c.Bias.W.Data, false)
	return out
}

func (c *Conv1D) infer(x *Matrix, ws *Arena) *Matrix {
	return c.inferFused(x, ws, false)
}

// inferFused is the inference convolution with an optional fused ReLU:
// the GEMM epilogue clamps the product while it is cache-hot, saving a
// separate pass over the activation. Fusion is exact — ReLU is a
// comparison, not arithmetic — so outputs are bit-identical to a
// conv-then-ReLU pair.
//
// Unlike the training path there is no im2col: in the channels-last
// layout every kernel window is already a contiguous Kernel*InCh run of
// the input row, and consecutive windows start Stride*InCh apart — so
// each input row IS a valid GEMM A-panel with lda = Stride*InCh, and
// the blocked kernel runs straight over it. Same kernel, same k-order,
// same epilogues as the im2col product: results are bit-identical, the
// window-materialization pass and its arena buffer just disappear.
func (c *Conv1D) inferFused(x *Matrix, ws *Arena, relu bool) *Matrix {
	c.checkIn(x)
	outLen := c.OutLen()
	k := c.Kernel * c.InCh
	n := c.OutCh
	out := ws.take(x.Rows, outLen*n)
	// Both branches allocate nothing, mirroring gemm: the serial one
	// calls inferRows directly, and the sharded one hands the pool a
	// pooled task whose body was bound once (see convTask).
	t := convTask{c: c, out: out, x: x, relu: relu}
	perRow := outLen * k * n
	if work := x.Rows * perRow; work < parallelThreshold || x.Rows < 2 || par.Workers() == 1 {
		t.inferRows(0, x.Rows)
	} else {
		grain := parallelThreshold / perRow
		if grain < 1 {
			grain = 1
		}
		pt := convTaskPool.Get().(*convTask)
		t.body = pt.body
		*pt = t
		par.ForChunkedGrain(x.Rows, grain, pt.body)
		*pt = convTask{body: pt.body} // drop the layer and matrix references
		convTaskPool.Put(pt)
	}
	return out
}

// convTask is one inference convolution's operands, handed to the
// worker pool as the method value body — bound once per pooled task,
// so sharding does not allocate a closure per call (see gemmTask).
type convTask struct {
	c      *Conv1D
	out, x *Matrix
	relu   bool
	body   func(blo, bhi int)
}

var convTaskPool = sync.Pool{New: func() any {
	t := new(convTask)
	t.body = t.inferRows
	return t
}}

// inferRows runs the register-blocked panel kernel over batch rows
// [blo, bhi), one A-panel per input row (bit-identical to the blocked
// kernel — see gemmPanels).
func (t *convTask) inferRows(blo, bhi int) {
	c, out, x := t.c, t.out, t.x
	outLen := c.OutLen()
	k := c.Kernel * c.InCh
	n := c.OutCh
	w, bias := c.Weight.W.Data, c.Bias.W.Data
	lda := c.Stride * c.InCh
	for b := blo; b < bhi; b++ {
		dstRow := out.Data[b*outLen*n : (b+1)*outLen*n]
		srcRow := x.Data[b*x.Cols : (b+1)*x.Cols]
		gemmPanels(dstRow, n, srcRow, lda, w, n, 0, outLen, k, n, bias, t.relu)
	}
}

// backwardParams accumulates the weight and bias gradients only,
// skipping the column-gradient GEMM and scatter — the cheap form the
// network uses when this is the first layer and the input gradient has
// no consumer.
func (c *Conv1D) backwardParams(grad *Matrix) {
	// grad (batch x outLen*OutCh) reshaped to (batch*outLen) x OutCh is
	// the same flat layout: share its storage instead of copying.
	g := Matrix{Rows: c.lastRows * c.OutLen(), Cols: c.OutCh, Data: grad.Data}
	MatMulAddInto(c.Weight.G, c.lastCols, &g, true, false)
	g.addColSumsInto(c.Bias.G.Data)
}

// Backward implements Layer.
func (c *Conv1D) Backward(grad *Matrix) *Matrix {
	c.backwardParams(grad)
	outLen := c.OutLen()
	kc := c.Kernel * c.InCh
	g := Matrix{Rows: c.lastRows * outLen, Cols: c.OutCh, Data: grad.Data}

	// Column gradient scattered back to input positions.
	colGrad := ensure(&c.colGrad, c.lastRows*outLen, kc)
	MatMulInto(colGrad, &g, c.Weight.W, false, true)
	dx := ensureZero(&c.dx, c.lastRows, c.InLen*c.InCh)
	for b := 0; b < c.lastRows; b++ {
		dst := dx.Row(b)
		for p := 0; p < outLen; p++ {
			src := colGrad.Row(b*outLen + p)
			start := p * c.Stride * c.InCh
			for i := 0; i < kc; i++ {
				dst[start+i] += src[i]
			}
		}
	}
	return dx
}

// Params implements Layer.
func (c *Conv1D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// MaxPool1D max-pools a channels-last sequence with the given window and
// stride.
type MaxPool1D struct {
	InLen, Ch      int
	Window, Stride int

	argmax   []int
	lastRows int
	out      *Matrix
	dx       *Matrix
}

// NewMaxPool1D creates a max-pooling layer.
func NewMaxPool1D(inLen, ch, window, stride int) *MaxPool1D {
	if window <= 0 || stride <= 0 || inLen < window {
		panic(fmt.Sprintf("nn: MaxPool1D bad geometry: inLen=%d window=%d stride=%d", inLen, window, stride))
	}
	return &MaxPool1D{InLen: inLen, Ch: ch, Window: window, Stride: stride}
}

// OutLen returns the output sequence length.
func (m *MaxPool1D) OutLen() int { return (m.InLen-m.Window)/m.Stride + 1 }

func (m *MaxPool1D) checkIn(x *Matrix) {
	if x.Cols != m.InLen*m.Ch {
		panic(fmt.Sprintf("nn: MaxPool1D expected %d cols, got %d", m.InLen*m.Ch, x.Cols))
	}
}

// pool writes the pooled sequence into out; when argmax is non-nil it
// also records the winning input index per output element (the
// training path needs it for Backward, the inference path skips it so
// concurrent passes never write layer state).
func (m *MaxPool1D) pool(out, x *Matrix, argmax []int) {
	outLen := m.OutLen()
	if argmax == nil && m.Window == 2 {
		// Inference fast path for the ubiquitous window-2 pool. On AVX
		// the whole row runs in pool2AVX: MAXPD/MAXSD with the same
		// tie/NaN behaviour as the scalar branch below, so winners are
		// identical element by element.
		if useAVX && m.Ch > 0 {
			step := m.Stride * m.Ch
			for b := 0; b < x.Rows; b++ {
				pool2AVX(&out.Row(b)[0], &x.Row(b)[0], outLen, m.Ch, step)
			}
			return
		}
		// Scalar form: compare the two candidate channel vectors
		// slice-to-slice instead of recomputing flat indices per
		// element. Same comparisons, same winners — only the index
		// arithmetic is hoisted.
		for b := 0; b < x.Rows; b++ {
			row := x.Row(b)
			dst := out.Row(b)
			for p := 0; p < outLen; p++ {
				base := p * m.Stride * m.Ch
				lo := row[base : base+m.Ch]
				hi := row[base+m.Ch : base+2*m.Ch]
				d := dst[p*m.Ch : (p+1)*m.Ch]
				for ch, v := range lo {
					if hi[ch] > v {
						v = hi[ch]
					}
					d[ch] = v
				}
			}
		}
		return
	}
	for b := 0; b < x.Rows; b++ {
		row := x.Row(b)
		dst := out.Row(b)
		for p := 0; p < outLen; p++ {
			base := p * m.Stride
			for ch := 0; ch < m.Ch; ch++ {
				bestIdx := base*m.Ch + ch
				best := row[bestIdx]
				for w := 1; w < m.Window; w++ {
					idx := (base+w)*m.Ch + ch
					if row[idx] > best {
						best, bestIdx = row[idx], idx
					}
				}
				dst[p*m.Ch+ch] = best
				if argmax != nil {
					argmax[(b*outLen+p)*m.Ch+ch] = bestIdx
				}
			}
		}
	}
}

// Forward implements Layer.
func (m *MaxPool1D) Forward(x *Matrix, train bool) *Matrix {
	m.checkIn(x)
	if !train {
		return m.infer(x, new(Arena))
	}
	outLen := m.OutLen()
	out := ensure(&m.out, x.Rows, outLen*m.Ch)
	m.argmax = ensureInt(m.argmax, x.Rows*outLen*m.Ch)
	m.lastRows = x.Rows
	m.pool(out, x, m.argmax)
	return out
}

func (m *MaxPool1D) infer(x *Matrix, ws *Arena) *Matrix {
	m.checkIn(x)
	out := ws.take(x.Rows, m.OutLen()*m.Ch)
	m.pool(out, x, nil)
	return out
}

// Backward implements Layer.
func (m *MaxPool1D) Backward(grad *Matrix) *Matrix {
	outLen := m.OutLen()
	dx := ensureZero(&m.dx, m.lastRows, m.InLen*m.Ch)
	for b := 0; b < m.lastRows; b++ {
		src := grad.Row(b)
		dst := dx.Row(b)
		for p := 0; p < outLen; p++ {
			for ch := 0; ch < m.Ch; ch++ {
				dst[m.argmax[(b*outLen+p)*m.Ch+ch]] += src[p*m.Ch+ch]
			}
		}
	}
	return dx
}

// Params implements Layer.
func (m *MaxPool1D) Params() []*Param { return nil }

// ensureInt resizes an int slice, reusing capacity.
func ensureInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

var (
	_ Layer      = (*Conv1D)(nil)
	_ Layer      = (*MaxPool1D)(nil)
	_ inferLayer = (*Conv1D)(nil)
	_ inferLayer = (*MaxPool1D)(nil)
)
