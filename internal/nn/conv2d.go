package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Conv2D is a 2-D convolution over channels-last images. A batch row of
// length H*W*InCh is interpreted as an HxW image with InCh channels;
// output rows have OutH()*OutW()*OutCh elements, valid padding, equal
// stride in both dimensions. Implemented with im2col + matmul; like
// Conv1D, the matmul writes through a reshaped header straight into
// the output matrix with the bias fused into the GEMM epilogue.
type Conv2D struct {
	H, W, InCh int
	OutCh      int
	Kernel     int
	Stride     int
	Weight     *Param // (Kernel*Kernel*InCh) x OutCh
	Bias       *Param // 1 x OutCh

	// Training workspace, reused across minibatches.
	lastCols *Matrix
	lastRows int
	out      *Matrix
	prodHdr  Matrix
	colGrad  *Matrix
	dx       *Matrix
}

// NewConv2D creates a 2-D convolution with He-initialized kernels.
func NewConv2D(h, w, inCh, outCh, kernel, stride int, rng *rand.Rand) *Conv2D {
	if kernel <= 0 || stride <= 0 || h < kernel || w < kernel {
		panic(fmt.Sprintf("nn: Conv2D bad geometry: %dx%d kernel=%d stride=%d", h, w, kernel, stride))
	}
	c := &Conv2D{
		H: h, W: w, InCh: inCh, OutCh: outCh, Kernel: kernel, Stride: stride,
		Weight: newParam(kernel*kernel*inCh, outCh),
		Bias:   newParam(1, outCh),
	}
	c.Weight.W.Randomize(rng, math.Sqrt(2.0/float64(kernel*kernel*inCh)))
	return c
}

// OutH returns the output height.
func (c *Conv2D) OutH() int { return (c.H-c.Kernel)/c.Stride + 1 }

// OutW returns the output width.
func (c *Conv2D) OutW() int { return (c.W-c.Kernel)/c.Stride + 1 }

func (c *Conv2D) inIdx(y, x, ch int) int { return (y*c.W+x)*c.InCh + ch }

func (c *Conv2D) checkIn(x *Matrix) {
	if x.Cols != c.H*c.W*c.InCh {
		panic(fmt.Sprintf("nn: Conv2D expected %d cols, got %d", c.H*c.W*c.InCh, x.Cols))
	}
}

// im2col writes every kernel window of x as one row of cols.
func (c *Conv2D) im2col(cols, x *Matrix) {
	oh, ow := c.OutH(), c.OutW()
	for b := 0; b < x.Rows; b++ {
		row := x.Row(b)
		for py := 0; py < oh; py++ {
			for px := 0; px < ow; px++ {
				dst := cols.Row((b*oh+py)*ow + px)
				di := 0
				for ky := 0; ky < c.Kernel; ky++ {
					base := c.inIdx(py*c.Stride+ky, px*c.Stride, 0)
					copy(dst[di:di+c.Kernel*c.InCh], row[base:base+c.Kernel*c.InCh])
					di += c.Kernel * c.InCh
				}
			}
		}
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *Matrix, train bool) *Matrix {
	c.checkIn(x)
	if !train {
		return c.infer(x, new(Arena))
	}
	oh, ow := c.OutH(), c.OutW()
	cols := ensure(&c.lastCols, x.Rows*oh*ow, c.Kernel*c.Kernel*c.InCh)
	c.im2col(cols, x)
	c.lastRows = x.Rows

	out := ensure(&c.out, x.Rows, oh*ow*c.OutCh)
	c.prodHdr = Matrix{Rows: x.Rows * oh * ow, Cols: c.OutCh, Data: out.Data}
	gemm(&c.prodHdr, cols, c.Weight.W, false, false, false, c.Bias.W.Data, false)
	return out
}

func (c *Conv2D) infer(x *Matrix, ws *Arena) *Matrix {
	c.checkIn(x)
	oh, ow := c.OutH(), c.OutW()
	cols := ws.take(x.Rows*oh*ow, c.Kernel*c.Kernel*c.InCh)
	c.im2col(cols, x)
	out := ws.take(x.Rows, oh*ow*c.OutCh)
	prod := Matrix{Rows: x.Rows * oh * ow, Cols: c.OutCh, Data: out.Data}
	gemm(&prod, cols, c.Weight.W, false, false, false, c.Bias.W.Data, false)
	return out
}

// backwardParams accumulates the weight and bias gradients only,
// skipping the column-gradient GEMM and scatter — used when this is
// the network's first layer and the input gradient has no consumer.
func (c *Conv2D) backwardParams(grad *Matrix) {
	// Reshaping grad to (batch*oh*ow) x OutCh preserves the flat
	// layout: share its storage instead of copying.
	g := Matrix{Rows: c.lastRows * c.OutH() * c.OutW(), Cols: c.OutCh, Data: grad.Data}
	MatMulAddInto(c.Weight.G, c.lastCols, &g, true, false)
	g.addColSumsInto(c.Bias.G.Data)
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *Matrix) *Matrix {
	c.backwardParams(grad)
	oh, ow := c.OutH(), c.OutW()
	kk := c.Kernel * c.Kernel * c.InCh
	g := Matrix{Rows: c.lastRows * oh * ow, Cols: c.OutCh, Data: grad.Data}

	colGrad := ensure(&c.colGrad, c.lastRows*oh*ow, kk)
	MatMulInto(colGrad, &g, c.Weight.W, false, true)
	dx := ensureZero(&c.dx, c.lastRows, c.H*c.W*c.InCh)
	for b := 0; b < c.lastRows; b++ {
		dst := dx.Row(b)
		for py := 0; py < oh; py++ {
			for px := 0; px < ow; px++ {
				src := colGrad.Row((b*oh+py)*ow + px)
				si := 0
				for ky := 0; ky < c.Kernel; ky++ {
					base := c.inIdx(py*c.Stride+ky, px*c.Stride, 0)
					for i := 0; i < c.Kernel*c.InCh; i++ {
						dst[base+i] += src[si+i]
					}
					si += c.Kernel * c.InCh
				}
			}
		}
	}
	return dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// MaxPool2D max-pools channels-last images with a square window.
type MaxPool2D struct {
	H, W, Ch       int
	Window, Stride int

	argmax   []int
	lastRows int
	out      *Matrix
	dx       *Matrix
}

// NewMaxPool2D creates a 2-D max-pooling layer.
func NewMaxPool2D(h, w, ch, window, stride int) *MaxPool2D {
	if window <= 0 || stride <= 0 || h < window || w < window {
		panic(fmt.Sprintf("nn: MaxPool2D bad geometry: %dx%d window=%d stride=%d", h, w, window, stride))
	}
	return &MaxPool2D{H: h, W: w, Ch: ch, Window: window, Stride: stride}
}

// OutH returns the output height.
func (m *MaxPool2D) OutH() int { return (m.H-m.Window)/m.Stride + 1 }

// OutW returns the output width.
func (m *MaxPool2D) OutW() int { return (m.W-m.Window)/m.Stride + 1 }

func (m *MaxPool2D) checkIn(x *Matrix) {
	if x.Cols != m.H*m.W*m.Ch {
		panic(fmt.Sprintf("nn: MaxPool2D expected %d cols, got %d", m.H*m.W*m.Ch, x.Cols))
	}
}

// pool writes the pooled image into out; argmax (when non-nil)
// records the winning input index per output element for Backward.
func (m *MaxPool2D) pool(out, x *Matrix, argmax []int) {
	oh, ow := m.OutH(), m.OutW()
	idx := func(y, xx, ch int) int { return (y*m.W+xx)*m.Ch + ch }
	for b := 0; b < x.Rows; b++ {
		row := x.Row(b)
		dst := out.Row(b)
		for py := 0; py < oh; py++ {
			for px := 0; px < ow; px++ {
				for ch := 0; ch < m.Ch; ch++ {
					bestIdx := idx(py*m.Stride, px*m.Stride, ch)
					best := row[bestIdx]
					for wy := 0; wy < m.Window; wy++ {
						for wx := 0; wx < m.Window; wx++ {
							i := idx(py*m.Stride+wy, px*m.Stride+wx, ch)
							if row[i] > best {
								best, bestIdx = row[i], i
							}
						}
					}
					o := (py*ow+px)*m.Ch + ch
					dst[o] = best
					if argmax != nil {
						argmax[(b*oh*ow+py*ow+px)*m.Ch+ch] = bestIdx
					}
				}
			}
		}
	}
}

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *Matrix, train bool) *Matrix {
	m.checkIn(x)
	if !train {
		return m.infer(x, new(Arena))
	}
	oh, ow := m.OutH(), m.OutW()
	out := ensure(&m.out, x.Rows, oh*ow*m.Ch)
	m.argmax = ensureInt(m.argmax, x.Rows*oh*ow*m.Ch)
	m.lastRows = x.Rows
	m.pool(out, x, m.argmax)
	return out
}

func (m *MaxPool2D) infer(x *Matrix, ws *Arena) *Matrix {
	m.checkIn(x)
	out := ws.take(x.Rows, m.OutH()*m.OutW()*m.Ch)
	m.pool(out, x, nil)
	return out
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(grad *Matrix) *Matrix {
	oh, ow := m.OutH(), m.OutW()
	dx := ensureZero(&m.dx, m.lastRows, m.H*m.W*m.Ch)
	for b := 0; b < m.lastRows; b++ {
		src := grad.Row(b)
		dst := dx.Row(b)
		for p := 0; p < oh*ow; p++ {
			for ch := 0; ch < m.Ch; ch++ {
				dst[m.argmax[(b*oh*ow+p)*m.Ch+ch]] += src[p*m.Ch+ch]
			}
		}
	}
	return dx
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

var (
	_ Layer      = (*Conv2D)(nil)
	_ Layer      = (*MaxPool2D)(nil)
	_ inferLayer = (*Conv2D)(nil)
	_ inferLayer = (*MaxPool2D)(nil)
)
