package nn

import (
	"fmt"
	"sync"

	"soteria/internal/par"
)

// This file is the compute kernel behind every matrix product in the
// package: a cache-blocked, scalar GEMM with fused epilogues.
//
// Design notes:
//
//   - One kernel. Transposed operands are pre-materialized into
//     row-major scratch (a blocked transpose costs O(M*K) against the
//     kernel's O(M*K*N)), so the inner loops only ever stream
//     contiguous rows. This is what fixes the seed kernel's worst
//     case, grad @ W^T, whose column-strided inner loop walked the
//     weight matrix with Cols-element jumps.
//
//   - Fixed blocking. Tile sizes are constants, independent of core
//     count: a column tile of the output is finished for a k-block of
//     the (shared, read-only) B panel before moving on, keeping the
//     active B rows and the destination segment cache-resident. Because
//     block boundaries and the 4-way k-unroll are fixed, every output
//     element accumulates its k-terms in one canonical order — results
//     are bit-identical regardless of GOMAXPROCS or which pool worker
//     claims which row range.
//
//   - Fused epilogues. The destination is initialized with the bias row
//     (instead of zero) as the first k-block is accumulated, and an
//     optional ReLU is applied to each destination segment right after
//     its final k-block while it is still cache-hot — so xW, +b, and
//     the activation happen in one pass over the output.
//
//   - Zero skipping. A quad of a-values that is entirely zero skips its
//     four B rows. Post-ReLU activations are roughly half zeros, so
//     this recovers a large part of the seed kernel's per-element zero
//     skip at a quarter of the branch cost.
//
//   - Row pairing. The blocked kernel processes destination rows two at
//     a time, so each loaded B segment feeds eight multiply-adds
//     instead of four; when only one row of a pair has a live a-quad
//     the kernel falls back to that row alone, which keeps the
//     arithmetic (and the zero-skip behaviour on non-finite inputs)
//     identical to the single-row path element by element.
//
//   - Two kernel families, one arithmetic. Narrow non-accumulating
//     products (n <= gemmNarrowMax: the conv filter banks and slim
//     heads) run the register-blocked panel kernels (gemmPanels): 8-
//     then 4-column output tiles live in YMM registers across the
//     ENTIRE k sweep, with the bias seed, k%4 remainder, and ReLU
//     fused into the tile — one destination store per tile row. Wide
//     products and accumulations (dst += a@b, the backward pass) run
//     the blocked quad kernel (gemmKernel), whose row pairing shares
//     each streamed B segment between two destination rows. Both
//     families accumulate the same terms in the same ascending-k quad
//     order with the same skip predicate, so they are bit-identical
//     (see gemmPanels).
//
//   - Vector micro-kernel. On amd64 with AVX the inner loops run in
//     assembly (gemm_amd64.s). The kernels use separate multiply and
//     add instructions — never FMA — and lanes map to adjacent output
//     elements, so every element sees the exact scalar operation
//     sequence and results are bit-identical to the Go loops (and
//     across machines). Without AVX the scalar loops below run instead.
//
// Parallelism splits output rows only (each row's dot products are
// computed entirely by one worker), with a grain that keeps every
// chunk above parallelThreshold multiply-adds (gemmGrain). Chunk
// boundaries come from par.ForChunkedGrain and depend only on the row
// count, the grain, and the worker count — each row range is statically
// owned by exactly one worker, so sharded results are byte-identical to
// a serial run.
const (
	// gemmColBlock columns of the destination (and B panel) per tile:
	// a 4 KiB destination row segment.
	gemmColBlock = 512
	// gemmKBlock k-depth per tile: the four unrolled B row segments plus
	// the destination segment stay within L1.
	gemmKBlock = 128
	// transposeBlock is the square tile of the blocked transpose.
	transposeBlock = 32
	// gemmNarrowMax is the widest destination the register-blocked panel
	// kernels serve. Below this width the blocked kernel's per-quad
	// segment slicing and vector-call setup dwarf the arithmetic they
	// feed, so the panel sweep wins outright. At larger widths the
	// blocked kernel's row pairing shares each streamed B segment
	// between two destination rows — cheaper per multiply-add than the
	// panel kernels' per-row broadcast traffic — and wide destination
	// segments amortize its per-quad setup, so it wins there instead
	// (measured: routing the wide Dense products through packed panel
	// tiles cost ~40% on the scoring benchmark).
	gemmNarrowMax = 16
)

// f64Pool recycles the scratch that holds pre-transposed operands, so
// steady-state training pays no allocation for the packed panels.
var f64Pool = sync.Pool{New: func() any { return new([]float64) }}

// getF64 hands out the pooled slice through its pool pointer so putF64
// can return the identical pointer — putting a fresh &s would make the
// header escape and cost one heap allocation per release, which the
// narrow-product path would pay on every inference call.
func getF64(n int) (*[]float64, []float64) {
	s := f64Pool.Get().(*[]float64)
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return s, *s
}

func putF64(s *[]float64) {
	f64Pool.Put(s)
}

// transposeInto writes the transpose of the rows x cols matrix in src
// into dst (which must hold rows*cols elements) in square tiles, so
// both source reads and destination writes stay within a few cache
// lines per tile.
func transposeInto(dst, src []float64, rows, cols int) {
	for i0 := 0; i0 < rows; i0 += transposeBlock {
		i1 := i0 + transposeBlock
		if i1 > rows {
			i1 = rows
		}
		for j0 := 0; j0 < cols; j0 += transposeBlock {
			j1 := j0 + transposeBlock
			if j1 > cols {
				j1 = cols
			}
			for i := i0; i < i1; i++ {
				row := src[i*cols : i*cols+cols]
				for j := j0; j < j1; j++ {
					dst[j*rows+i] = row[j]
				}
			}
		}
	}
}

// gemmDims resolves the effective (M, K, N) of op(a) @ op(b) and
// panics on an inner-dimension mismatch.
func gemmDims(a, b *Matrix, aT, bT bool) (m, k, n int) {
	m, k = a.Rows, a.Cols
	if aT {
		m, k = k, m
	}
	br, bc := b.Rows, b.Cols
	if bT {
		br, bc = bc, br
	}
	if k != br {
		panic(fmt.Sprintf("nn: MatMul inner dim mismatch: %d vs %d (aT=%v bT=%v)", k, br, aT, bT))
	}
	return m, k, bc
}

// gemmGrain returns the minimum row grain handed to ForChunkedGrain
// for a product with the given k and n: enough rows that every
// statically owned chunk clears parallelThreshold multiply-adds, so
// sharding never fans out trivially small bodies.
func gemmGrain(k, n int) int {
	g := parallelThreshold / (k * n)
	if g < 1 {
		g = 1
	}
	return g
}

// gemm computes dst = op(a) @ op(b) (+ dst when acc), with an optional
// bias row added to every output row and an optional ReLU applied to
// the result. dst must already have the product's shape and must not
// alias a or b. bias (len N) and relu are ignored when acc is set.
//
// Sharding splits the M dimension into deterministic, statically owned
// row ranges (chunk boundaries depend only on m, grain, and worker
// count — see par.ForChunkedGrain), and each output row is computed
// entirely by one worker in one canonical k-order, so results never
// depend on scheduling.
func gemm(dst, a, b *Matrix, aT, bT, acc bool, bias []float64, relu bool) {
	m, k, n := gemmDims(a, b, aT, bT)
	if dst.Rows != m || dst.Cols != n {
		panic(fmt.Sprintf("nn: MatMulInto dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, m, n))
	}
	if len(dst.Data) > 0 && (sameSlice(dst.Data, a.Data) || sameSlice(dst.Data, b.Data)) {
		panic("nn: MatMulInto dst aliases an operand")
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		gemmInit(dst.Data, n, 0, m, acc, bias, relu)
		return
	}

	aData, lda := a.Data, a.Cols
	var scratchA *[]float64
	if aT {
		var s []float64
		scratchA, s = getF64(m * k)
		transposeInto(s, a.Data, a.Rows, a.Cols)
		aData, lda = s, k
	}
	bData, ldb := b.Data, b.Cols
	var scratchB *[]float64
	if bT {
		var s []float64
		scratchB, s = getF64(k * n)
		transposeInto(s, b.Data, b.Rows, b.Cols)
		bData, ldb = s, n
	}

	// Both branches allocate nothing: the serial one calls the kernel
	// directly, and the sharded one hands the pool a pooled task whose
	// row body was bound once (see gemmTask).
	t := gemmTask{
		dst: dst.Data, a: aData, b: bData, bias: bias,
		lda: lda, ldb: ldb, k: k, n: n,
		acc: acc, relu: relu, panels: !acc && n <= gemmNarrowMax,
	}
	if work := m * k * n; work < parallelThreshold || m < 2 || par.Workers() == 1 {
		t.rows(0, m)
	} else {
		pt := gemmTaskPool.Get().(*gemmTask)
		t.body = pt.body
		*pt = t
		par.ForChunkedGrain(m, gemmGrain(k, n), pt.body)
		*pt = gemmTask{body: pt.body} // drop the operand references
		gemmTaskPool.Put(pt)
	}

	if scratchA != nil {
		putF64(scratchA)
	}
	if scratchB != nil {
		putF64(scratchB)
	}
}

// gemmTask is one product's operands, handed to the worker pool as the
// method value body. A closure over the operands would escape through
// the pool's job and cost a heap allocation on every sharded product;
// binding body once per pooled task instead keeps sharded inference
// allocation-free in steady state.
type gemmTask struct {
	dst, a, b, bias   []float64
	lda, ldb, k, n    int
	acc, relu, panels bool
	body              func(rlo, rhi int)
}

var gemmTaskPool = sync.Pool{New: func() any {
	t := new(gemmTask)
	t.body = t.rows
	return t
}}

// rows computes destination rows [rlo, rhi). Narrow non-accumulating
// products take the register-blocked panel kernels (bit-identical to
// the blocked machinery — see gemmPanels and gemmNarrowMax); everything
// else — wide products and every accumulation (dst += a@b, the
// backward pass) — runs the blocked quad kernel.
func (t *gemmTask) rows(rlo, rhi int) {
	if t.panels {
		gemmPanels(t.dst, t.n, t.a, t.lda, t.b, t.ldb, rlo, rhi, t.k, t.n, t.bias, t.relu)
	} else {
		gemmKernel(t.dst, t.n, t.a, t.lda, t.b, t.ldb, rlo, rhi, t.k, t.n, t.acc, t.bias, t.relu)
	}
}

// gemmInit initializes (or finalizes, for the K == 0 edge case) rows
// [rlo, rhi) of dst without accumulating any product terms.
func gemmInit(dst []float64, ldd, rlo, rhi int, acc bool, bias []float64, relu bool) {
	if acc {
		return
	}
	for i := rlo; i < rhi; i++ {
		row := dst[i*ldd : i*ldd+ldd]
		if bias != nil {
			copy(row, bias)
		} else {
			for z := range row {
				row[z] = 0
			}
		}
		if relu {
			for z, v := range row {
				if v < 0 {
					row[z] = 0
				}
			}
		}
	}
}

// gemmKernel accumulates rows [rlo, rhi) of dst = a @ b for row-major
// panels a (leading dimension lda) and b (leading dimension ldb), with
// the blocking, initialization, and epilogues described at the top of
// the file. Rows are processed in pairs so each loaded B segment is
// shared between two accumulator rows.
func gemmKernel(dst []float64, ldd int, a []float64, lda int, b []float64, ldb int, rlo, rhi, k, n int, acc bool, bias []float64, relu bool) {
	for jc := 0; jc < n; jc += gemmColBlock {
		je := jc + gemmColBlock
		if je > n {
			je = n
		}
		for kc := 0; kc < k; kc += gemmKBlock {
			ke := kc + gemmKBlock
			if ke > k {
				ke = k
			}
			i := rlo
			for ; i+2 <= rhi; i += 2 {
				gemmRowPair(dst, ldd, a, lda, b, ldb, i, jc, je, kc, ke, k, acc, bias, relu)
			}
			if i < rhi {
				gemmRow(dst, ldd, a, lda, b, ldb, i, jc, je, kc, ke, k, acc, bias, relu)
			}
		}
	}
}

// gemmRowInit seeds one destination segment before its first k-block:
// the bias row when fused, zero otherwise.
func gemmRowInit(drow, bias []float64, jc, je int) {
	if bias != nil {
		copy(drow, bias[jc:je])
		return
	}
	for z := range drow {
		drow[z] = 0
	}
}

// gemmRowReLU clamps a finished destination segment in place. The AVX
// form is max(+0, v) per element, which passes -0, NaN, and ties
// through unchanged — exactly the scalar comparison.
func gemmRowReLU(drow []float64) {
	if useAVX && len(drow) > 0 {
		reluAVX(&drow[0], len(drow))
		return
	}
	for z, v := range drow {
		if v < 0 {
			drow[z] = 0
		}
	}
}

// gemmRow accumulates the k-block [kc, ke) into the column tile
// [jc, je) of destination row i.
func gemmRow(dst []float64, ldd int, a []float64, lda int, b []float64, ldb int, i, jc, je, kc, ke, k int, acc bool, bias []float64, relu bool) {
	arow := a[i*lda : i*lda+k]
	drow := dst[i*ldd+jc : i*ldd+je]
	if kc == 0 && !acc {
		gemmRowInit(drow, bias, jc, je)
	}
	kk := kc
	for ; kk+4 <= ke; kk += 4 {
		a0, a1, a2, a3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		b0 := b[kk*ldb+jc : kk*ldb+je]
		b1 := b[(kk+1)*ldb+jc : (kk+1)*ldb+je]
		b2 := b[(kk+2)*ldb+jc : (kk+2)*ldb+je]
		b3 := b[(kk+3)*ldb+jc : (kk+3)*ldb+je]
		b0 = b0[:len(drow)]
		b1 = b1[:len(drow)]
		b2 = b2[:len(drow)]
		b3 = b3[:len(drow)]
		if useAVX {
			av := [4]float64{a0, a1, a2, a3}
			rowQuadAVX(&drow[0], &b0[0], &b1[0], &b2[0], &b3[0], len(drow), &av)
			continue
		}
		for z := range drow {
			drow[z] += a0*b0[z] + a1*b1[z] + a2*b2[z] + a3*b3[z]
		}
	}
	for ; kk < ke; kk++ {
		av := arow[kk]
		if av == 0 {
			continue
		}
		brow := b[kk*ldb+jc : kk*ldb+je]
		brow = brow[:len(drow)]
		for z := range drow {
			drow[z] += av * brow[z]
		}
	}
	if relu && ke == k && !acc {
		gemmRowReLU(drow)
	}
}

// gemmRowPair accumulates the k-block [kc, ke) into the column tile
// [jc, je) of destination rows i and i+1 together. Every surviving
// element update is the same expression, in the same k order, as
// gemmRow's — pairing only changes how many times a B segment is
// loaded, never what is added to which element.
func gemmRowPair(dst []float64, ldd int, a []float64, lda int, b []float64, ldb int, i, jc, je, kc, ke, k int, acc bool, bias []float64, relu bool) {
	arow0 := a[i*lda : i*lda+k]
	arow1 := a[(i+1)*lda : (i+1)*lda+k]
	d0 := dst[i*ldd+jc : i*ldd+je]
	d1 := dst[(i+1)*ldd+jc : (i+1)*ldd+je]
	if kc == 0 && !acc {
		gemmRowInit(d0, bias, jc, je)
		gemmRowInit(d1, bias, jc, je)
	}
	d1 = d1[:len(d0)]
	kk := kc
	for ; kk+4 <= ke; kk += 4 {
		a00, a01, a02, a03 := arow0[kk], arow0[kk+1], arow0[kk+2], arow0[kk+3]
		a10, a11, a12, a13 := arow1[kk], arow1[kk+1], arow1[kk+2], arow1[kk+3]
		live0 := a00 != 0 || a01 != 0 || a02 != 0 || a03 != 0
		live1 := a10 != 0 || a11 != 0 || a12 != 0 || a13 != 0
		if !live0 && !live1 {
			continue
		}
		b0 := b[kk*ldb+jc : kk*ldb+je]
		b1 := b[(kk+1)*ldb+jc : (kk+1)*ldb+je]
		b2 := b[(kk+2)*ldb+jc : (kk+2)*ldb+je]
		b3 := b[(kk+3)*ldb+jc : (kk+3)*ldb+je]
		b0 = b0[:len(d0)]
		b1 = b1[:len(d0)]
		b2 = b2[:len(d0)]
		b3 = b3[:len(d0)]
		switch {
		case live0 && live1:
			if useAVX {
				av := [8]float64{a00, a01, a02, a03, a10, a11, a12, a13}
				pairQuadAVX(&d0[0], &d1[0], &b0[0], &b1[0], &b2[0], &b3[0], len(d0), &av)
				continue
			}
			for z := range d0 {
				bv0, bv1, bv2, bv3 := b0[z], b1[z], b2[z], b3[z]
				d0[z] += a00*bv0 + a01*bv1 + a02*bv2 + a03*bv3
				d1[z] += a10*bv0 + a11*bv1 + a12*bv2 + a13*bv3
			}
		case live0:
			if useAVX {
				av := [4]float64{a00, a01, a02, a03}
				rowQuadAVX(&d0[0], &b0[0], &b1[0], &b2[0], &b3[0], len(d0), &av)
				continue
			}
			for z := range d0 {
				d0[z] += a00*b0[z] + a01*b1[z] + a02*b2[z] + a03*b3[z]
			}
		default:
			if useAVX {
				av := [4]float64{a10, a11, a12, a13}
				rowQuadAVX(&d1[0], &b0[0], &b1[0], &b2[0], &b3[0], len(d1), &av)
				continue
			}
			for z := range d1 {
				d1[z] += a10*b0[z] + a11*b1[z] + a12*b2[z] + a13*b3[z]
			}
		}
	}
	for ; kk < ke; kk++ {
		av0, av1 := arow0[kk], arow1[kk]
		if av0 == 0 && av1 == 0 {
			continue
		}
		brow := b[kk*ldb+jc : kk*ldb+je]
		brow = brow[:len(d0)]
		switch {
		case av0 != 0 && av1 != 0:
			for z := range d0 {
				bv := brow[z]
				d0[z] += av0 * bv
				d1[z] += av1 * bv
			}
		case av0 != 0:
			for z := range d0 {
				d0[z] += av0 * brow[z]
			}
		default:
			for z := range d1 {
				d1[z] += av1 * brow[z]
			}
		}
	}
	if relu && ke == k && !acc {
		gemmRowReLU(d0)
		gemmRowReLU(d1)
	}
}

// gemmPanels computes rows [rlo, rhi) of dst = a @ b (+ bias, ReLU),
// the non-accumulating kernel behind every inference and forward-pass
// product. Column tiles of 8 and then 4 go through the fully fused
// panel kernels (panelTile8AVX / panelTile4AVX), which seed the tile
// from the bias, sweep the ENTIRE k dimension — quads plus the k%4
// single terms — and apply the ReLU clamp while the tile stays in
// registers: one store per tile row, no separate seed, remainder, or
// epilogue passes over memory, and no per-k-quad destination traffic
// at all (the blocked quad kernel re-reads and re-writes each
// destination segment once per quad). Only a sub-4-column leftover
// (n % 4) and the no-AVX build fall through to the blocked machinery.
//
// Bit-identity with gemmKernel: element (i, j) starts from the same
// bias seed and accumulates the same quad-grouped terms in the same
// ascending-k order with the same all-four-zero quad skip, then the
// same zero-skipped scalar remainder, then the same comparison-only
// ReLU. Holding the accumulator in a register instead
// of memory does not change any IEEE-754 operation, gemmKernel's
// k-blocking cannot regroup quads (gemmKBlock is a multiple of 4, so
// quad boundaries fall on the same offsets, and singles only occur
// after the last full quad), and its column tiling and row pairing
// never change what is added to which element — so the two paths
// produce byte-identical output.
func gemmPanels(dst []float64, ldd int, a []float64, lda int, b []float64, ldb int, rlo, rhi, k, n int, bias []float64, relu bool) {
	if rhi <= rlo || n <= 0 {
		return
	}
	if !useAVX || k <= 0 {
		gemmKernel(dst, ldd, a, lda, b, ldb, rlo, rhi, k, n, false, bias, relu)
		return
	}
	reluFlag := 0
	if relu {
		reluFlag = 1
	}
	rows := rhi - rlo
	d0, a0 := rlo*ldd, rlo*lda
	j := 0
	for ; j+8 <= n; j += 8 {
		panelTile8AVX(&dst[d0+j], ldd, &a[a0], lda, &b[j], ldb, rows, k, biasAt(bias, j), reluFlag)
	}
	if n-j >= 4 {
		panelTile4AVX(&dst[d0+j], ldd, &a[a0], lda, &b[j], ldb, rows, k, biasAt(bias, j), reluFlag)
		j += 4
	}
	if j < n {
		tailBias := bias
		if bias != nil {
			tailBias = bias[j:]
		}
		gemmKernel(dst[j:], ldd, a, lda, b[j:], ldb, rlo, rhi, k, n-j, false, tailBias, relu)
	}
}

// biasAt returns a pointer to bias[j], or nil when the product has no
// fused bias (the panel kernels seed the tile with zero in that case).
func biasAt(bias []float64, j int) *float64 {
	if bias == nil {
		return nil
	}
	return &bias[j]
}

func sameSlice(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// MatMulInto computes op(a) @ op(b) into dst, which must already have
// the product's shape and must not alias either operand. It returns
// dst. Transposed operands are packed into pooled scratch so the hot
// loops always stream contiguous memory; see the file comment for the
// kernel design.
func MatMulInto(dst, a, b *Matrix, aT, bT bool) *Matrix {
	gemm(dst, a, b, aT, bT, false, nil, false)
	return dst
}

// MatMulAddInto accumulates op(a) @ op(b) onto dst (dst += product),
// the fused form of the backward pass's gradient accumulation. dst
// must already have the product's shape and must not alias either
// operand. It returns dst.
func MatMulAddInto(dst, a, b *Matrix, aT, bT bool) *Matrix {
	gemm(dst, a, b, aT, bT, true, nil, false)
	return dst
}

// MatMul computes a@b (with optional transposes) into a new matrix. It
// parallelizes across output rows for large products.
func MatMul(a, b *Matrix, aT, bT bool) *Matrix {
	m, _, n := gemmDims(a, b, aT, bT)
	out := NewMatrix(m, n)
	gemm(out, a, b, aT, bT, false, nil, false)
	return out
}
