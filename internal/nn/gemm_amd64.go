//go:build amd64

package nn

// useAVX gates the vector micro-kernels in gemm_amd64.s. The AVX path
// performs the same multiplies and adds, per output element and in the
// same order, as the scalar loops — vector lanes are just adjacent
// output elements, and the kernels use separate multiply and add
// instructions (never FMA, which rounds once instead of twice) — so
// results are bit-identical between the vector and scalar paths and
// therefore across machines.
var useAVX = cpuHasAVX()

// cpuHasAVX reports whether the CPU and OS support AVX (CPUID feature
// flag plus XGETBV confirmation that the OS preserves YMM state).
func cpuHasAVX() bool

// pairQuadAVX accumulates four B rows into two destination rows:
//
//	d0[z] += a[0]*b0[z] + a[1]*b1[z] + a[2]*b2[z] + a[3]*b3[z]
//	d1[z] += a[4]*b0[z] + a[5]*b1[z] + a[6]*b2[z] + a[7]*b3[z]
//
// for z in [0, n), with the sum reduced left to right exactly like the
// scalar expression.
//
//go:noescape
func pairQuadAVX(d0, d1, b0, b1, b2, b3 *float64, n int, a *[8]float64)

// rowQuadAVX is the one-destination-row form:
//
//	d[z] += a[0]*b0[z] + a[1]*b1[z] + a[2]*b2[z] + a[3]*b3[z]
//
//go:noescape
func rowQuadAVX(d, b0, b1, b2, b3 *float64, n int, a *[4]float64)

// panelTile8AVX is the fully fused narrow-panel kernel for one 8-wide
// column tile: for each of rows destination rows (row stride ldd) it
// seeds d[0:8] from bias (zero when bias is nil), accumulates all k
// terms — ascending quads with the all-four-zero skip, then the k%4
// single terms with the scalar zero skip — and applies the ReLU clamp
// when relu != 0, all while the tile stays in registers, with one store
// at the end. Every element's operation sequence (seed, quad grouping,
// reduction order, skip predicates, clamp) matches the scalar loops
// exactly, so results are bit-identical to the blocked kernel.
//
//go:noescape
func panelTile8AVX(d *float64, ldd int, a *float64, lda int, b *float64, ldb int, rows, k int, bias *float64, relu int)

// panelTile4AVX is the 4-wide form of panelTile8AVX, covering narrow
// destinations (4 <= n < 8) and the 4-column tail of wider panels.
//
//go:noescape
func panelTile4AVX(d *float64, ldd int, a *float64, lda int, b *float64, ldb int, rows, k int, bias *float64, relu int)

// reluAVX clamps d[0:n] in place: d[z] = max(+0, d[z]), which returns
// the input for -0, NaN, and ties — exactly the scalar "if v < 0"
// clamp.
//
//go:noescape
func reluAVX(d *float64, n int)

// pool2AVX is the window-2 channels-last max pool over one batch row:
// dst[p*ch+z] = max(src[p*step+z], src[p*step+ch+z]) for p in
// [0, outLen), z in [0, ch), with the scalar tie/NaN behaviour of
// "v := lo; if hi > v { v = hi }".
//
//go:noescape
func pool2AVX(dst, src *float64, outLen, ch, step int)
