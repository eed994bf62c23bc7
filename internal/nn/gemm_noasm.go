//go:build !amd64

package nn

// useAVX is constant-false off amd64, so the calls below are
// dead-code-eliminated and the scalar loops in gemm.go run instead.
const useAVX = false

func pairQuadAVX(d0, d1, b0, b1, b2, b3 *float64, n int, a *[8]float64) {}

func rowQuadAVX(d, b0, b1, b2, b3 *float64, n int, a *[4]float64) {}

func panelTile8AVX(d *float64, ldd int, a *float64, lda int, b *float64, ldb int, rows, k int, bias *float64, relu int) {
}

func panelTile4AVX(d *float64, ldd int, a *float64, lda int, b *float64, ldb int, rows, k int, bias *float64, relu int) {
}

func reluAVX(d *float64, n int) {}

func pool2AVX(dst, src *float64, outLen, ch, step int) {}
