package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestAVXMatchesGoLoops pins the promise of gemm_amd64.s: the AVX
// kernels and the scalar Go loops compute every element with the same
// operations in the same order, so they agree in every bit, zero signs
// included. It flips useAVX, so it must not run beside another test
// (no t.Parallel). The shapes run each kernel: one-row wide products
// take gemmVec's partial-quad kernels and rowQuadAVX; two and three
// rows take pairQuadAVX and, where one row of a pair is dead,
// rowQuadAVX; widths up to gemmNarrowMax take panelTile8AVX and
// panelTile4AVX unless accumulating; ReLU runs reluAVX.
func TestAVXMatchesGoLoops(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this host: only the Go loops run")
	}
	defer func() { useAVX = true }()
	rng := rand.New(rand.NewSource(92))
	ns := append([]int{8, 9, 13, 16}, vecNs...)
	for _, m := range []int{1, 2, 3} {
		for _, k := range []int{3, 4, 7, 64, 67, 127, 128, 129, 131} {
			for _, n := range ns {
				a := NewMatrix(m, k)
				for i := 0; i < m; i++ {
					copy(a.Row(i), vecRow(rng, k, rng.Intn(16)))
				}
				b := &Matrix{Rows: k, Cols: n, Data: vecWeights(rng, k*n)}
				bias := vecWeights(rng, n)
				start := &Matrix{Rows: m, Cols: n, Data: vecWeights(rng, m*n)}
				run := func(avx, acc bool, bias []float64, relu bool) *Matrix {
					useAVX = avx
					dst := NewMatrix(m, n)
					if acc {
						copy(dst.Data, start.Data)
					}
					gemm(dst, a, b, false, false, acc, bias, relu)
					return dst
				}
				for _, c := range []struct {
					acc  bool
					bias []float64
					relu bool
				}{{true, nil, false}, {false, nil, false}, {false, nil, true}, {false, bias, false}, {false, bias, true}} {
					want := run(false, c.acc, c.bias, c.relu)
					got := run(true, c.acc, c.bias, c.relu)
					for i := range want.Data {
						if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
							t.Fatalf("%dx%dx%d acc=%v bias=%v relu=%v: elem %d: AVX %v (%#x), Go %v (%#x)",
								m, k, n, c.acc, c.bias != nil, c.relu, i, got.Data[i], math.Float64bits(got.Data[i]),
								want.Data[i], math.Float64bits(want.Data[i]))
						}
					}
				}
			}
		}
	}
}

// TestGemmVecGoLoopsMatchQuadRule runs the single-row oracle on the Go
// loops, which an AVX host never takes otherwise.
func TestGemmVecGoLoopsMatchQuadRule(t *testing.T) {
	if !useAVX {
		t.Skip("TestGemmVecMatchesQuadRule already ran the Go loops")
	}
	useAVX = false
	defer func() { useAVX = true }()
	TestGemmVecMatchesQuadRule(t)
}
