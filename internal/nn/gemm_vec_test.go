package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// The single-row path (gemmVec) adds only the terms of a live quad
// whose coefficient is nonzero, where the quad rule adds all four and
// so adds 0*b for each zero. The quad rule is gemmRow's loop, which
// every M = 1 product ran before gemmVec and which gemmKernel still
// runs on a one-row range, so these tests take gemmKernel over row 0 as
// the reference: with finite weights every nonzero output element must
// match it in bits and every zero element in value (only the sign of
// an exact zero may differ).

// vecNs and vecKs cross the blocked kernel's 512-column and 128-k tile
// edges, the AVX kernels' 4-lane tails, and every k%4 remainder.
var (
	vecNs = []int{1, 3, 4, 5, 511, 512, 513, 768}
	vecKs = []int{1, 2, 3, 4, 5, 6, 7, 64, 65, 66, 67, 127, 128, 129, 131, 260}
)

// vecCoeff returns an activation of the class c selects: a signed zero
// (a dead term), a subnormal (whose product with a weight can round to
// an exact zero), ±1e300, or an ordinary value.
func vecCoeff(c byte, rng *rand.Rand) float64 {
	switch c % 8 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64 * float64(int(1)<<rng.Intn(12))
	case 3:
		return -math.SmallestNonzeroFloat64 * float64(int(1)<<rng.Intn(12))
	case 4:
		return 1e300
	case 5:
		return -1e300
	default:
		return rng.NormFloat64()
	}
}

// vecRow returns k activations whose quad q has the live mask
// (q+shift)%16, so every 4-bit mask appears once in any 16 consecutive
// quads, followed by k%4 singles of any class. Live coefficients are
// nonzero; dead ones are +0 or -0.
func vecRow(rng *rand.Rand, k, shift int) []float64 {
	row := make([]float64, k)
	for kk := range row {
		mask := (kk/4 + shift) % 16
		switch {
		case kk >= k-k%4:
			row[kk] = vecCoeff(byte(rng.Intn(8)), rng)
		case mask>>(kk%4)&1 == 1:
			row[kk] = vecCoeff(byte(2+rng.Intn(6)), rng)
		default:
			row[kk] = vecCoeff(byte(rng.Intn(2)), rng)
		}
	}
	return row
}

// vecWeights returns n random values with about one in eight a signed
// zero: weights, and the biases and accumulator starts that let a -0
// seed meet a sum that is an exact zero.
func vecWeights(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		switch rng.Intn(16) {
		case 0:
			w[i] = 0
		case 1:
			w[i] = math.Copysign(0, -1)
		default:
			w[i] = rng.NormFloat64()
		}
	}
	return w
}

// zeroSignDiff returns the first index where got and want differ other
// than in the sign of an exact zero, or -1.
func zeroSignDiff(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(got[i] == 0 && want[i] == 0) {
			return i
		}
	}
	return -1
}

// checkVec compares gemmVec on arow @ b (b is k x n) with the quad-rule
// reference, and, for a width the panel kernels do not take, requires
// gemm's M = 1 dispatch to return gemmVec's exact bits.
func checkVec(t *testing.T, arow, b []float64, n int, bias []float64, relu bool) {
	t.Helper()
	k := len(arow)
	want := make([]float64, n)
	gemmKernel(want, n, arow, k, b, n, 0, 1, k, n, false, bias, relu)
	got := make([]float64, n)
	gemmVec(got, arow, b, n, bias, relu)
	if i := zeroSignDiff(got, want); i >= 0 {
		t.Fatalf("k=%d n=%d bias=%v relu=%v: elem %d: single row %v (%#x), quad rule %v (%#x)",
			k, n, bias != nil, relu, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
	if n <= gemmNarrowMax {
		return
	}
	dst := NewMatrix(1, n)
	gemm(dst, &Matrix{Rows: 1, Cols: k, Data: arow}, &Matrix{Rows: k, Cols: n, Data: b}, false, false, false, bias, relu)
	for i := range got {
		if math.Float64bits(dst.Data[i]) != math.Float64bits(got[i]) {
			t.Fatalf("k=%d n=%d bias=%v relu=%v: elem %d: gemm %v, gemmVec %v", k, n, bias != nil, relu, i, dst.Data[i], got[i])
		}
	}
}

// TestGemmVecMatchesQuadRule runs every live mask, every k%4
// remainder, both tile edges, bias and ReLU on and off, and the
// coefficient and weight classes the equivalence argument covers.
func TestGemmVecMatchesQuadRule(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, k := range vecKs {
		for _, n := range vecNs {
			arow := vecRow(rng, k, rng.Intn(16))
			b := vecWeights(rng, k*n)
			bias := vecWeights(rng, n)
			for _, bi := range [][]float64{nil, bias} {
				for _, relu := range []bool{false, true} {
					checkVec(t, arow, b, n, bi, relu)
				}
			}
		}
	}
	// Signed-zero weights make every sum an exact zero whose sign
	// depends on which terms were added; seeded from -0, the two rules
	// then disagree in sign, which only the value comparison accepts.
	negZero := math.Copysign(0, -1)
	for _, k := range []int{4, 5, 8, 67} {
		arow := vecRow(rng, k, rng.Intn(16))
		b := make([]float64, k*64)
		for i := range b {
			if rng.Intn(2) == 0 {
				b[i] = negZero
			}
		}
		bias := make([]float64, 64)
		for i := range bias {
			bias[i] = negZero
		}
		for _, relu := range []bool{false, true} {
			checkVec(t, arow, b, 64, bias, relu)
		}
	}
}

// FuzzSingleRowGEMM draws one coefficient class per input byte, so the
// fuzzer reaches any live mask and remainder, and holds gemmVec to the
// quad rule. The seeds run as tests in every go test.
func FuzzSingleRowGEMM(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint16(4), int64(1), uint8(0))
	f.Add([]byte{6, 0, 6, 1, 2, 7}, uint16(2), int64(2), uint8(7))
	f.Add([]byte{4, 5, 1, 0, 4, 4, 0, 0, 2, 3, 1, 6, 7}, uint16(510), int64(3), uint8(3))
	f.Add(bytes.Repeat([]byte{0, 6, 1, 7, 2, 0, 4, 1, 1, 1, 0, 5}, 11), uint16(511), int64(4), uint8(5))
	f.Add(bytes.Repeat([]byte{7, 0, 0, 6}, 33), uint16(512), int64(5), uint8(6))
	f.Add(bytes.Repeat([]byte{1, 2, 0, 6, 6, 0, 3}, 19), uint16(767), int64(6), uint8(1))
	f.Fuzz(func(t *testing.T, coeffs []byte, n16 uint16, seed int64, flags uint8) {
		if len(coeffs) == 0 {
			return
		}
		if len(coeffs) > 300 {
			coeffs = coeffs[:300]
		}
		n := 1 + int(n16)%800
		rng := rand.New(rand.NewSource(seed))
		arow := make([]float64, len(coeffs))
		for i, c := range coeffs {
			arow[i] = vecCoeff(c, rng)
		}
		var b []float64
		if flags&4 != 0 {
			b = vecWeights(rng, len(arow)*n)
		} else {
			b = randMatrix(rng, len(arow), n).Data
		}
		var bias []float64
		if flags&2 != 0 {
			bias = vecWeights(rng, n)
		}
		checkVec(t, arow, b, n, bias, flags&1 != 0)
	})
}
