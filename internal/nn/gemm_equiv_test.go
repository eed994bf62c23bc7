package nn

import (
	"math"
	"math/rand"
	"testing"
)

// seedMatMul is the seed repository's MatMul kernel, kept verbatim
// (serial form) as the equivalence reference for the blocked GEMM: the
// acceptance bar is that the new kernel stays within 1e-9 of this
// implementation for every transpose combination.
func seedMatMul(a, b *Matrix, aT, bT bool) *Matrix {
	ar, ac := a.Rows, a.Cols
	if aT {
		ar, ac = ac, ar
	}
	_, bc := b.Rows, b.Cols
	if bT {
		bc = b.Rows
	}
	out := NewMatrix(ar, bc)
	for i := 0; i < ar; i++ {
		outRow := out.Data[i*bc : (i+1)*bc]
		for k := 0; k < ac; k++ {
			var av float64
			if aT {
				av = a.Data[k*a.Cols+i]
			} else {
				av = a.Data[i*a.Cols+k]
			}
			if av == 0 {
				continue
			}
			if bT {
				for j := 0; j < bc; j++ {
					outRow[j] += av * b.Data[j*b.Cols+k]
				}
			} else {
				bRow := b.Data[k*b.Cols : (k+1)*b.Cols]
				for j := 0; j < bc; j++ {
					outRow[j] += av * bRow[j]
				}
			}
		}
	}
	return out
}

// equivShapes crosses the blocked kernel's tile boundaries (col block
// 512, k block 128, transpose tile 32) as well as degenerate and odd
// shapes.
var equivShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{5, 3, 4},
	{2, 128, 512},  // exactly one tile
	{3, 129, 513},  // one past each tile boundary
	{4, 300, 700},  // several tiles, odd remainders
	{33, 40, 31},   // crosses the transpose tile
	{64, 257, 130}, // parallel path (work >= threshold)
	{1, 500, 600},  // single row, wide
	{100, 1, 100},  // k == 1 (no full unroll quads)
	{7, 6, 1},      // single column
	{5, 9, 8},      // narrow panel path, one 8-wide tile, k remainder
	{4, 130, 16},   // narrow panel, two tiles, crosses the k block
	{3, 12, 12},    // narrow panel plus 4 leftover columns
	{6, 4, 15},     // narrow panel, exactly one quad, 7 leftover columns
	{64, 257, 14},  // narrow panel on the parallel path
}

func maxAbsDiff(a, b *Matrix) float64 {
	var worst float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestMatMulIntoMatchesSeedKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("heaviest equivalence sweep (every shape x every transpose); skipped under -short")
	}
	rng := rand.New(rand.NewSource(41))
	for _, sh := range equivShapes {
		for _, aT := range []bool{false, true} {
			for _, bT := range []bool{false, true} {
				a := randMatrix(rng, sh.m, sh.k)
				if aT {
					a = randMatrix(rng, sh.k, sh.m)
				}
				b := randMatrix(rng, sh.k, sh.n)
				if bT {
					b = randMatrix(rng, sh.n, sh.k)
				}
				want := seedMatMul(a, b, aT, bT)
				got := MatMulInto(NewMatrix(sh.m, sh.n), a, b, aT, bT)
				if d := maxAbsDiff(got, want); d > 1e-9 {
					t.Fatalf("%dx%dx%d aT=%v bT=%v: max diff %g vs seed kernel", sh.m, sh.k, sh.n, aT, bT, d)
				}
				if alloc := MatMul(a, b, aT, bT); maxAbsDiff(alloc, got) != 0 {
					t.Fatalf("%dx%dx%d aT=%v bT=%v: MatMul and MatMulInto disagree", sh.m, sh.k, sh.n, aT, bT)
				}
			}
		}
	}
}

// TestMatMulSparseInputsMatchSeedKernel exercises the all-zero-quad
// skip with ReLU-like half-zero inputs.
func TestMatMulSparseInputsMatchSeedKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randMatrix(rng, 9, 300)
	for i := range a.Data {
		if a.Data[i] < 0 {
			a.Data[i] = 0
		}
	}
	b := randMatrix(rng, 300, 520)
	want := seedMatMul(a, b, false, false)
	got := MatMul(a, b, false, false)
	if d := maxAbsDiff(got, want); d > 1e-9 {
		t.Fatalf("sparse input: max diff %g vs seed kernel", d)
	}
}

func TestMatMulAddIntoAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := randMatrix(rng, 6, 200)
	b := randMatrix(rng, 200, 530)
	dst := randMatrix(rng, 6, 530)
	base := dst.Clone()
	MatMulAddInto(dst, a, b, false, false)
	prod := seedMatMul(a, b, false, false)
	for i := range dst.Data {
		want := base.Data[i] + prod.Data[i]
		if math.Abs(dst.Data[i]-want) > 1e-9 {
			t.Fatalf("elem %d: got %v want %v", i, dst.Data[i], want)
		}
	}
}

// TestGemmFusedBiasReLU checks the epilogues: initializing the output
// with the bias row and clamping after the final k-block must equal the
// unfused add-then-ReLU sequence exactly.
func TestGemmFusedBiasReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := randMatrix(rng, 5, 140)
	b := randMatrix(rng, 140, 600)
	bias := make([]float64, 600)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}
	fused := NewMatrix(5, 600)
	gemm(fused, a, b, false, false, false, bias, true)

	want := seedMatMul(a, b, false, false)
	for i := 0; i < want.Rows; i++ {
		row := want.Row(i)
		for j := range row {
			row[j] += bias[j]
			if row[j] < 0 {
				row[j] = 0
			}
		}
	}
	if d := maxAbsDiff(fused, want); d > 1e-9 {
		t.Fatalf("fused bias+ReLU: max diff %g", d)
	}
}

// TestGemmPanelsMatchesBlockedKernel pins the panel kernel
// bit-identical to the blocked kernel — not merely close: the panel
// path serves every non-accumulating product while the blocked kernel
// serves accumulation, and the repo's equivalence guarantees require
// the results to agree in every bit. Inputs include -0 values and
// fully zero quads so the skip predicate, the scalar k remainder,
// leftover columns, and the bias/ReLU epilogues are all crossed.
func TestGemmPanelsMatchesBlockedKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	shapes := []struct{ m, k, n int }{
		{1, 4, 8},
		{5, 9, 8},
		{4, 130, 16},
		{3, 12, 12},
		{6, 4, 15},
		{7, 3, 6},     // no full quad: the singles sweep carries all of k
		{2, 257, 9},   // k remainder after the last full quad
		{3, 5, 4},     // exactly one 4-wide tile
		{4, 6, 7},     // 4-wide tile plus a 3-column blocked tail
		{5, 2, 3},     // below every tile width: blocked tail only
		{9, 131, 13},  // 8-tile, 4-tile, 1 leftover column, k across blocks
		{5, 140, 600}, // wide: crosses the blocked kernel's column tile
		{3, 300, 515}, // wide with k across blocks and a 3-column tail
	}
	for _, sh := range shapes {
		a := randMatrix(rng, sh.m, sh.k)
		for i := range a.Data {
			switch {
			case a.Data[i] < -0.8:
				a.Data[i] = math.Copysign(0, -1) // -0 must still skip
			case a.Data[i] < 0:
				a.Data[i] = 0
			}
		}
		// Zero a whole quad in every row to force the skip path.
		if sh.k >= 4 {
			for i := 0; i < sh.m; i++ {
				for z := 0; z < 4; z++ {
					a.Data[i*sh.k+z] = 0
				}
			}
		}
		b := randMatrix(rng, sh.k, sh.n)
		bias := make([]float64, sh.n)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		for _, relu := range []bool{false, true} {
			for _, bi := range [][]float64{nil, bias} {
				narrow := NewMatrix(sh.m, sh.n)
				gemmPanels(narrow.Data, sh.n, a.Data, sh.k, b.Data, sh.n, 0, sh.m, sh.k, sh.n, bi, relu)
				blocked := NewMatrix(sh.m, sh.n)
				gemmKernel(blocked.Data, sh.n, a.Data, sh.k, b.Data, sh.n, 0, sh.m, sh.k, sh.n, false, bi, relu)
				for i := range narrow.Data {
					if narrow.Data[i] != blocked.Data[i] {
						t.Fatalf("%dx%dx%d relu=%v bias=%v: elem %d: narrow %v != blocked %v",
							sh.m, sh.k, sh.n, relu, bi != nil, i, narrow.Data[i], blocked.Data[i])
					}
				}
			}
		}
	}
}

// TestMatMulIntoDeterministic pins run-to-run bit-identity: blocking
// constants are fixed, so repeated products over the same inputs must
// agree in every bit regardless of scheduling.
func TestMatMulIntoDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	a := randMatrix(rng, 64, 257)
	b := randMatrix(rng, 257, 130)
	ref := MatMulInto(NewMatrix(64, 130), a, b, false, false)
	for trial := 0; trial < 5; trial++ {
		got := MatMulInto(NewMatrix(64, 130), a, b, false, false)
		for i := range got.Data {
			if got.Data[i] != ref.Data[i] {
				t.Fatalf("trial %d: elem %d differs: %v vs %v", trial, i, got.Data[i], ref.Data[i])
			}
		}
	}
}

func TestMatMulIntoShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong dst shape")
		}
	}()
	MatMulInto(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(3, 4), false, false)
}

func TestMatMulIntoAliasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dst aliasing an operand")
		}
	}()
	m := NewMatrix(3, 3)
	MatMulInto(m, m, NewMatrix(3, 3), false, false)
}
