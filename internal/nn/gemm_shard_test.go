package nn

import (
	"math/rand"
	"testing"
)

// These tests pin the sharding contract of the parallel GEMM paths:
// the M dimension is split into statically owned row ranges whose
// boundaries depend only on (m, grain, workers) — the formula
// replicated in shardRanges below, matching par.ForChunkedGrain — and
// running the kernels over ANY partition of the row space, in any
// order, produces bytes identical to one serial full-range call.
// Together the two properties make sharded products byte-identical to
// serial ones for every worker count and schedule.

// shardRanges reproduces par.ForChunkedGrain's chunk boundaries for a
// pool with the given worker count: grain = max(ceil(n/workers),
// minGrain), chunk i = [i*grain, min((i+1)*grain, n)).
func shardRanges(n, minGrain, workers int) [][2]int {
	if n <= 0 {
		return nil
	}
	grain := (n + workers - 1) / workers
	if grain < minGrain {
		grain = minGrain
	}
	var out [][2]int
	for lo := 0; lo < n; lo += grain {
		hi := lo + grain
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// TestShardRangesDeterministic pins the boundary formula itself: the
// same (n, grain, workers) always yields the same ranges, the ranges
// partition [0, n) exactly, and no range undercuts the grain floor
// except the final remainder.
func TestShardRangesDeterministic(t *testing.T) {
	for _, n := range []int{0, 1, 5, 63, 64, 65, 1000} {
		for _, grain := range []int{1, 7, 64, 1000} {
			for _, workers := range []int{1, 2, 3, 8, 16} {
				ref := shardRanges(n, grain, workers)
				for trial := 0; trial < 3; trial++ {
					got := shardRanges(n, grain, workers)
					if len(got) != len(ref) {
						t.Fatalf("n=%d grain=%d workers=%d: %d ranges, then %d", n, grain, workers, len(ref), len(got))
					}
					for i := range got {
						if got[i] != ref[i] {
							t.Fatalf("n=%d grain=%d workers=%d: range %d differs across runs", n, grain, workers, i)
						}
					}
				}
				next := 0
				for i, r := range ref {
					if r[0] != next || r[1] <= r[0] {
						t.Fatalf("n=%d grain=%d workers=%d: range %d = %v does not continue the partition at %d", n, grain, workers, i, r, next)
					}
					if sz := r[1] - r[0]; sz < grain && r[1] != n {
						t.Fatalf("n=%d grain=%d workers=%d: non-final range %d has size %d < grain", n, grain, workers, i, sz)
					}
					next = r[1]
				}
				if n > 0 && next != n {
					t.Fatalf("n=%d grain=%d workers=%d: ranges cover [0, %d), want [0, %d)", n, grain, workers, next, n)
				}
				if n <= 0 && ref != nil {
					t.Fatalf("n=%d: expected no ranges, got %v", n, ref)
				}
			}
		}
	}
}

// TestShardedKernelsMatchSerial runs the blocked and panel kernels
// over the static row partitions of every simulated worker count — in
// shuffled claim order, the way a real pool hands chunks to whichever
// worker is idle — and requires the assembled output to be
// byte-identical to one serial full-range call: sharding may never
// change results.
func TestShardedKernelsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full worker-count x shape sharding sweep; skipped under -short")
	}
	rng := rand.New(rand.NewSource(47))
	shapes := []struct{ m, k, n int }{
		{64, 257, 130}, // wide: blocked kernel, above the parallel threshold
		{64, 257, 14},  // narrow: panel kernel
		{7, 31, 9},     // below the grain: single-range fallback
		{65, 128, 512}, // odd row remainder over full tiles
	}
	for _, sh := range shapes {
		a := randMatrix(rng, sh.m, sh.k)
		b := randMatrix(rng, sh.k, sh.n)
		bias := make([]float64, sh.n)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		runKernel := func(dst *Matrix, rlo, rhi int) {
			if sh.n <= gemmNarrowMax {
				gemmPanels(dst.Data, sh.n, a.Data, sh.k, b.Data, sh.n, rlo, rhi, sh.k, sh.n, bias, true)
			} else {
				gemmKernel(dst.Data, sh.n, a.Data, sh.k, b.Data, sh.n, rlo, rhi, sh.k, sh.n, false, bias, true)
			}
		}
		serial := NewMatrix(sh.m, sh.n)
		runKernel(serial, 0, sh.m)
		grain := gemmGrain(sh.k, sh.n)
		for _, workers := range []int{1, 2, 3, 8, 16} {
			ranges := shardRanges(sh.m, grain, workers)
			rng.Shuffle(len(ranges), func(i, j int) { ranges[i], ranges[j] = ranges[j], ranges[i] })
			sharded := NewMatrix(sh.m, sh.n)
			for _, r := range ranges {
				runKernel(sharded, r[0], r[1])
			}
			for i := range sharded.Data {
				if sharded.Data[i] != serial.Data[i] {
					t.Fatalf("%dx%dx%d workers=%d: elem %d: sharded %v != serial %v",
						sh.m, sh.k, sh.n, workers, i, sharded.Data[i], serial.Data[i])
				}
			}
		}
	}
}

// TestGemmGrain pins the grain floor: every statically owned chunk
// clears parallelThreshold multiply-adds, and degenerate products
// still get a positive grain.
func TestGemmGrain(t *testing.T) {
	cases := []struct{ k, n, want int }{
		{1, 1, parallelThreshold},
		{256, 256, 1},
		{257, 130, 1},
		{128, 4, parallelThreshold / 512},
		{1 << 20, 1 << 20, 1},
	}
	for _, c := range cases {
		if got := gemmGrain(c.k, c.n); got != c.want {
			t.Fatalf("gemmGrain(%d, %d) = %d, want %d", c.k, c.n, got, c.want)
		}
		if g := gemmGrain(c.k, c.n); g >= 1 && c.k*c.n*g < parallelThreshold && g != 1 {
			t.Fatalf("gemmGrain(%d, %d) = %d: chunk below threshold without hitting the floor", c.k, c.n, g)
		}
	}
}

// TestMatMulIntoParallelMatchesSerialShapes crosses the public parallel
// dispatch (work >= parallelThreshold fans out over the shared pool)
// against the explicitly serial kernel: on any host, with any worker
// count, the pooled product must be byte-identical to the single-range
// kernel run.
func TestMatMulIntoParallelMatchesSerialShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	shapes := []struct{ m, k, n int }{
		{64, 257, 130},
		{200, 80, 90},
		{64, 257, 14},
		{128, 36, 12},
	}
	for _, sh := range shapes {
		a := randMatrix(rng, sh.m, sh.k)
		b := randMatrix(rng, sh.k, sh.n)
		got := MatMulInto(NewMatrix(sh.m, sh.n), a, b, false, false)
		serial := NewMatrix(sh.m, sh.n)
		if sh.n <= gemmNarrowMax {
			gemmPanels(serial.Data, sh.n, a.Data, sh.k, b.Data, sh.n, 0, sh.m, sh.k, sh.n, nil, false)
		} else {
			gemmKernel(serial.Data, sh.n, a.Data, sh.k, b.Data, sh.n, 0, sh.m, sh.k, sh.n, false, nil, false)
		}
		for i := range got.Data {
			if got.Data[i] != serial.Data[i] {
				t.Fatalf("%dx%dx%d: elem %d: pooled %v != serial kernel %v", sh.m, sh.k, sh.n, i, got.Data[i], serial.Data[i])
			}
		}
	}
}
