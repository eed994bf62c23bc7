package nn

import (
	"math/rand"
	"sync"
	"testing"
)

func inferTestNet(rng *rand.Rand) *Network {
	return NewNetwork(
		NewDense(12, 16, rng),
		NewReLU(),
		NewDense(16, 8, rng),
		NewSigmoid(),
		NewDense(8, 3, rng),
	)
}

// TestPredictIntoMatchesTrainingForward pins the inference path —
// arena scratch, Dense+ReLU fusion and all — to the training forward
// pass bit for bit (the stack has no dropout or batch norm, so the two
// paths compute identical functions).
func TestPredictIntoMatchesTrainingForward(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := inferTestNet(rng)
	x := randMatrix(rng, 7, 12)
	want := n.Forward(x, true).Clone()

	got := n.PredictInto(nil, x)
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("elem %d: PredictInto %v vs training forward %v", i, got.Data[i], want.Data[i])
		}
	}
	// Forward(x, false) and Predict route through the same path.
	if d := maxAbsDiff(n.Forward(x, false), got); d != 0 {
		t.Fatalf("Forward(x, false) diverges from PredictInto by %g", d)
	}
	// And a caller-provided dst receives the same values.
	dst := NewMatrix(7, 3)
	n.PredictInto(dst, x)
	if d := maxAbsDiff(dst, got); d != 0 {
		t.Fatalf("PredictInto(dst) diverges by %g", d)
	}
}

// TestPredictIntoConvStack covers the conv/pool infer path (shared-
// storage reshape headers, argmax-free pooling).
func TestPredictIntoConvStack(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	conv := NewConv1D(16, 1, 4, 3, 1, rng) // out 14x4
	pool := NewMaxPool1D(14, 4, 2, 2)      // out 7x4
	n := NewNetwork(conv, NewReLU(), pool, NewDense(28, 5, rng))
	x := randMatrix(rng, 3, 16)
	want := n.Forward(x, true).Clone()
	got := n.PredictInto(nil, x)
	if d := maxAbsDiff(got, want); d != 0 {
		t.Fatalf("conv stack inference diverges from training forward by %g", d)
	}
}

// TestPredictIntoBatchNormUsesRunningStats pins the batch-norm infer
// path to the running-statistics transform.
func TestPredictIntoBatchNormUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	bn := NewBatchNorm(4)
	n := NewNetwork(NewDense(6, 4, rng), bn, NewReLU())
	x := randMatrix(rng, 32, 6)
	for i := 0; i < 10; i++ {
		n.Forward(x, true)
	}
	got := n.PredictInto(nil, x)
	// Reference: standalone layer-by-layer eval forwards.
	h := n.Layers[0].Forward(x, false)
	h = n.Layers[1].Forward(h, false)
	h = n.Layers[2].Forward(h, false)
	if d := maxAbsDiff(got, h); d != 0 {
		t.Fatalf("batchnorm inference diverges by %g", d)
	}
}

// TestPredictIntoZeroAllocSteadyState is the satellite guard: once the
// arena and the caller's dst are warm, inference on a fitted network
// performs no allocation at all.
func TestPredictIntoZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(24))
	n := inferTestNet(rng)
	x := randMatrix(rng, 1, 12)
	dst := NewMatrix(1, 3)
	for i := 0; i < 3; i++ {
		n.PredictInto(dst, x) // warm the arena pool
	}
	if avg := testing.AllocsPerRun(100, func() { n.PredictInto(dst, x) }); avg != 0 {
		t.Fatalf("PredictInto allocates %v objects per call at steady state, want 0", avg)
	}
	if k := len(n.arenas); k != 1 {
		t.Fatalf("one caller left %d arenas on the free list, want 1", k)
	}
}

// TestConcurrentPredictSharedNetwork hammers one trained network from
// many goroutines; run with -race this pins the inference path's
// freedom from shared mutable state, and every result must be
// bit-identical to the serial reference.
func TestConcurrentPredictSharedNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	n := inferTestNet(rng)
	xs := make([]*Matrix, 8)
	refs := make([]*Matrix, 8)
	for i := range xs {
		xs[i] = randMatrix(rng, 2, 12)
		refs[i] = n.PredictInto(nil, xs[i])
	}
	var wg sync.WaitGroup
	errc := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := NewMatrix(2, 3)
			for iter := 0; iter < 50; iter++ {
				i := (g + iter) % len(xs)
				n.PredictInto(dst, xs[i])
				if d := maxAbsDiff(dst, refs[i]); d != 0 {
					select {
					case errc <- "concurrent predict diverged":
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}
	// The free list keeps at most one arena per concurrent caller.
	if k := len(n.arenas); k < 1 || k > 8 {
		t.Fatalf("8 callers left %d arenas on the free list, want 1..8", k)
	}
}

// TestPredictIntoBadShapePanics pins the dst shape contract.
func TestPredictIntoBadShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	n := inferTestNet(rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong dst shape")
		}
	}()
	n.PredictInto(NewMatrix(1, 2), randMatrix(rng, 1, 12))
}
