package autoenc

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"soteria/internal/nn"
)

// smallDetector trains a quick detector for scoring tests.
func smallDetector(t testing.TB) (*Detector, *nn.Matrix) {
	t.Helper()
	const (
		dim  = 24
		rows = 40
	)
	rng := rand.New(rand.NewSource(31))
	x := nn.NewMatrix(rows, dim)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	cfg := DefaultConfig(dim)
	cfg.Epochs = 2
	cfg.BatchSize = 16
	cfg.Seed = 31
	d, err := Train(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, x
}

// TestConcurrentScoringSharedDetector hammers one trained detector
// from many goroutines; with -race this pins the scoring path's
// freedom from shared mutable state, and every score must equal the
// serial reference bit for bit.
func TestConcurrentScoringSharedDetector(t *testing.T) {
	d, x := smallDetector(t)
	wantVec := d.ReconstructionError(x.Row(0))
	wantBatch := d.ReconstructionErrors(x)

	var wg sync.WaitGroup
	errc := make(chan string, 64)
	fail := func(msg string) {
		select {
		case errc <- msg:
		default:
		}
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 30; iter++ {
				switch (g + iter) % 2 {
				case 0:
					if d.ReconstructionError(x.Row(0)) != wantVec {
						fail("ReconstructionError diverged under concurrency")
					}
				case 1:
					got := d.ReconstructionErrors(x)
					for i := range got {
						if got[i] != wantBatch[i] {
							fail("ReconstructionErrors diverged under concurrency")
							return
						}
					}
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
}

// TestScoringMatchesUnpooledReference pins the scratch-pooled scoring
// path to a from-scratch computation through the public network.
func TestScoringMatchesUnpooledReference(t *testing.T) {
	d, x := smallDetector(t)
	z := d.standardize(x)
	ref := nn.RMSE(d.Network().Predict(z), z)
	got := d.ReconstructionErrors(x)
	for i := range ref {
		if math.Abs(got[i]-ref[i]) != 0 {
			t.Fatalf("row %d: pooled score %v vs reference %v", i, got[i], ref[i])
		}
	}
	if re := d.ReconstructionError(x.Row(5)); re != ref[5] {
		t.Fatalf("single-vector score %v vs reference %v", re, ref[5])
	}
}

// TestDetectorScoringZeroAllocSteadyState is the satellite guard:
// scoring a fitted detector allocates nothing once its scratch pool is
// warm.
func TestDetectorScoringZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	d, x := smallDetector(t)
	vec := x.Row(0)
	for i := 0; i < 3; i++ {
		d.ReconstructionError(vec)
	}
	if avg := testing.AllocsPerRun(100, func() { d.ReconstructionError(vec) }); avg != 0 {
		t.Fatalf("ReconstructionError allocates %v per call at steady state, want 0", avg)
	}
}
