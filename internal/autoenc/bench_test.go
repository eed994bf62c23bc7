package autoenc

import (
	"math/rand"
	"testing"

	"soteria/internal/nn"
)

// BenchmarkAutoencFit measures one full detector training run at a
// reduced scale that keeps the paper's 1x/2x/3x/2x/1x layer geometry:
// the per-op cost is dominated by the dense forward/backward GEMMs,
// so it tracks the nn compute-kernel trajectory across PRs.
func BenchmarkAutoencFit(b *testing.B) {
	const (
		dim  = 96
		rows = 64
	)
	rng := rand.New(rand.NewSource(7))
	x := nn.NewMatrix(rows, dim)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	cfg := DefaultConfig(dim)
	cfg.Epochs = 2
	cfg.BatchSize = 32
	cfg.Seed = 7
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRE keeps the scored result live so the compiler cannot drop the
// call under measurement.
var benchRE float64

// BenchmarkDetectorScore measures steady-state inference of one sample
// through the five dense layers and the RMSE reduction: the
// batch-of-one forward pass a served miss runs.
//
//   - dense96 scores one dense random row on a detector trained on such
//     rows, so no input is zero.
//   - default256 and paper1000 use random weights at the DefaultOptions
//     width (2·TopK = 256 inputs, 256-512-768-512-256) and at the
//     paper's 1000-2000-3000-2000-1000, and score an input that is 62%
//     zeros, as the detector's inputs are on paper-mix traffic. These
//     are the cases the single-row kernel's per-term zero skip serves.
func BenchmarkDetectorScore(b *testing.B) {
	b.Run("dense96", func(b *testing.B) {
		const (
			dim  = 96
			rows = 48
		)
		rng := rand.New(rand.NewSource(11))
		x := nn.NewMatrix(rows, dim)
		for i := range x.Data {
			x.Data[i] = rng.Float64()
		}
		cfg := DefaultConfig(dim)
		cfg.Epochs = 2
		cfg.BatchSize = 32
		cfg.Seed = 11
		d, err := Train(x, cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchScore(b, d, x.Row(0))
	})
	for _, sc := range []struct {
		name string
		dim  int
	}{{"default256", 256}, {"paper1000", 1000}} {
		b.Run(sc.name, func(b *testing.B) {
			d := randomDetector(b, sc.dim, 12)
			rng := rand.New(rand.NewSource(13))
			vec := make([]float64, sc.dim)
			for j := range vec {
				if rng.Float64() >= 0.62 {
					vec[j] = rng.NormFloat64()
				}
			}
			benchScore(b, d, vec)
		})
	}
}

func benchScore(b *testing.B, d *Detector, vec []float64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRE = d.ReconstructionError(vec)
	}
}

// randomDetector builds an untrained detector of DefaultConfig's
// geometry at the given input width, with freshly initialized weights.
// Training one at the paper's width would take longer than the
// measurement.
func randomDetector(b *testing.B, dim int, seed int64) *Detector {
	cfg := DefaultConfig(dim)
	cfg.Seed = seed
	if err := cfg.fill(); err != nil {
		b.Fatal(err)
	}
	return &Detector{cfg: cfg, net: buildNet(cfg, rand.New(rand.NewSource(seed)))}
}
