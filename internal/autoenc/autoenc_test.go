package autoenc

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"soteria/internal/nn"
)

// cleanVectors samples vectors near two prototype patterns (sparse
// positive bumps), mimicking normalized TF-IDF features.
func cleanVectors(rng *rand.Rand, n, dim int) *nn.Matrix {
	x := nn.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		proto := i % 2
		for j := 0; j < dim; j++ {
			v := 0.02 * rng.Float64()
			if (proto == 0 && j < dim/3) || (proto == 1 && j >= 2*dim/3) {
				v = 0.5 + 0.1*rng.NormFloat64()
			}
			x.Set(i, j, math.Max(v, 0))
		}
	}
	return x
}

// shiftedVectors puts mass where clean vectors never have it.
func shiftedVectors(rng *rand.Rand, n, dim int) *nn.Matrix {
	x := nn.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		for j := dim / 3; j < 2*dim/3; j++ {
			x.Set(i, j, 0.6+0.1*rng.NormFloat64())
		}
	}
	return x
}

func testConfig(dim int) Config {
	cfg := DefaultConfig(dim)
	cfg.Epochs = 60
	cfg.BatchSize = 16
	cfg.Seed = 7
	return cfg
}

// flagged counts the rows of x whose reconstruction error exceeds the
// detector's threshold.
func flagged(d *Detector, x *nn.Matrix) int {
	n := 0
	for _, re := range d.ReconstructionErrors(x) {
		if re > d.Threshold() {
			n++
		}
	}
	return n
}

func TestTrainSeparatesShiftedVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dim := 24
	train := cleanVectors(rng, 160, dim)
	d, err := Train(train, testConfig(dim))
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	cleanTest := cleanVectors(rng, 20, dim)
	adv := shiftedVectors(rng, 20, dim)

	cleanFP, advTP := flagged(d, cleanTest), flagged(d, adv)
	if advTP < 18 {
		t.Fatalf("detected %d/20 shifted vectors, want >= 18", advTP)
	}
	if cleanFP > 8 {
		t.Fatalf("flagged %d/20 clean vectors at alpha=1, want <= 8", cleanFP)
	}

	// The paper's Fig. 13 shape: at alpha=2 nearly all clean samples
	// pass while far-out-of-distribution vectors are still caught.
	d.SetAlpha(2.0)
	cleanFP2, advTP2 := flagged(d, cleanTest), flagged(d, adv)
	if cleanFP2 > 3 {
		t.Fatalf("flagged %d/20 clean vectors at alpha=2, want <= 3", cleanFP2)
	}
	if cleanFP2 > cleanFP {
		t.Fatalf("clean FPs rose from %d to %d when alpha went 1 -> 2", cleanFP, cleanFP2)
	}
	if advTP2 < 15 {
		t.Fatalf("detected %d/20 shifted vectors at alpha=2, want >= 15", advTP2)
	}
}

func TestThresholdFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dim := 16
	cfg := testConfig(dim)
	cfg.Epochs = 10
	d, err := Train(cleanVectors(rng, 30, dim), cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	mu, sigma := d.Calibration()
	if got, want := d.Threshold(), mu+1.0*sigma; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Threshold = %v, want %v", got, want)
	}
	if got, want := d.ThresholdAt(2.0), mu+2*sigma; math.Abs(got-want) > 1e-12 {
		t.Fatalf("ThresholdAt(2) = %v, want %v", got, want)
	}
	d.SetAlpha(0.5)
	if got, want := d.Threshold(), mu+0.5*sigma; math.Abs(got-want) > 1e-12 {
		t.Fatalf("after SetAlpha: Threshold = %v, want %v", got, want)
	}
	if d.Alpha() != 0.5 {
		t.Fatalf("Alpha = %v", d.Alpha())
	}
	if d.Mu() != mu || d.Sigma() != sigma {
		t.Fatal("Mu/Sigma accessors disagree with Calibration")
	}
}

func TestAlphaMonotonicity(t *testing.T) {
	// Raising alpha can only reduce the number of detections.
	rng := rand.New(rand.NewSource(3))
	dim := 16
	cfg := testConfig(dim)
	cfg.Epochs = 20
	d, err := Train(cleanVectors(rng, 30, dim), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mixed := shiftedVectors(rng, 30, dim)
	count := func(alpha float64) int {
		d.SetAlpha(alpha)
		return flagged(d, mixed)
	}
	prev := count(0)
	for _, a := range []float64{0.5, 1.0, 1.5, 2.0} {
		cur := count(a)
		if cur > prev {
			t.Fatalf("detections increased from %d to %d when alpha rose to %v", prev, cur, a)
		}
		prev = cur
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nn.NewMatrix(0, 8), DefaultConfig(8)); err != ErrNoTrainingData {
		t.Fatalf("empty data err = %v", err)
	}
	if _, err := Train(nn.NewMatrix(4, 8), DefaultConfig(9)); err == nil {
		t.Fatal("dim mismatch should error")
	}
	if _, err := Train(nn.NewMatrix(4, 8), Config{}); err == nil {
		t.Fatal("zero config should error")
	}
}

func TestDefaultConfigRatios(t *testing.T) {
	cfg := DefaultConfig(1000)
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	// The paper's 1000 -> 2000 -> 3000 -> 2000 -> 1000 autoencoder.
	var widths []int
	for _, l := range buildNet(cfg, rand.New(rand.NewSource(1))).Layers {
		if dl, ok := l.(*nn.Dense); ok {
			if len(widths) == 0 {
				widths = append(widths, dl.In)
			}
			widths = append(widths, dl.Out)
		}
	}
	if want := []int{1000, 2000, 3000, 2000, 1000}; !reflect.DeepEqual(widths, want) {
		t.Fatalf("layer widths = %v, want %v", widths, want)
	}
	if cfg.Epochs != 100 || cfg.BatchSize != 128 || cfg.Alpha != 1.0 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestReconstructionErrorSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dim := 12
	cfg := testConfig(dim)
	cfg.Epochs = 10
	d, err := Train(cleanVectors(rng, 20, dim), cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := cleanVectors(rng, 3, dim)
	batch := d.ReconstructionErrors(x)
	for i := 0; i < 3; i++ {
		single := d.ReconstructionError(x.Row(i))
		if math.Abs(single-batch[i]) > 1e-12 {
			t.Fatalf("row %d: single %v vs batch %v", i, single, batch[i])
		}
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dim := 12
	cfg := testConfig(dim)
	cfg.Epochs = 10
	d, err := Train(cleanVectors(rng, 20, dim), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(d.cfg, d.State())
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	x := cleanVectors(rng, 5, dim)
	a := d.ReconstructionErrors(x)
	b := r.ReconstructionErrors(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("restored detector differs")
		}
	}
	if r.Threshold() != d.Threshold() {
		t.Fatal("restored threshold differs")
	}
}

func TestTrainDeterministic(t *testing.T) {
	rng1 := rand.New(rand.NewSource(6))
	rng2 := rand.New(rand.NewSource(6))
	dim := 12
	cfg := testConfig(dim)
	cfg.Epochs = 5
	d1, err := Train(cleanVectors(rng1, 16, dim), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Train(cleanVectors(rng2, 16, dim), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Mu() != d2.Mu() || d1.Sigma() != d2.Sigma() {
		t.Fatal("training not deterministic")
	}
}
