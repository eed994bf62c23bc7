package cnn

import (
	"math/rand"
	"reflect"
	"testing"

	"soteria/internal/nn"
)

// classVectors builds separable per-walk vectors: class c carries a bump
// in its own third of the vector plus noise.
func classVectors(rng *rand.Rand, perClass, dim, classes int) (*nn.Matrix, []int) {
	x := nn.NewMatrix(perClass*classes, dim)
	labels := make([]int, perClass*classes)
	seg := dim / classes
	for c := 0; c < classes; c++ {
		for i := 0; i < perClass; i++ {
			row := x.Row(c*perClass + i)
			for j := range row {
				row[j] = 0.02 * rng.Float64()
			}
			for j := c * seg; j < (c+1)*seg; j++ {
				row[j] = 0.4 + 0.1*rng.NormFloat64()
			}
			labels[c*perClass+i] = c
		}
	}
	return x, labels
}

func testConfig(dim, classes int) Config {
	cfg := DefaultConfig(dim, classes)
	cfg.Filters = 8
	cfg.DenseUnits = 32
	cfg.Epochs = 40
	cfg.BatchSize = 16
	cfg.Seed = 3
	return cfg
}

func TestTrainAndPredictSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, labels := classVectors(rng, 30, 24, 3)
	c, err := Train(x, labels, testConfig(24, 3))
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	testX, testLabels := classVectors(rng, 10, 24, 3)
	pred := c.Predict(testX)
	correct := 0
	for i := range pred {
		if pred[i] == testLabels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(pred)); acc < 0.9 {
		t.Fatalf("accuracy = %.2f, want >= 0.9", acc)
	}
}

func TestPredictOneMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, labels := classVectors(rng, 10, 24, 2)
	cfg := testConfig(24, 2)
	cfg.Epochs = 10
	c, err := Train(x, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := c.Predict(x)
	for i := 0; i < 5; i++ {
		if got := c.PredictOne(x.Row(i)); got != batch[i] {
			t.Fatalf("row %d: PredictOne %d vs batch %d", i, got, batch[i])
		}
	}
}

func TestProbsRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, labels := classVectors(rng, 8, 24, 2)
	cfg := testConfig(24, 2)
	cfg.Epochs = 5
	c, err := Train(x, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probs := c.Probs(x)
	for i := 0; i < probs.Rows; i++ {
		var sum float64
		for _, p := range probs.Row(i) {
			sum += p
		}
		if sum < 0.999999 || sum > 1.000001 {
			t.Fatalf("row %d prob sum = %v", i, sum)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nn.NewMatrix(0, 24), nil, testConfig(24, 2)); err != ErrNoTrainingData {
		t.Fatalf("empty err = %v", err)
	}
	if _, err := Train(nn.NewMatrix(2, 24), []int{0}, testConfig(24, 2)); err == nil {
		t.Fatal("label count mismatch should error")
	}
	if _, err := Train(nn.NewMatrix(2, 10), []int{0, 1}, testConfig(10, 2)); err == nil {
		t.Fatal("too-small input dim should error")
	}
	if _, err := Train(nn.NewMatrix(2, 24), []int{0, 1}, Config{}); err == nil {
		t.Fatal("zero config should error")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(500, 4)
	if cfg.Filters != 46 || cfg.DenseUnits != 512 {
		t.Fatalf("conv params = %+v", cfg)
	}
	// Kernel size and dropout rates are fixed in the built network.
	var kernels []int
	var dropouts []float64
	for _, l := range build(cfg, rand.New(rand.NewSource(1))).Layers {
		switch l := l.(type) {
		case *nn.Conv1D:
			kernels = append(kernels, l.Kernel)
		case *nn.Dropout:
			dropouts = append(dropouts, l.P)
		}
	}
	if want := []int{3, 3, 3, 3}; !reflect.DeepEqual(kernels, want) {
		t.Fatalf("conv kernels = %v, want %v", kernels, want)
	}
	if want := []float64{0.25, 0.25, 0.5}; !reflect.DeepEqual(dropouts, want) {
		t.Fatalf("dropout rates = %v, want %v", dropouts, want)
	}
	if cfg.Epochs != 100 || cfg.BatchSize != 128 {
		t.Fatalf("training params = %+v", cfg)
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, labels := classVectors(rng, 8, 24, 2)
	cfg := testConfig(24, 2)
	cfg.Epochs = 5
	c, err := Train(x, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(c.Config(), c.Network().SaveWeights())
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	a, b := c.Predict(x), r.Predict(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("restored classifier differs")
		}
	}
}

func TestEnsembleVoting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dim, classes, walks := 24, 3, 4
	// Per-walk training rows for both "labelings" (distinct noise).
	dblX, labels := classVectors(rng, 30, dim, classes)
	lblX, _ := classVectors(rng, 30, dim, classes)
	cfg := testConfig(dim, classes)
	e, err := TrainEnsemble(dblX, lblX, labels, cfg)
	if err != nil {
		t.Fatalf("TrainEnsemble: %v", err)
	}
	// Build one test sample per class with `walks` walk vectors each.
	correct := 0
	for c := 0; c < classes; c++ {
		mk := func() [][]float64 {
			m, _ := classVectors(rng, 1, dim, classes)
			out := make([][]float64, walks)
			for w := range out {
				out[w] = append([]float64(nil), m.Row(c)...)
			}
			return out
		}
		got, err := e.Vote(mk(), mk())
		if err != nil {
			t.Fatal(err)
		}
		if got == c {
			correct++
		}
	}
	if correct < classes-1 {
		t.Fatalf("ensemble classified %d/%d classes", correct, classes)
	}
}

func TestEnsembleVoteErrors(t *testing.T) {
	e := &Ensemble{}
	if _, err := e.Vote(nil, nil); err != ErrEmptyEnsemble {
		t.Fatalf("err = %v, want ErrEmptyEnsemble", err)
	}
}

func TestEnsembleMajorityOverridesMinority(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dim, classes := 24, 2
	dblX, labels := classVectors(rng, 25, dim, classes)
	lblX, _ := classVectors(rng, 25, dim, classes)
	cfg := testConfig(dim, classes)
	cfg.Epochs = 30
	e, err := TrainEnsemble(dblX, lblX, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 class-0 walks vs 1 class-1 walk per model: majority must be 0.
	m0, _ := classVectors(rng, 1, dim, classes)
	m1, _ := classVectors(rng, 1, dim, classes)
	walks := [][]float64{m0.Row(0), m0.Row(0), m0.Row(0), m1.Row(1)}
	got, err := e.Vote(walks, walks)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("majority vote = %d, want 0", got)
	}
}
