package core

import (
	"testing"

	"soteria/internal/gea"
	"soteria/internal/malgen"
)

// testOptions shrinks everything so the full pipeline trains in a few
// seconds.
func testOptions() Options {
	opts := DefaultOptions()
	opts.Features.WalkCount = 5
	opts.DetectorEpochs = 30
	opts.ClassifierEpochs = 40
	opts.Filters = 8
	opts.DenseUnits = 32
	opts.BatchSize = 32
	return opts
}

func trainCorpus(t *testing.T, perClass int) []*malgen.Sample {
	t.Helper()
	g := malgen.NewGenerator(malgen.Config{Seed: 7})
	var out []*malgen.Sample
	for _, c := range malgen.Classes {
		for i := 0; i < perClass; i++ {
			s, err := g.Sample(c)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
	}
	return out
}

func TestTrainEmptyCorpus(t *testing.T) {
	if _, err := Train(nil, testOptions()); err != ErrNoSamples {
		t.Fatalf("err = %v, want ErrNoSamples", err)
	}
}

// TestTrainRejectsPerWalkDetector pins that the deleted per-walk
// detector cannot be asked for: Train refuses it before any work.
func TestTrainRejectsPerWalkDetector(t *testing.T) {
	opts := testOptions()
	opts.PerWalkDetector = true
	if _, err := Train(trainCorpus(t, 1), opts); err != ErrPerWalkDetector {
		t.Fatalf("err = %v, want ErrPerWalkDetector", err)
	}
}

func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline training")
	}
	samples := trainCorpus(t, 20)
	p, err := Train(samples, testOptions())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}

	// 1. Clean training samples mostly pass the detector and classify
	// correctly.
	cleanOK, clsOK := 0, 0
	for i, s := range samples {
		dec, err := p.Analyze(s.CFG, int64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Adversarial {
			cleanOK++
		}
		if dec.Class == s.Class {
			clsOK++
		}
	}
	if frac := float64(cleanOK) / float64(len(samples)); frac < 0.7 {
		t.Fatalf("only %.2f of clean samples passed the detector", frac)
	}
	if frac := float64(clsOK) / float64(len(samples)); frac < 0.8 {
		t.Fatalf("classification accuracy on training corpus = %.2f", frac)
	}

	// 2. GEA AEs are mostly detected.
	g := malgen.NewGenerator(malgen.Config{Seed: 99})
	target, err := g.SampleSized(malgen.Benign, 120)
	if err != nil {
		t.Fatal(err)
	}
	detected, total := 0, 0
	for i, s := range samples {
		if s.Class == malgen.Benign || i%4 != 0 {
			continue
		}
		_, cfg, err := gea.MergeToCFG(s.Program, target.Program)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := p.Analyze(cfg, int64(5000+i))
		if err != nil {
			t.Fatal(err)
		}
		total++
		if dec.Adversarial {
			detected++
		}
	}
	if total == 0 {
		t.Fatal("no AEs generated")
	}
	// Detection quality scales with corpus size (see EXPERIMENTS.md: 82%
	// at the default experiment scale); this 80-sample corpus only
	// guards the wiring, so the bound is loose.
	if frac := float64(detected) / float64(total); frac < 0.4 {
		t.Fatalf("detected only %.2f of GEA AEs (%d/%d)", frac, detected, total)
	}
}

func TestAnalyzeBinaryRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline training")
	}
	samples := trainCorpus(t, 6)
	opts := testOptions()
	opts.DetectorEpochs = 10
	opts.ClassifierEpochs = 5
	p, err := Train(samples, opts)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := samples[0].Binary.Encode()
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.AnalyzeBinary(raw, 42)
	if err != nil {
		t.Fatalf("AnalyzeBinary: %v", err)
	}
	b, err := p.Analyze(samples[0].CFG, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.RE != b.RE || a.Class != b.Class || a.Adversarial != b.Adversarial {
		t.Fatalf("binary path disagrees: %+v vs %+v", a, b)
	}
	if _, err := p.AnalyzeBinary([]byte("junk"), 0); err == nil {
		t.Fatal("junk bytes should error")
	}
}

func TestOptionsDefaulting(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline")
	}
	samples := trainCorpus(t, 3)
	// Zero options must be filled with defaults (then shrunk manually to
	// stay fast): verify fillFrom wires defaults.
	opts := fillFrom(Options{}, DefaultOptions())
	if opts.Features.TopK == 0 || opts.DetectorEpochs == 0 || opts.Filters == 0 {
		t.Fatalf("fillFrom left zeros: %+v", opts)
	}
	_ = samples
}

func TestPaperOptionsMatchPaper(t *testing.T) {
	opts := PaperOptions()
	if opts.Features.TopK != 500 || opts.Features.WalkCount != 10 || opts.Features.LengthFactor != 5 {
		t.Fatalf("feature params = %+v", opts.Features)
	}
	if opts.Filters != 46 || opts.DenseUnits != 512 {
		t.Fatalf("CNN params = %+v", opts)
	}
	if opts.DetectorEpochs != 100 || opts.ClassifierEpochs != 100 || opts.BatchSize != 128 {
		t.Fatalf("training params = %+v", opts)
	}
}
