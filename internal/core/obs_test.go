// Observability contract tests: instrumentation must never change a
// decision (bit-identical models and verdicts with obs on or off) and
// must never add an allocation to the scoring hot path. Plus the
// regression tests for the fillFrom defaulting bug and the batcher
// scratch pinning.
package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"soteria/internal/disasm"
	"soteria/internal/obs"
)

var (
	obsOnce sync.Once
	obsErr  error
	obsPipe *Pipeline
	obsReg  *obs.Registry
)

// obsEnv trains one pipeline with Options.Obs set, using exactly the
// options of batchEnv's pipeline, so equivalence tests can compare the
// instrumented twin against the plain one.
func obsEnv(t *testing.T) (*Pipeline, *obs.Registry) {
	t.Helper()
	batchEnv(t)
	obsOnce.Do(func() {
		opts := testOptions()
		opts.Features.WalkCount = 3
		opts.DetectorEpochs = 8
		opts.ClassifierEpochs = 8
		opts.Filters = 4
		opts.DenseUnits = 16
		obsReg = obs.NewRegistry()
		opts.Obs = obsReg
		obsPipe, obsErr = Train(batchCorpus, opts)
	})
	if obsErr != nil {
		t.Fatal(obsErr)
	}
	return obsPipe, obsReg
}

// TestObsEquivalence pins the write-only contract end to end: a
// pipeline trained and served with a live registry produces models and
// decisions bit-identical to its uninstrumented twin, while the
// registry actually fills with training and serving metrics.
func TestObsEquivalence(t *testing.T) {
	plain, corpus := batchEnv(t)
	inst, reg := obsEnv(t)

	gotMu, gotSig := inst.Detector.Calibration()
	wantMu, wantSig := plain.Detector.Calibration()
	if gotMu != wantMu || gotSig != wantSig {
		t.Fatalf("instrumented calibration (%v, %v) != plain (%v, %v)", gotMu, gotSig, wantMu, wantSig)
	}

	cfgs := make([]*disasm.CFG, len(corpus))
	salts := make([]int64, len(corpus))
	for i, s := range corpus {
		cfgs[i] = s.CFG
		salts[i] = int64(9000 + i)
	}
	got, err := inst.AnalyzeBatch(cfgs, salts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.AnalyzeBatch(cfgs, salts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].RE != want[i].RE || got[i].Adversarial != want[i].Adversarial || got[i].Class != want[i].Class {
			t.Fatalf("sample %d: instrumented {%v %v %v} != plain {%v %v %v}",
				i, got[i].Adversarial, got[i].RE, got[i].Class,
				want[i].Adversarial, want[i].RE, want[i].Class)
		}
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		"train.detector.epochs", "train.classifier.epochs",
		"pipeline.samples", "detector.re",
	} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("metric %q missing from snapshot", name)
		}
	}
	if snap["train.detector.epochs"].(uint64) == 0 {
		t.Fatal("detector training observed no epochs")
	}
	if snap["train.classifier.epochs"].(uint64) == 0 {
		t.Fatal("classifier training observed no epochs")
	}
	if got := reg.Counter("pipeline.samples").Value(); got < uint64(len(corpus)) {
		t.Fatalf("pipeline.samples = %d, want >= %d", got, len(corpus))
	}
	if reg.Histogram("pipeline.extract_ns", nil).Count() == 0 ||
		reg.Histogram("pipeline.score_ns", nil).Count() == 0 {
		t.Fatal("stage latency histograms observed no chunks")
	}
	if reg.Histogram("detector.re", nil).Count() == 0 {
		t.Fatal("detector RE histogram observed nothing")
	}
}

// TestObsScoringAddsNoAllocations pins the zero-alloc contract on the
// scoring hot path: the instrumented scoreChunk allocates exactly as
// much as the uninstrumented one (the per-sample Decisions and nothing
// else).
func TestObsScoringAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, making pooled-path alloc counts noisy")
	}
	plain, corpus := batchEnv(t)
	inst, _ := obsEnv(t)

	measure := func(p *Pipeline) float64 {
		cfgs := make([]*disasm.CFG, len(corpus))
		salts := make([]int64, len(corpus))
		for i, s := range corpus {
			cfgs[i] = s.CFG
			salts[i] = int64(i)
		}
		vecs, err := p.Extractor.ExtractBatch(cfgs, salts)
		if err != nil {
			t.Fatal(err)
		}
		c := p.getChunk()
		c.shape(p, 0, len(vecs))
		for i, v := range vecs {
			c.place(i, v, nil)
		}
		out := make([]*Decision, len(vecs))
		errs := make([]error, len(vecs))
		p.scoreChunk(c, out, errs, nil) // warm scratch pools
		return testing.AllocsPerRun(50, func() { p.scoreChunk(c, out, errs, nil) })
	}

	plainAllocs := measure(plain)
	instAllocs := measure(inst)
	if instAllocs != plainAllocs {
		t.Fatalf("instrumented scoreChunk allocates %v/op, uninstrumented %v/op — instrumentation added allocations",
			instAllocs, plainAllocs)
	}
	// Sanity: the only allocations are the per-sample Decision values.
	if plainAllocs > float64(len(corpus)) {
		t.Fatalf("scoreChunk allocates %v/op over %d samples, want <= one Decision each", plainAllocs, len(corpus))
	}
}

// TestObsBatcherMetrics drives an instrumented batcher and checks the
// accounting invariants that hold regardless of how requests happen to
// coalesce: the batch size histogram sums to the request count, and
// every request's queue wait is observed.
func TestObsBatcherMetrics(t *testing.T) {
	inst, reg := obsEnv(t)
	raws := corpusRaws(t)
	b := NewBatcher(inst)

	size0s := reg.Histogram("batcher.batch_size", nil).Sum()
	wait0 := reg.Histogram("batcher.wait_ns", nil).Count()

	const requests = 10
	var wg sync.WaitGroup
	for g := 0; g < requests; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), raws[g%len(raws)], int64(g)); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	b.Close()

	sizeSum := reg.Histogram("batcher.batch_size", nil).Sum() - size0s
	waits := reg.Histogram("batcher.wait_ns", nil).Count() - wait0
	if sizeSum != requests {
		t.Fatalf("batch sizes sum to %v, want %d requests", sizeSum, requests)
	}
	if waits != requests {
		t.Fatalf("queue waits observed = %d, want %d", waits, requests)
	}
}

// TestObsBatcherBackpressure pins the backpressure signal admission
// control reads: batcher.rejected counts exactly the submissions
// turned away before the handoff, and none of the served ones. A
// submission turned away does no work: it adds no extraction.
func TestObsBatcherBackpressure(t *testing.T) {
	inst, reg := obsEnv(t)
	raws := corpusRaws(t)
	// With a cache attached, a cold key makes the submitter the flight's
	// leader, which must do its own admission check before any work.
	c := memCache(t)
	if err := inst.AttachCache(c); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := inst.AttachCache(nil); err != nil {
			t.Fatal(err)
		}
	}()
	b := NewBatcher(inst)
	rejected0 := reg.Counter("batcher.rejected").Value()
	extracts := reg.Histogram("pipeline.extract_ns", nil)
	// turnedAway requires one more rejection and no more extractions
	// than before submit ran.
	turnedAway := func(what string, submit func() error) {
		t.Helper()
		rej, ext := reg.Counter("batcher.rejected").Value(), extracts.Count()
		if err := submit(); err == nil {
			t.Fatalf("%s: Submit succeeded, want it turned away", what)
		}
		if got := reg.Counter("batcher.rejected").Value() - rej; got != 1 {
			t.Fatalf("%s: rejected += %d, want 1", what, got)
		}
		if got := extracts.Count() - ext; got != 0 {
			t.Fatalf("%s: %d extractions observed, want none", what, got)
		}
	}

	const requests = 8
	var wg sync.WaitGroup
	for g := 0; g < requests; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), raws[g%len(raws)], int64(g)); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if got := reg.Counter("batcher.rejected").Value() - rejected0; got != 0 {
		t.Fatalf("rejected = %d after successful submissions, want 0", got)
	}

	// A context cancelled before Submit, on a key no one has computed,
	// is turned away before parsing, and caches nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cached := c.Len()
	turnedAway("cancelled, cold key", func() error {
		_, err := b.Submit(ctx, raws[0], 1_000_001)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Submit = %v, want context.Canceled", err)
		}
		return err
	})
	if c.Len() != cached {
		t.Fatalf("a turned-away submission cached a verdict: %d entries, want %d", c.Len(), cached)
	}

	// Post-Close submissions are rejections.
	b.Close()
	turnedAway("after Close", func() error {
		_, err := b.Submit(context.Background(), raws[0], 1_000_003)
		if err != ErrBatcherClosed {
			t.Fatalf("Submit after Close = %v, want ErrBatcherClosed", err)
		}
		return err
	})

	// A cancelled context against the closed batcher is one rejection
	// too, whichever of the two checks sees it first.
	turnedAway("cancelled, after Close", func() error {
		_, err := b.Submit(ctx, raws[0], 1_000_002)
		return err
	})
}

// TestTrainFillsDefaultsWithCustomFeatures is the regression test for
// the defaulting bug: Train used to apply fillFrom only when
// opts.Features.TopK == 0, so a custom Features silently disabled the
// zero-value fills and trained with Alpha = 0 (every sample flagged
// adversarial), LR = 0, and so on.
func TestTrainFillsDefaultsWithCustomFeatures(t *testing.T) {
	_, corpus := batchEnv(t)
	opts := Options{}
	opts.Features = DefaultOptions().Features
	opts.Features.TopK = 32 // custom: defaulting must still fill the scalars
	opts.Features.WalkCount = 2
	opts.DetectorEpochs = 2
	opts.ClassifierEpochs = 2
	opts.Filters = 4
	opts.DenseUnits = 8
	opts.Seed = 7
	// Alpha, LR, BatchSize left zero on purpose.
	p, err := Train(corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultOptions()
	got := p.Options()
	if got.Alpha != def.Alpha {
		t.Fatalf("Alpha = %v, want default %v", got.Alpha, def.Alpha)
	}
	if got.LR != def.LR || got.BatchSize != def.BatchSize {
		t.Fatalf("LR/BatchSize = %v/%d, want defaults %v/%d", got.LR, got.BatchSize, def.LR, def.BatchSize)
	}
	if got.Features.TopK != 32 {
		t.Fatalf("custom Features.TopK = %d, want 32 preserved", got.Features.TopK)
	}
	if p.Detector.Alpha() != def.Alpha {
		t.Fatalf("detector Alpha = %v, want %v", p.Detector.Alpha(), def.Alpha)
	}
	mu, sigma := p.Detector.Calibration()
	if th := p.Detector.Threshold(); th <= mu && sigma > 0 {
		t.Fatalf("threshold %v <= mu %v: Alpha fill did not reach the detector", th, mu)
	}
}

// TestFillFromIsFieldWise pins fillFrom's shape: each zero scalar fills
// independently, set fields survive, and Features is replaced only
// wholesale when unset.
func TestFillFromIsFieldWise(t *testing.T) {
	def := DefaultOptions()
	opts := Options{DetectorEpochs: 3}
	opts.Features.TopK = 16
	got := fillFrom(opts, def)
	if got.DetectorEpochs != 3 {
		t.Fatalf("set field overwritten: DetectorEpochs = %d", got.DetectorEpochs)
	}
	if got.Features.TopK != 16 {
		t.Fatalf("custom Features replaced: TopK = %d", got.Features.TopK)
	}
	if got.Alpha != def.Alpha || got.LR != def.LR || got.ClassifierEpochs != def.ClassifierEpochs ||
		got.BatchSize != def.BatchSize || got.Filters != def.Filters ||
		got.DenseUnits != def.DenseUnits || got.Seed != def.Seed {
		t.Fatalf("zero scalars not filled: %+v", got)
	}
	empty := fillFrom(Options{}, def)
	if empty.Features.TopK != def.Features.TopK {
		t.Fatalf("unset Features not defaulted: TopK = %d", empty.Features.TopK)
	}
}

// TestBatcherScratchHoldsNoVectors is the regression test for the
// scratch pinning leak: after serving, the collector's reusable scratch
// must not retain the batch's requests — and through them their
// extracted vectors — or their decisions. The entries of the last
// batch used to stay live until the next serve, or forever after the
// final one.
func TestBatcherScratchHoldsNoVectors(t *testing.T) {
	p, _ := batchEnv(t)
	raws := corpusRaws(t)
	b := NewBatcher(p)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), raws[g%len(raws)], int64(g)); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	b.Close() // happens-before edge with the collector's last writes
	if cap(b.batch) == 0 {
		t.Fatal("the collector served no batch")
	}
	for i, r := range b.batch[:cap(b.batch)] {
		if r != nil {
			t.Fatalf("batch slot %d still holds a request after serve", i)
		}
	}
	for i, d := range b.out[:cap(b.out)] {
		if d != nil {
			t.Fatalf("decision slot %d still holds a decision after serve", i)
		}
	}
}
