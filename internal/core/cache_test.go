package core

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"soteria/internal/disasm"
	"soteria/internal/malgen"
	"soteria/internal/obs"
	"soteria/internal/store"
)

// The cache tests share one small trained pipeline (training dominates
// the test time; the cache behaviours under test are all post-training).
var (
	cacheTestOnce sync.Once
	cacheTestPipe *Pipeline
	cacheTestReg  *obs.Registry
	cacheTestRaws [][]byte
	cacheTestErr  error
)

func cachePipeline(t *testing.T) (*Pipeline, *obs.Registry, [][]byte) {
	t.Helper()
	if testing.Short() {
		t.Skip("full pipeline training")
	}
	cacheTestOnce.Do(func() {
		g := malgen.NewGenerator(malgen.Config{Seed: 7})
		var samples []*malgen.Sample
		for _, c := range malgen.Classes {
			for i := 0; i < 6; i++ {
				s, err := g.Sample(c)
				if err != nil {
					cacheTestErr = err
					return
				}
				samples = append(samples, s)
			}
		}
		opts := testOptions()
		opts.DetectorEpochs = 10
		opts.ClassifierEpochs = 5
		cacheTestPipe, cacheTestErr = Train(samples, opts)
		if cacheTestErr != nil {
			return
		}
		cacheTestReg = obs.NewRegistry()
		cacheTestPipe.Instrument(cacheTestReg)
		for _, s := range samples {
			raw, err := s.Binary.Encode()
			if err != nil {
				cacheTestErr = err
				return
			}
			cacheTestRaws = append(cacheTestRaws, raw)
		}
	})
	if cacheTestErr != nil {
		t.Fatal(cacheTestErr)
	}
	return cacheTestPipe, cacheTestReg, cacheTestRaws
}

func memCache(t *testing.T) *store.Cache {
	t.Helper()
	c, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	})
	return c
}

func sameDecision(a, b *Decision) bool {
	return a.Adversarial == b.Adversarial && a.RE == b.RE && a.Class == b.Class
}

// TestCachedDecisionEquivalence pins the acceptance property: for the
// same (content, salt, model), the uncached path, the cache-miss path
// and the verdict-hit path all produce bit-identical decisions.
func TestCachedDecisionEquivalence(t *testing.T) {
	p, _, raws := cachePipeline(t)
	raw := raws[0]
	const salt = 42

	baseline, err := p.AnalyzeBinary(raw, salt) // uncached
	if err != nil {
		t.Fatal(err)
	}

	c := memCache(t)
	if err := p.AttachCache(c); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := p.AttachCache(nil); err != nil {
			t.Fatal(err)
		}
	}()

	miss, err := p.AnalyzeBinary(raw, salt) // miss, stores the verdict
	if err != nil {
		t.Fatal(err)
	}
	if !sameDecision(baseline, miss) {
		t.Fatalf("miss path differs: %+v vs %+v", miss, baseline)
	}
	if c.Len() != 1 {
		t.Fatalf("miss filled %d entries, want one verdict", c.Len())
	}
	hit, err := p.AnalyzeBinary(raw, salt) // verdict hit
	if err != nil {
		t.Fatal(err)
	}
	if !sameDecision(baseline, hit) {
		t.Fatalf("verdict-hit path differs: %+v vs %+v", hit, baseline)
	}

	// Different salt must not be served from the cache.
	other, err := p.AnalyzeBinary(raw, salt+1)
	if err != nil {
		t.Fatal(err)
	}
	otherBase, err := p.Analyze(mustCFG(t, p, raw), salt+1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDecision(other, otherBase) {
		t.Fatalf("salt+1 decision differs from uncached: %+v vs %+v", other, otherBase)
	}
}

func mustCFG(t *testing.T, p *Pipeline, raw []byte) *disasm.CFG {
	t.Helper()
	cfgs, err := p.disassembleAll([][]byte{raw}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cfgs[0]
}

// TestFingerprintInvalidatesAcrossModels shares one cache between two
// different models: their keys must be disjoint, so neither can serve
// the other's verdicts.
func TestFingerprintInvalidatesAcrossModels(t *testing.T) {
	p1, _, raws := cachePipeline(t)
	raw := raws[0]
	const salt = 7

	// A second, different model (different seed => different weights).
	g := malgen.NewGenerator(malgen.Config{Seed: 8})
	var samples []*malgen.Sample
	for _, cl := range malgen.Classes {
		for i := 0; i < 4; i++ {
			s, err := g.Sample(cl)
			if err != nil {
				t.Fatal(err)
			}
			samples = append(samples, s)
		}
	}
	opts := testOptions()
	opts.Seed = 99
	opts.DetectorEpochs = 5
	opts.ClassifierEpochs = 3
	p2, err := Train(samples, opts)
	if err != nil {
		t.Fatal(err)
	}

	fp1, err := p1.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := p2.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 == fp2 {
		t.Fatal("different models share a fingerprint")
	}

	base2, err := p2.AnalyzeBinary(raw, salt)
	if err != nil {
		t.Fatal(err)
	}

	shared := memCache(t)
	if err := p1.AttachCache(shared); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := p1.AttachCache(nil); err != nil {
			t.Fatal(err)
		}
	}()
	if err := p2.AttachCache(shared); err != nil {
		t.Fatal(err)
	}

	if _, err := p1.AnalyzeBinary(raw, salt); err != nil { // p1 fills the cache
		t.Fatal(err)
	}
	if p1.byteKey(raw, salt) == p2.byteKey(raw, salt) {
		t.Fatal("two models produced the same cache key")
	}
	if _, ok := shared.Verdict(p2.byteKey(raw, salt)); ok {
		t.Fatal("p1's fill is visible under p2's key")
	}
	got, err := p2.AnalyzeBinary(raw, salt) // must be p2's own (fresh) result
	if err != nil {
		t.Fatal(err)
	}
	if !sameDecision(got, base2) {
		t.Fatalf("p2 under shared cache = %+v, want its own %+v", got, base2)
	}
}

// TestSaveLoadFingerprintStable pins the restart story: a loaded model
// fingerprints identically to the one that was saved, so a persistent
// cache stays hot across process restarts.
func TestSaveLoadFingerprintStable(t *testing.T) {
	p, _, _ := cachePipeline(t)
	fp1, err := p.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := p2.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatal("fingerprint changed across Save/Load")
	}
}

// TestAnalyzeBinaryBatchPartition mixes verdict hits and misses in one
// batch and checks every decision matches the uncached baseline, and
// that a fully warm re-run does no scoring work.
func TestAnalyzeBinaryBatchPartition(t *testing.T) {
	p, reg, raws := cachePipeline(t)
	n := len(raws)
	salts := make([]int64, n)
	for i := range salts {
		salts[i] = int64(100 + i)
	}
	baseline, err := p.AnalyzeBinaryBatch(raws, salts) // uncached
	if err != nil {
		t.Fatal(err)
	}

	c := memCache(t)
	if err := p.AttachCache(c); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := p.AttachCache(nil); err != nil {
			t.Fatal(err)
		}
	}()

	// Pre-warm a third of the keys so the batch sees hits and misses.
	for i := 0; i < n; i += 3 {
		if _, err := p.AnalyzeBinary(raws[i], salts[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := p.AnalyzeBinaryBatch(raws, salts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !sameDecision(got[i], baseline[i]) {
			t.Fatalf("sample %d: cached batch %+v != baseline %+v", i, got[i], baseline[i])
		}
	}

	// Fully warm: the whole batch must serve from the verdict tier
	// without scoring a single sample.
	before := samplesCount(reg)
	again, err := p.AnalyzeBinaryBatch(raws, salts)
	if err != nil {
		t.Fatal(err)
	}
	if after := samplesCount(reg); after != before {
		t.Fatalf("warm batch scored %d samples, want 0", after-before)
	}
	for i := range again {
		if !sameDecision(again[i], baseline[i]) {
			t.Fatalf("sample %d: warm batch %+v != baseline %+v", i, again[i], baseline[i])
		}
	}
}

// TestCacheCountsOneMissPerMiss pins the cache counters on each entry
// path: a fresh sample is one cache.miss and leaves one entry, and its
// repeat is one cache.hit.
func TestCacheCountsOneMissPerMiss(t *testing.T) {
	p, _, raws := cachePipeline(t)
	raw := raws[3]
	const salt = 5
	b := NewBatcher(p)
	defer b.Close()
	paths := []struct {
		name    string
		analyze func() error
	}{
		{"AnalyzeBinary", func() error {
			_, err := p.AnalyzeBinary(raw, salt)
			return err
		}},
		{"AnalyzeBinaryBatch", func() error {
			_, err := p.AnalyzeBinaryBatch([][]byte{raw}, []int64{salt})
			return err
		}},
		{"Batcher", func() error {
			_, err := b.Submit(context.Background(), raw, salt)
			return err
		}},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			c, err := store.Open(store.Config{Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
			}()
			if err := p.AttachCache(c); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := p.AttachCache(nil); err != nil {
					t.Fatal(err)
				}
			}()
			check := func(when string, hits, misses uint64) {
				t.Helper()
				if got := reg.Counter("cache.hit").Value(); got != hits {
					t.Errorf("%s: cache.hit = %d, want %d", when, got, hits)
				}
				if got := reg.Counter("cache.miss").Value(); got != misses {
					t.Errorf("%s: cache.miss = %d, want %d", when, got, misses)
				}
				if c.Len() != 1 {
					t.Errorf("%s: Len = %d, want 1", when, c.Len())
				}
			}
			if err := path.analyze(); err != nil {
				t.Fatal(err)
			}
			check("fresh sample", 0, 1)
			if err := path.analyze(); err != nil {
				t.Fatal(err)
			}
			check("repeat", 1, 1)
		})
	}
}

func samplesCount(reg *obs.Registry) uint64 {
	v, _ := reg.Snapshot()["pipeline.samples"].(uint64)
	return v
}

// CacheTestEnv exposes the shared cache-test pipeline and its encoded
// corpus to the package's external tests.
func CacheTestEnv(t *testing.T) (*Pipeline, [][]byte) {
	t.Helper()
	p, _, raws := cachePipeline(t)
	return p, raws
}

// TestBatcherSingleflight submits the same (bytes, salt) from many
// goroutines through a cold cache: exactly one submission may do the
// extraction and scoring work; everyone must get the identical
// decision.
func TestBatcherSingleflight(t *testing.T) {
	p, reg, raws := cachePipeline(t)
	raw := raws[1]
	cfg := mustCFG(t, p, raw)
	const salt = 4242

	baseline, err := p.Analyze(cfg, salt)
	if err != nil {
		t.Fatal(err)
	}

	c := memCache(t)
	if err := p.AttachCache(c); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := p.AttachCache(nil); err != nil {
			t.Fatal(err)
		}
	}()
	b := NewBatcher(p)
	defer b.Close()

	before := samplesCount(reg)
	extracted := reg.Histogram("pipeline.extract_ns", nil).Count()
	const n = 16
	var wg sync.WaitGroup
	decs := make([]*Decision, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			decs[i], errs[i] = b.Submit(context.Background(), raw, salt)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submitter %d: %v", i, errs[i])
		}
		if !sameDecision(decs[i], baseline) {
			t.Fatalf("submitter %d: %+v != baseline %+v", i, decs[i], baseline)
		}
	}
	if scored := samplesCount(reg) - before; scored != 1 {
		t.Fatalf("%d samples scored for %d identical submissions, want 1", scored, n)
	}
	if got := reg.Histogram("pipeline.extract_ns", nil).Count() - extracted; got != 1 {
		t.Fatalf("%d extractions for %d identical submissions, want 1", got, n)
	}

	// Warm resubmission is a pure hit: still no extra scoring.
	d, err := b.Submit(context.Background(), raw, salt)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDecision(d, baseline) {
		t.Fatalf("warm submit %+v != baseline %+v", d, baseline)
	}
	if scored := samplesCount(reg) - before; scored != 1 {
		t.Fatalf("warm submit scored again (%d total)", scored)
	}

	// A different salt is different work.
	if _, err := b.Submit(context.Background(), raw, salt+1); err != nil {
		t.Fatal(err)
	}
	if scored := samplesCount(reg) - before; scored != 2 {
		t.Fatalf("new salt scored %d samples total, want 2", scored)
	}
}
