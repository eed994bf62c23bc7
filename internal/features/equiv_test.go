package features

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"soteria/internal/disasm"
	"soteria/internal/labeling"
	"soteria/internal/ngram"
	"soteria/internal/walk"
)

// --- Reference implementation ---------------------------------------------
//
// refExtractor reproduces the seed (pre-packed-key) extraction pipeline
// verbatim: string-keyed gram maps, per-call labelings, freshly
// allocated walk traces. The optimized Extractor must produce
// bit-identical vectors for every (Seed, salt).

type refExtractor struct {
	cfg      Config
	dbl, lbl *ngram.Vectorizer
}

func (e *refExtractor) sampleGrams(c *disasm.CFG, salt int64) (dblWalks, lblWalks []map[string]int) {
	const mix = int64(-7046029254386353131)
	rng := rand.New(rand.NewSource(e.cfg.Seed*mix + salt + 1))
	entry := c.EntryNode()
	dblLabels := labeling.DensityBased(c.G, entry)
	lblLabels := labeling.LevelBased(c.G, entry)

	traceGrams := func(perm []int) []map[string]int {
		out := make([]map[string]int, e.cfg.WalkCount)
		steps := e.cfg.LengthFactor * c.G.NumNodes()
		for i := range out {
			tr := walk.Random(c.G, entry, perm, steps, rng)
			out[i] = ngram.Grams(tr, e.cfg.Ns)
		}
		return out
	}
	return traceGrams(dblLabels.Perm), traceGrams(lblLabels.Perm)
}

func (e *refExtractor) fit(cfgs []*disasm.CFG) {
	dblCorpus := make([]map[string]int, len(cfgs))
	lblCorpus := make([]map[string]int, len(cfgs))
	for i := range cfgs {
		dw, lw := e.sampleGrams(cfgs[i], int64(i))
		dblCorpus[i] = aggregate(dw)
		lblCorpus[i] = aggregate(lw)
	}
	e.dbl = ngram.Fit(dblCorpus, e.cfg.TopK)
	e.lbl = ngram.Fit(lblCorpus, e.cfg.TopK)
}

func (e *refExtractor) extract(c *disasm.CFG, salt int64) *Vectors {
	dw, lw := e.sampleGrams(c, salt)
	v := &Vectors{
		DBL: make([][]float64, len(dw)),
		LBL: make([][]float64, len(lw)),
	}
	for i, g := range dw {
		v.DBL[i] = e.dbl.Vector(g)
	}
	for i, g := range lw {
		v.LBL[i] = e.lbl.Vector(g)
	}
	dblAgg := e.dbl.Vector(aggregate(dw))
	lblAgg := e.lbl.Vector(aggregate(lw))
	v.Combined = make([]float64, 0, len(dblAgg)+len(lblAgg))
	v.Combined = append(v.Combined, dblAgg...)
	v.Combined = append(v.Combined, lblAgg...)
	return v
}

// --- Equivalence ----------------------------------------------------------

func TestPackedExtractionMatchesReference(t *testing.T) {
	cfgs := corpusCFGs(t, 3)
	cfg := smallConfig()
	ref := &refExtractor{cfg: cfg}
	ref.fit(cfgs)
	opt := NewExtractor(cfg)
	opt.Fit(cfgs)

	dRef, lRef := ref.dbl, ref.lbl
	dOpt, lOpt := opt.Vectorizers()
	if !reflect.DeepEqual(dRef.Vocab, dOpt.Vocab) || !reflect.DeepEqual(lRef.Vocab, lOpt.Vocab) {
		t.Fatal("fitted vocabularies differ from reference")
	}
	if !reflect.DeepEqual(dRef.IDF, dOpt.IDF) || !reflect.DeepEqual(lRef.IDF, lOpt.IDF) {
		t.Fatal("IDF weights differ from reference")
	}
	if !dOpt.PackedReady() || !lOpt.PackedReady() {
		t.Fatal("small CFG corpus should take the packed path")
	}

	for i, c := range cfgs {
		for _, salt := range []int64{0, 1, 17, 1 << 40} {
			want := ref.extract(c, salt)
			got, err := opt.Extract(c, salt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("sample %d salt %d: packed extraction differs from reference", i, salt)
			}
		}
	}
}

func TestStringFallbackMatchesReference(t *testing.T) {
	// An n-gram length above 4 forces the legacy string path; it must
	// still agree with the reference implementation.
	cfgs := corpusCFGs(t, 2)
	cfg := smallConfig()
	cfg.Ns = []int{2, 5}

	ref := &refExtractor{cfg: cfg}
	ref.fit(cfgs)
	opt := NewExtractor(cfg)
	opt.Fit(cfgs)

	d, l := opt.Vectorizers()
	if d.PackedReady() && l.PackedReady() {
		t.Fatal("5-gram config should not be fully packed-ready")
	}
	for i, c := range cfgs {
		want := ref.extract(c, 9)
		got, err := opt.Extract(c, 9)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("sample %d: fallback extraction differs from reference", i)
		}
	}
}

// --- Allocation regression guard ------------------------------------------

func TestExtractAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	cfgs := corpusCFGs(t, 2)
	cfg := smallConfig()
	e := NewExtractor(cfg)
	e.Fit(cfgs)
	// Every served request brings a freshly disassembled CFG, so the pin
	// cycles fresh copies of one: nothing keyed by CFG or graph pointer
	// can hit, just as when serving.
	const runs = 20
	fresh := make([]*disasm.CFG, runs+2) // one warm-up, AllocsPerRun's own warm-up, runs
	for i := range fresh {
		c := *cfgs[0]
		c.G = cfgs[0].G.Clone()
		fresh[i] = &c
	}
	if _, err := e.Extract(fresh[0], 1); err != nil { // warm pool and buckets
		t.Fatal(err)
	}
	next := 1
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := e.Extract(fresh[next], 2); err != nil {
			t.Fatal(err)
		}
		next++
	})
	// Labeling, walks, counting and the walk-aggregated vectors run in
	// pooled scratch, so steady state allocates only the output: the
	// Vectors struct, its two row holders (DBL, LBL), 2*WalkCount
	// per-walk rows and Combined — 2*WalkCount + 4, plus 2 of headroom
	// for runtime noise. Computing centrality with fresh per-call
	// buffers alone would cost thousands.
	budget := float64(2*cfg.WalkCount + 4 + 2)
	if allocs > budget {
		t.Fatalf("Extract allocates %.0f/op, budget %.0f", allocs, budget)
	}
}

// --- Concurrency ----------------------------------------------------------

func TestExtractBatchConcurrentAndDeterministic(t *testing.T) {
	cfgs := corpusCFGs(t, 3)
	e := NewExtractor(smallConfig())
	e.Fit(cfgs)
	salts := make([]int64, len(cfgs))
	for i := range salts {
		salts[i] = int64(i)
	}
	want, err := e.ExtractBatch(cfgs, salts)
	if err != nil {
		t.Fatal(err)
	}
	// Hammer the shared scratch pool, labeling workspaces included, from
	// many goroutines.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := e.ExtractBatch(cfgs, salts)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(want, got) {
				t.Error("concurrent ExtractBatch diverged")
			}
		}()
	}
	wg.Wait()
}
