// Package features composes the full Soteria feature-extraction pipeline
// (paper Fig. 3): disassembled CFG -> density- and level-based labelings
// -> ten random walks per labeling -> n-gram counting -> top-500 TF-IDF
// vectors per labeling.
//
// Every sample yields 20 per-walk vectors (ten 1x500 DBL vectors and ten
// 1x500 LBL vectors) consumed by the CNN classifier's majority vote, and
// one combined 1x1000 vector (walk-aggregated DBL ++ LBL) consumed by
// the autoencoder detector.
//
// The hot path allocates little beyond its output and builds no gram
// map: each walk is counted straight into the vocabulary's slots
// (ngram.Vectorizer.CountSlots), with the TF denominator in closed
// form, and the labeling workspace, walk traces and slot counts live in
// per-worker scratch recycled through a sync.Pool. Slot counting serves
// every CFG size. Only a vocabulary that cannot pack (a gram longer
// than ngram.MaxPackedN) takes the legacy string-keyed path, which
// produces bit-identical vectors. Fitting still counts every gram on
// packed keys (ngram.GramCounter), because document frequency needs
// them all.
package features

import (
	"errors"
	"math/rand"
	"sync"

	"soteria/internal/disasm"
	"soteria/internal/labeling"
	"soteria/internal/ngram"
	"soteria/internal/par"
	"soteria/internal/walk"
)

// Config parameterizes extraction. The zero value is not valid; start
// from DefaultConfig.
type Config struct {
	// WalkCount is the number of random walks per labeling (paper: 10).
	WalkCount int `json:"walkCount"`
	// LengthFactor scales walk length: steps = LengthFactor * |V|
	// (paper: 5).
	LengthFactor int `json:"lengthFactor"`
	// Ns are the n-gram lengths (paper: 2, 3, 4).
	Ns []int `json:"ns"`
	// TopK is the vocabulary size per labeling (paper: 500). The
	// combined detector vector has dimension 2*TopK.
	TopK int `json:"topK"`
	// Seed drives walk randomness. Extraction for a given (Seed, salt)
	// pair is deterministic; re-seeding re-randomizes the feature space,
	// which is Soteria's defense-by-randomization property.
	Seed int64 `json:"seed"`
	// RawMagnitude disables the per-labeling L2 normalization of
	// feature vectors. Normalized (pattern-only) vectors are the
	// default: they are what separates GEA merges from clean samples,
	// since a merged graph's in-vocabulary gram *distribution* shifts
	// while its overall mass stays plausible.
	RawMagnitude bool `json:"rawMagnitude"`
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		WalkCount:    walk.DefaultCount,
		LengthFactor: walk.DefaultLengthFactor,
		Ns:           append([]int(nil), ngram.DefaultNs...),
		TopK:         ngram.DefaultTopK,
		Seed:         1,
	}
}

// Vectors holds every feature representation of one sample.
type Vectors struct {
	// DBL and LBL hold WalkCount per-walk TF-IDF vectors of length TopK.
	DBL [][]float64
	LBL [][]float64
	// Combined is the walk-aggregated detector vector: DBL features
	// followed by LBL features, length 2*TopK.
	Combined []float64
}

// scratch is one worker's reusable extraction state. Everything here is
// capacity that survives between samples: the seeded RNG, the labeling
// workspace, the walker's adjacency arena, the walk-trace buffer, and
// the slot counts.
type scratch struct {
	rng    *rand.Rand
	labels labeling.Workspace
	walker walk.Walker
	trace  []int
	// walkSlots and aggSlots count one walk's and all walks' grams by
	// vocabulary slot (see ngram.Vectorizer.CountSlots).
	walkSlots []int
	aggSlots  []int
	// aggDBL and aggLBL hold the walk-aggregated TF-IDF vectors between
	// the per-labeling sweep and fillCombined, reused across samples.
	aggDBL []float64
	aggLBL []float64
}

// Extractor extracts features after being fitted on a training corpus.
// It is safe for concurrent Extract calls.
type Extractor struct {
	cfg Config
	dbl *ngram.Vectorizer
	lbl *ngram.Vectorizer

	pool sync.Pool // *scratch
}

// ErrNotFitted is returned by Extract before Fit has been called.
var ErrNotFitted = errors.New("features: extractor not fitted")

// NewExtractor returns an unfitted extractor.
func NewExtractor(cfg Config) *Extractor {
	if cfg.WalkCount <= 0 {
		cfg.WalkCount = walk.DefaultCount
	}
	if cfg.LengthFactor <= 0 {
		cfg.LengthFactor = walk.DefaultLengthFactor
	}
	if len(cfg.Ns) == 0 {
		cfg.Ns = append([]int(nil), ngram.DefaultNs...)
	}
	if cfg.TopK <= 0 {
		cfg.TopK = ngram.DefaultTopK
	}
	e := &Extractor{cfg: cfg}
	e.pool.New = func() any {
		return &scratch{rng: rand.New(rand.NewSource(1))}
	}
	return e
}

// Config returns the extractor's effective configuration.
func (e *Extractor) Config() Config { return e.cfg }

// Dim returns the combined detector vector length (2*TopK).
func (e *Extractor) Dim() int { return 2 * e.cfg.TopK }

// WalkDim returns the per-walk vector length (TopK).
func (e *Extractor) WalkDim() int { return e.cfg.TopK }

// Fitted reports whether Fit has been called.
func (e *Extractor) Fitted() bool { return e.dbl != nil && e.lbl != nil }

// walkSeed derives the walk RNG seed for a sample. salt distinguishes
// samples; extraction is deterministic per (Seed, salt).
func (e *Extractor) walkSeed(salt int64) int64 {
	const mix = int64(-7046029254386353131) // 0x9E3779B97F4A7C15 as int64
	return e.cfg.Seed*mix + salt + 1
}

// rngFor derives the walk RNG for a sample.
func (e *Extractor) rngFor(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(e.walkSeed(salt)))
}

// packed reports whether every gram of the sample fits a packed key, so
// that fitting can count it on a GramCounter.
func (e *Extractor) packed(c *disasm.CFG) bool {
	return ngram.Packable(c.G.NumNodes()-1, e.cfg.Ns)
}

func (e *Extractor) getScratch() *scratch { return e.pool.Get().(*scratch) }
func (e *Extractor) putScratch(s *scratch) {
	e.pool.Put(s)
}

// fitGrams runs labeling + walks + packed n-gram counting for one
// sample at fit time, returning the walk-aggregated counters for each
// labeling (retained by the caller, so they are freshly allocated).
func (e *Extractor) fitGrams(c *disasm.CFG, salt int64) (dblAgg, lblAgg *ngram.GramCounter) {
	sc := e.getScratch()
	defer e.putScratch(sc)
	sc.rng.Seed(e.walkSeed(salt))
	entry := c.EntryNode()
	dbl, lbl := sc.labels.Both(c.G, entry)
	sc.walker.Reset(c.G)
	steps := e.cfg.LengthFactor * c.G.NumNodes()

	count := func(perm []int) *ngram.GramCounter {
		agg := ngram.NewGramCounter()
		for w := 0; w < e.cfg.WalkCount; w++ {
			sc.trace = sc.walker.RandomInto(sc.trace, entry, perm, steps, sc.rng)
			agg.AddTrace(sc.trace, e.cfg.Ns)
		}
		return agg
	}
	// DBL walks first, then LBL, sharing one RNG stream — the same
	// consumption order as extraction, so fit and extract see the same
	// walks for a given (Seed, salt).
	return count(dbl.Perm), count(lbl.Perm)
}

// sampleGrams is the legacy string-keyed stage, kept for fitting a
// corpus that cannot pack and for serving a vocabulary that cannot:
// labeling + walks + n-gram counting, returning per-walk gram counts
// for each labeling.
func (e *Extractor) sampleGrams(c *disasm.CFG, salt int64) (dblWalks, lblWalks []map[string]int) {
	rng := e.rngFor(salt)
	entry := c.EntryNode()
	dbl, lbl := labeling.Both(c.G, entry)

	traceGrams := func(perm []int) []map[string]int {
		traces := walk.Walks(c.G, entry, perm, e.cfg.WalkCount, e.cfg.LengthFactor, rng)
		out := make([]map[string]int, len(traces))
		for i, tr := range traces {
			out[i] = ngram.Grams(tr, e.cfg.Ns)
		}
		return out
	}
	return traceGrams(dbl.Perm), traceGrams(lbl.Perm)
}

// aggregate sums per-walk gram counts into one map.
func aggregate(walks []map[string]int) map[string]int {
	out := make(map[string]int)
	for _, w := range walks {
		for g, c := range w {
			out[g] += c
		}
	}
	return out
}

// Fit builds the DBL and LBL vocabularies from a training corpus. The
// i-th CFG uses salt i, so fitting is deterministic. Per-sample gram
// extraction runs in parallel; the result is independent of worker
// scheduling. Vocabulary selection is identical on the packed and
// string paths (top-k by document frequency, ties by total frequency,
// then by the string form of the gram).
func (e *Extractor) Fit(cfgs []*disasm.CFG) {
	allPacked := true
	for _, c := range cfgs {
		if !e.packed(c) {
			allPacked = false
			break
		}
	}
	if allPacked {
		dblCorpus := make([]*ngram.GramCounter, len(cfgs))
		lblCorpus := make([]*ngram.GramCounter, len(cfgs))
		par.For(len(cfgs), func(i int) {
			dblCorpus[i], lblCorpus[i] = e.fitGrams(cfgs[i], int64(i))
		})
		e.dbl = ngram.FitPacked(dblCorpus, e.cfg.TopK)
		e.lbl = ngram.FitPacked(lblCorpus, e.cfg.TopK)
	} else {
		dblCorpus := make([]map[string]int, len(cfgs))
		lblCorpus := make([]map[string]int, len(cfgs))
		par.For(len(cfgs), func(i int) {
			dw, lw := e.sampleGrams(cfgs[i], int64(i))
			dblCorpus[i] = aggregate(dw)
			lblCorpus[i] = aggregate(lw)
		})
		e.dbl = ngram.Fit(dblCorpus, e.cfg.TopK)
		e.lbl = ngram.Fit(lblCorpus, e.cfg.TopK)
	}
	e.dbl.L2 = !e.cfg.RawMagnitude
	e.lbl.L2 = !e.cfg.RawMagnitude
}

// FitVectorizers injects pre-built vocabularies (used when loading a
// persisted model).
func (e *Extractor) FitVectorizers(dbl, lbl *ngram.Vectorizer) {
	e.dbl, e.lbl = dbl, lbl
}

// Vectorizers exposes the fitted vocabularies.
func (e *Extractor) Vectorizers() (dbl, lbl *ngram.Vectorizer) { return e.dbl, e.lbl }

// Extract computes every feature representation of one sample.
func (e *Extractor) Extract(c *disasm.CFG, salt int64) (*Vectors, error) {
	return e.ExtractInto(nil, c, salt)
}

// ExtractInto is Extract with caller-provided storage: v's slices are
// reused when their capacity suffices (contents are overwritten), so a
// steady extraction stream — e.g. the analyze pipeline's chunk filler —
// allocates nothing per sample on the packed path. A nil v allocates a
// fresh set. Output is bit-identical to Extract.
func (e *Extractor) ExtractInto(v *Vectors, c *disasm.CFG, salt int64) (*Vectors, error) {
	if !e.Fitted() {
		return nil, ErrNotFitted
	}
	if v == nil {
		v = new(Vectors)
	}
	if e.dbl.PackedReady() && e.lbl.PackedReady() {
		return e.extractPacked(v, c, salt), nil
	}
	return e.extractStrings(v, c, salt), nil
}

// extractPacked is the allocation-lean hot path: labeling runs in the
// pooled workspace, walks append into a pooled trace buffer, and each
// walk is counted once, straight into the vocabulary's slots, which
// returns the walk's gram total in closed form. The sample's aggregate
// is the slot-wise sum of its walks' counts over their summed totals.
// Labels above ngram.MaxPackedLabel (CFGs past 2^15 nodes) need no
// other path: grams holding one cannot be in a packed vocabulary and
// only add to the total. Aggregates land in pooled scratch, and the
// output vectors reuse v's storage.
func (e *Extractor) extractPacked(v *Vectors, c *disasm.CFG, salt int64) *Vectors {
	sc := e.getScratch()
	defer e.putScratch(sc)
	sc.rng.Seed(e.walkSeed(salt))
	entry := c.EntryNode()
	dbl, lbl := sc.labels.Both(c.G, entry)
	sc.walker.Reset(c.G)
	steps := e.cfg.LengthFactor * c.G.NumNodes()

	wc := e.cfg.WalkCount
	v.DBL = ensureRows(v.DBL, wc)
	v.LBL = ensureRows(v.LBL, wc)
	runLabeling := func(vec *ngram.Vectorizer, perm []int, out [][]float64, agg []float64) []float64 {
		sc.walkSlots = zeroedInts(sc.walkSlots, len(vec.Vocab))
		sc.aggSlots = zeroedInts(sc.aggSlots, len(vec.Vocab))
		aggTotal := 0
		for w := 0; w < wc; w++ {
			sc.trace = sc.walker.RandomInto(sc.trace, entry, perm, steps, sc.rng)
			total := vec.CountSlots(sc.walkSlots, sc.trace, e.cfg.Ns)
			out[w] = vec.VectorSlotsInto(out[w], sc.walkSlots, total)
			for s, n := range sc.walkSlots {
				sc.aggSlots[s] += n
				sc.walkSlots[s] = 0
			}
			aggTotal += total
		}
		return vec.VectorSlotsInto(agg, sc.aggSlots, aggTotal)
	}
	sc.aggDBL = runLabeling(e.dbl, dbl.Perm, v.DBL, sc.aggDBL)
	sc.aggLBL = runLabeling(e.lbl, lbl.Perm, v.LBL, sc.aggLBL)
	fillCombined(v, sc.aggDBL, sc.aggLBL)
	return v
}

// extractStrings is the legacy string-keyed path, used only when a
// vocabulary cannot pack. Output is bit-identical to extractPacked;
// the per-walk vectors are freshly allocated (Vector has no reuse
// form), only the combined storage is recycled.
func (e *Extractor) extractStrings(v *Vectors, c *disasm.CFG, salt int64) *Vectors {
	dw, lw := e.sampleGrams(c, salt)
	v.DBL = ensureRows(v.DBL, len(dw))
	v.LBL = ensureRows(v.LBL, len(lw))
	for i, g := range dw {
		v.DBL[i] = e.dbl.Vector(g)
	}
	for i, g := range lw {
		v.LBL[i] = e.lbl.Vector(g)
	}
	fillCombined(v, e.dbl.Vector(aggregate(dw)), e.lbl.Vector(aggregate(lw)))
	return v
}

// fillCombined writes the two aggregate vectors into Combined, reusing
// its storage.
func fillCombined(v *Vectors, dblAgg, lblAgg []float64) {
	v.Combined = append(ensureVec(v.Combined, len(dblAgg)+len(lblAgg)), dblAgg...)
	v.Combined = append(v.Combined, lblAgg...)
}

// ensureRows resizes a slice of rows to n entries, keeping surviving
// rows' backing storage for reuse.
func ensureRows(s [][]float64, n int) [][]float64 {
	if cap(s) < n {
		ns := make([][]float64, n)
		copy(ns, s)
		return ns
	}
	return s[:n]
}

// zeroedInts returns s resized to n and zeroed, reusing its storage
// when the capacity suffices.
func zeroedInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// ensureVec returns s emptied, with capacity for at least n elements.
func ensureVec(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, 0, n)
	}
	return s[:0]
}

// ExtractBatch extracts features for many samples in parallel (the
// pipeline stages are pure, so results equal sequential extraction).
// salts[i] seeds sample i's walks.
func (e *Extractor) ExtractBatch(cfgs []*disasm.CFG, salts []int64) ([]*Vectors, error) {
	if !e.Fitted() {
		return nil, ErrNotFitted
	}
	if len(cfgs) != len(salts) {
		return nil, errors.New("features: cfgs and salts length mismatch")
	}
	out := make([]*Vectors, len(cfgs))
	errs := make([]error, len(cfgs))
	par.For(len(cfgs), func(i int) {
		out[i], errs[i] = e.Extract(cfgs[i], salts[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
