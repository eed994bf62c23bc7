package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"soteria"
	"soteria/internal/core"
	"soteria/internal/disasm"
	"soteria/internal/features"
	"soteria/internal/isa"
	"soteria/internal/labeling"
	"soteria/internal/ngram"
	"soteria/internal/nn"
	"soteria/internal/store"
	"soteria/internal/walk"
)

// replay is one traced run: the model under test, the inputs replayed,
// and what the replay has measured so far.
type replay struct {
	p      *core.Pipeline
	fc     features.Config
	dv, lv *ngram.Vectorizer
	inputs []*input
	tr     *tracer

	// ExtractInto's output per input, as the rows scoring consumes.
	detX, dblX, lblX *nn.Matrix
	// Work counts per input.
	nodes, edges, steps, grams []float64
	// differs counts inputs whose decomposed replay did not reproduce
	// ExtractInto's vectors.
	differs int
}

// runTrace replays the run's distinct inputs in-process, one call at a
// time, with a span around each layer's public entry point, fills
// r.layer with the per-layer metrics, and writes the spans and the
// reconciliation to the trace file.
func runTrace(cfg config, r *report) error {
	sys, err := loadReference(cfg.model)
	if err != nil {
		return err
	}
	p := sys.Pipeline()
	if p.Options().PerWalkDetector {
		return fmt.Errorf("trace: per-walk detector models are not supported")
	}
	rp := &replay{p: p, fc: p.Extractor.Config(), inputs: r.inputs, tr: newTracer()}
	if rp.dv, rp.lv = p.Extractor.Vectorizers(); !rp.dv.PackedReady() || !rp.lv.PackedReady() {
		return fmt.Errorf("trace: model vocabularies have no packed index")
	}
	if len(rp.inputs) > traceMaxSamples {
		rp.inputs = rp.inputs[:traceMaxSamples]
	}
	n, wc := len(rp.inputs), rp.fc.WalkCount
	rp.detX = nn.NewMatrix(n, p.Extractor.Dim())
	rp.dblX = nn.NewMatrix(n*wc, p.Extractor.WalkDim())
	rp.lblX = nn.NewMatrix(n*wc, p.Extractor.WalkDim())
	rp.nodes, rp.edges, rp.steps, rp.grams = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)

	if err := rp.extract(); err != nil {
		return err
	}
	if err := rp.decompose(); err != nil {
		return err
	}
	serveBatch := runtime.NumCPU()
	if b, ok := r.serving["core.batcher.batch_size"]; ok {
		serveBatch = max(1, int(math.Round(b)))
	}
	rp.score(serveBatch)
	if err := rp.join(); err != nil {
		return err
	}
	recon := rp.aggregate(r, serveBatch, !cfg.w.serve)
	if cfg.w.serve {
		ratio, err := overlapRatio(sys, rp.inputs)
		if err != nil {
			return err
		}
		r.layer["par.overlap_ratio"] = ratio
	}
	r.notes = append(r.notes, recon...)
	r.note("trace: %d samples replayed, serve batch %d, %d spans", n, serveBatch, len(rp.tr.spans))
	return rp.write(cfg, r, serveBatch, recon)
}

// extract is pass 1: the calls a scan makes per sample, each timed with
// its CPU. ExtractInto memoizes labelings by CFG pointer, so it runs
// exactly once on each freshly disassembled CFG.
func (rp *replay) extract() error {
	tr, wc := rp.tr, rp.fc.WalkCount
	var v *features.Vectors
	runtime.GC()
	for i, in := range rp.inputs {
		root := tr.begin("request", i)
		s := tr.beginCPU("isa.decode", i)
		bin, err := isa.DecodeBinary(in.raw)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("trace: input %d: %w", i, err)
		}
		s = tr.beginCPU("disasm.disassemble", i)
		g, err := disasm.Disassemble(bin)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("trace: input %d: %w", i, err)
		}
		s = tr.beginCPU("features.extract", i)
		v, err = rp.p.Extractor.ExtractInto(v, g, in.salt)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("trace: input %d: %w", i, err)
		}
		tr.end(root)
		copy(rp.detX.Row(i), v.Combined)
		for w := 0; w < wc; w++ {
			copy(rp.dblX.Row(i*wc+w), v.DBL[w])
			copy(rp.lblX.Row(i*wc+w), v.LBL[w])
		}
		rp.nodes[i], rp.edges[i] = float64(g.G.NumNodes()), float64(g.G.NumEdges())
	}
	return nil
}

// decompose is pass 2: the same extractions one stage at a time, on
// CFGs disassembled again outside any span. It is a separate pass so
// the garbage it makes is collected during its own spans, not pass 1's.
func (rp *replay) decompose() error {
	wc := rp.fc.WalkCount
	sc := &replayScratch{rng: rand.New(rand.NewSource(1)), walk: ngram.NewGramCounter(), agg: ngram.NewGramCounter()}
	runtime.GC()
	for i, in := range rp.inputs {
		bin, err := isa.DecodeBinary(in.raw)
		if err != nil {
			return fmt.Errorf("trace: input %d: %w", i, err)
		}
		g, err := disasm.Disassemble(bin)
		if err != nil {
			return fmt.Errorf("trace: input %d: %w", i, err)
		}
		if !ngram.Packable(g.G.NumNodes()-1, rp.fc.Ns) {
			continue
		}
		s := rp.tr.begin("features.replay", i)
		rp.steps[i], rp.grams[i] = sc.extract(rp.tr, i, rp.fc, rp.dv, rp.lv, g, in.salt)
		rp.tr.end(s)
		combined := append(append([]float64(nil), sc.aggD...), sc.aggL...)
		if !sameRows(sc.dbl, rows(rp.dblX, i*wc, wc)) || !sameRows(sc.lbl, rows(rp.lblX, i*wc, wc)) ||
			!sameRows([][]float64{combined}, rows(rp.detX, i, 1)) {
			rp.differs++
		}
	}
	return nil
}

// replayScratch is the decomposed extraction's reusable state, the same
// set features.Extractor keeps per worker.
type replayScratch struct {
	rng        *rand.Rand
	walker     walk.Walker
	trace      []int
	walk, agg  *ngram.GramCounter
	dbl, lbl   [][]float64
	aggD, aggL []float64
}

// walkSeed is features.Extractor's per-sample walk seed.
func walkSeed(seed, salt int64) int64 {
	const mix = int64(-7046029254386353131) // 0x9E3779B97F4A7C15 as int64
	return seed*mix + salt + 1
}

// extract performs features.Extractor's packed extraction one public
// call at a time — labeling.Both, Walker.RandomInto,
// GramCounter.AddTrace/Merge, Vectorizer.VectorPackedInto — with a span
// around each call, leaving the per-walk and aggregate vectors in sc.
// It returns the walk steps taken and the n-grams counted.
func (sc *replayScratch) extract(tr *tracer, req int, fc features.Config, dv, lv *ngram.Vectorizer, g *disasm.CFG, salt int64) (steps, grams float64) {
	sc.rng.Seed(walkSeed(fc.Seed, salt))
	s := tr.begin("labeling.both", req)
	dl, ll := labeling.Both(g.G, g.EntryNode())
	tr.end(s)
	s = tr.begin("walk.reset", req)
	sc.walker.Reset(g.G)
	tr.end(s)
	entry, length := g.EntryNode(), fc.LengthFactor*g.G.NumNodes()
	sweep := func(vec *ngram.Vectorizer, perm []int, out [][]float64, agg []float64) ([][]float64, []float64) {
		if len(out) != fc.WalkCount {
			out = make([][]float64, fc.WalkCount)
		}
		s := tr.begin("ngram.reset", req)
		sc.agg.Reset()
		tr.end(s)
		for w := range out {
			s = tr.begin("walk.random_into", req)
			sc.trace = sc.walker.RandomInto(sc.trace, entry, perm, length, sc.rng)
			tr.end(s)
			s = tr.begin("ngram.add_trace", req)
			sc.walk.Reset()
			sc.walk.AddTrace(sc.trace, fc.Ns)
			tr.end(s)
			steps += float64(len(sc.trace))
			grams += float64(sc.walk.Total())
			s = tr.begin("ngram.vectorize", req)
			out[w] = vec.VectorPackedInto(out[w], sc.walk)
			tr.end(s)
			s = tr.begin("ngram.merge", req)
			sc.agg.Merge(sc.walk)
			tr.end(s)
		}
		s = tr.begin("ngram.vectorize", req)
		agg = vec.VectorPackedInto(agg, sc.agg)
		tr.end(s)
		return out, agg
	}
	sc.dbl, sc.aggD = sweep(dv, dl.Perm, sc.dbl, sc.aggD)
	sc.lbl, sc.aggL = sweep(lv, ll.Perm, sc.lbl, sc.aggL)
	return steps, grams
}

// score times the batched scoring calls over the extracted rows, at the
// serve batch size and at the scan's 512-sample chunk, each batch one
// span with its CPU.
func (rp *replay) score(serveBatch int) {
	n, wc := len(rp.inputs), rp.fc.WalkCount
	for _, b := range []int{serveBatch, 512} {
		res := make([]float64, b)
		cls := make([]int, b)
		for lo := 0; lo < max(n, b); lo += b {
			d, l, c := batchRows(rp.detX, lo, b), batchRows(rp.dblX, lo*wc, b*wc), batchRows(rp.lblX, lo*wc, b*wc)
			s := rp.tr.beginCPU("autoenc.detect", -1)
			rp.p.Detector.ReconstructionErrorsInto(res, d)
			rp.tr.end(s)
			rp.tr.spans[s].Batch = b
			s = rp.tr.beginCPU("cnn.vote", -1)
			rp.p.Ensemble.VoteBatchInto(cls, l, c, wc)
			rp.tr.end(s)
			rp.tr.spans[s].Batch = b
		}
	}
}

// batchRows copies rows [lo, lo+n) of m, wrapping around the end so a
// batch larger than the replay still scores real rows.
func batchRows(m *nn.Matrix, lo, n int) *nn.Matrix {
	out := nn.NewMatrix(n, m.Cols)
	for i := 0; i < n; i++ {
		copy(out.Row(i), m.Row((lo+i)%m.Rows))
	}
	return out
}

// join times store.Cache.Join on a warm key for every input.
func (rp *replay) join() error {
	cache, err := store.Open(store.Config{})
	if err != nil {
		return err
	}
	defer cache.Close()
	keys := make([]store.Key, len(rp.inputs))
	for i, in := range rp.inputs {
		keys[i] = store.Key{Content: sha256.Sum256(in.raw), Salt: in.salt}
		cache.PutVerdict(keys[i], store.Verdict{})
	}
	for i := range keys {
		s := rp.tr.begin("store.join", i)
		_, hit, _, _ := cache.Join(keys[i])
		rp.tr.end(s)
		if !hit {
			return fmt.Errorf("trace: warm key %d missed", i)
		}
	}
	return nil
}

// aggregate turns the spans into per-layer metrics and returns the
// reconciliation lines. The CPU check against the untraced
// cpu_ms_per_analysis applies to the scan, whose untraced figure covers
// the same calls; a serving figure also covers HTTP and the Batcher.
func (rp *replay) aggregate(r *report, serveBatch int, scan bool) []string {
	spans := rp.tr.spans
	self := selfTimes(spans)
	req := perRequest(spans, self, len(rp.inputs))
	for name, xs := range req {
		r.layer[name] = median(xs)
	}
	bySize := map[string][]float64{}
	for i, in := range rp.inputs {
		name := "labeling.both_us." + strings.ToLower(in.size.String())
		bySize[name] = append(bySize[name], req["labeling.both_us"][i])
	}
	for name, xs := range bySize {
		r.layer[name] = median(xs)
	}
	r.layer["labeling.nodes_per_sample"] = mean(rp.nodes)
	r.layer["labeling.edges_per_sample"] = mean(rp.edges)
	r.layer["walk.steps_per_sample"] = mean(rp.steps)
	r.layer["ngram.grams_per_sample"] = mean(rp.grams)

	// Batched scoring: self time per sample, and CPU per sample at 512.
	perSample := map[string][]float64{}
	cpu512, batches512 := 0.0, 0
	for i, s := range spans {
		if s.Batch == 0 {
			continue
		}
		suffix := ".serve"
		if s.Batch == 512 {
			suffix = ".b512"
			cpu512 += float64(s.CPU) / 512
			if s.Name == "autoenc.detect" {
				batches512++
			}
		}
		name := map[string]string{"autoenc.detect": "autoenc.detect_us_per_sample", "cnn.vote": "cnn.vote_us_per_sample"}[s.Name] + suffix
		perSample[name] = append(perSample[name], float64(self[i])/1e3/float64(s.Batch))
	}
	for name, xs := range perSample {
		r.layer[name] = median(xs)
	}

	var recon []string
	check := func(what string, got, want float64) {
		verdict := "PASS"
		if math.Abs(got/want-1) > 0.10 {
			verdict = "FAIL"
		}
		recon = append(recon, fmt.Sprintf("%s %s: %.4f vs %.4f (%+.1f%%, limit ±10%%)", verdict, what, got, want, 100*(got/want-1)))
	}
	// Per sample, the decomposed stages should add up to the one
	// ExtractInto call; the median ratio is robust to the garbage
	// collections that land in one pass and not the other.
	var ratios []float64
	stages := 0.0
	for i := range rp.inputs {
		st := req["labeling.both_us"][i] + req["walk.walks_us"][i] + req["ngram.count_us"][i] + req["ngram.vectorize_us"][i]
		if st > 0 {
			ratios = append(ratios, st/req["features.extract_us"][i])
		}
		stages += st
	}
	check("decomposed stages (labeling+walks+count+vectorize) over features.extract, median per-sample ratio", median(ratios), 1)
	recon = append(recon, fmt.Sprintf("decomposed stages total %.0f µs vs features.extract total %.0f µs", stages, sum(req["features.extract_us"])))
	if rp.differs > 0 {
		recon = append(recon, fmt.Sprintf("FAIL decomposed replay differs from ExtractInto on %d of %d samples: the replay no longer mirrors the extractor", rp.differs, len(rp.inputs)))
	} else {
		recon = append(recon, fmt.Sprintf("PASS decomposed replay equals ExtractInto bit for bit on all %d samples", len(rp.inputs)))
	}

	// The untraced figure is process CPU, so the traced one is too: the
	// per-sample calls run on this goroutine alone, while the batched
	// scoring calls also occupy the GEMM workers.
	cpuSample := 0.0
	for _, s := range spans {
		if s.Request >= 0 && s.hasCPU {
			cpuSample += float64(s.CPU)
		}
	}
	traced := (cpuSample/float64(len(rp.inputs)) + cpu512/float64(batches512)) / 1e6
	untraced := r.e2e["cpu_ms_per_analysis"]
	if scan {
		check("traced per-sample CPU (decode, disassemble, extract, detect and vote at 512) vs untraced cpu_ms_per_analysis, ms", traced, untraced)
		recon = append(recon, fmt.Sprintf("tracing overhead: %+.1f%% (traced single-caller replay over untraced scan CPU per sample)", 100*(traced/untraced-1)))
	} else {
		recon = append(recon, fmt.Sprintf("traced layer CPU per sample %.4f ms (decode, disassemble, extract, detect and vote at 512) vs untraced server cpu_ms_per_analysis %.4f ms; the rest is serving cost outside the traced layers", traced, untraced))
	}
	return recon
}

// traceFile is what a traced run writes next to its result line.
type traceFile struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	Samples        int                `json:"samples"`
	ServeBatch     int                `json:"serve_batch"`
	PerLayer       map[string]float64 `json:"per_layer"`
	Serving        map[string]float64 `json:"serving"`
	ShouldMove     map[string]string  `json:"should_move"`
	Reconciliation []string           `json:"reconciliation"`
	Spans          []span             `json:"spans"`
}

// write saves the spans and the per-layer report.
func (rp *replay) write(cfg config, r *report, serveBatch int, recon []string) error {
	moves := map[string]string{}
	for _, d := range append(append([]metricDef(nil), perLayer...), servingLayer...) {
		moves[d.name] = d.moves
	}
	path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-%d.json", cfg.w.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(traceFile{
		Workload: cfg.w.name, Seed: cfg.seed, Samples: len(rp.inputs), ServeBatch: serveBatch,
		PerLayer: r.layer, Serving: r.serving, ShouldMove: moves, Reconciliation: recon, Spans: rp.tr.spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	r.note("trace written to %s", path)
	return err
}

// overlapRatio runs the inputs through one instrumented, untraced
// AnalyzeBinaryBatch and returns (Σ extraction chunk time + Σ scoring
// chunk time) ÷ wall time: above 1 when par.Overlap hides one stage
// behind the other.
func overlapRatio(sys *soteria.System, inputs []*input) (float64, error) {
	reg := soteria.NewRegistry()
	sys.Instrument(reg)
	raws := make([][]byte, len(inputs))
	salts := make([]int64, len(inputs))
	for i, in := range inputs {
		raws[i], salts[i] = in.raw, in.salt
	}
	start := time.Now()
	if _, err := sys.AnalyzeBinaryBatch(raws, salts); err != nil {
		return 0, err
	}
	wall := time.Since(start)
	m, err := snapshotOf(reg)
	if err != nil {
		return 0, err
	}
	_, ex := m.hist("pipeline.extract_ns")
	_, sc := m.hist("pipeline.score_ns")
	return (ex + sc) / float64(wall.Nanoseconds()), nil
}

// snapshotOf decodes a registry snapshot the way /metrics serves it.
func snapshotOf(reg *soteria.Registry) (metricSnapshot, error) {
	b, err := json.Marshal(reg.Snapshot())
	if err != nil {
		return nil, err
	}
	var m metricSnapshot
	return m, json.Unmarshal(b, &m)
}

// rows returns rows [lo, lo+n) of m.
func rows(m *nn.Matrix, lo, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = m.Row(lo + i)
	}
	return out
}

// sameRows reports whether a and b hold the same values bit for bit.
func sameRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(max(len(xs), 1)) }
