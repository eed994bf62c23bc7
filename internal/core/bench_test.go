// Serving-path benchmarks: the scoring stage of AnalyzeBatch (detector
// reconstruction errors + ensemble votes over a pre-extracted corpus),
// the end-to-end batch analyze path, and the content-addressed cache's
// hit path and repeat-rate throughput.
// Recorded per PR as BENCH_<n>.json — most recently BENCH_7.json
// (result cache) against BENCH_7_BASELINE.json via
//
//	SOTERIA_BENCH_NOCACHE=1 go run ./cmd/benchreport -pkg ./internal/core \
//	    -bench 'AnalyzeCached|BatcherThroughput' -out BENCH_7_BASELINE.json
//	go run ./cmd/benchreport -pkg ./internal/core \
//	    -bench 'AnalyzeCached|BatcherThroughput' \
//	    -out BENCH_7.json -baseline BENCH_7_BASELINE.json
//
// SOTERIA_BENCH_NOCACHE=1 runs the cache-eligible benchmarks without a
// cache attached, so a baseline diff isolates exactly what memoization
// buys (and costs, at 0% repeat rate) on identical workloads.
package core

import (
	"context"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"soteria/internal/disasm"
	"soteria/internal/features"
	"soteria/internal/malgen"
	"soteria/internal/store"
)

const benchSamples = 64

var (
	benchOnce sync.Once
	benchErr  error
	benchPipe *Pipeline
	benchCFGs []*disasm.CFG
	benchRaws [][]byte
	benchVecs []*features.Vectors
)

// benchEnv trains a small pipeline once and pre-extracts features for
// benchSamples CFGs, so scoring-stage benchmarks exclude extraction.
func benchEnv(b *testing.B) (*Pipeline, []*disasm.CFG, []*features.Vectors) {
	b.Helper()
	benchOnce.Do(func() {
		gen := malgen.NewGenerator(malgen.Config{Seed: 11})
		var samples []*malgen.Sample
		for i := 0; i < benchSamples; i++ {
			s, err := gen.Sample(malgen.Classes[i%len(malgen.Classes)])
			if err != nil {
				benchErr = err
				return
			}
			samples = append(samples, s)
		}
		opts := testOptions()
		opts.DetectorEpochs = 15
		opts.ClassifierEpochs = 15
		benchPipe, benchErr = Train(samples, opts)
		if benchErr != nil {
			return
		}
		benchCFGs = make([]*disasm.CFG, len(samples))
		benchRaws = make([][]byte, len(samples))
		salts := make([]int64, len(samples))
		for i, s := range samples {
			benchCFGs[i] = s.CFG
			if benchRaws[i], benchErr = s.Binary.Encode(); benchErr != nil {
				return
			}
			salts[i] = int64(i)
		}
		benchVecs, benchErr = benchPipe.Extractor.ExtractBatch(benchCFGs, salts)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchPipe, benchCFGs, benchVecs
}

// BenchmarkScoreChunk measures the scoring stage over a pre-extracted
// 64-sample corpus — one batched standardize+forward+RMSE pass for the
// detector and one batched forward per labeling for the ensemble,
// exactly the work AnalyzeBatch performs after extraction.
func BenchmarkScoreChunk(b *testing.B) {
	p, _, vecs := benchEnv(b)
	c := p.getChunk()
	c.shape(p, 0, len(vecs))
	for i, v := range vecs {
		c.place(i, v, nil)
	}
	out := make([]*Decision, len(vecs))
	errs := make([]error, len(vecs))
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		p.scoreChunk(c, out, errs, nil)
	}
	b.ReportMetric(float64(len(vecs))*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkBatcherThroughput measures the micro-batching front door
// end to end: 8 concurrent submitters streaming the raw bytes of one
// binary per request, as /analyze receives them — each parses,
// disassembles and extracts on its own goroutine, and the collector
// coalesces the rows into shared batched scoring passes.
func BenchmarkBatcherThroughput(b *testing.B) {
	p, _, _ := benchEnv(b)
	const submitters = 8
	bat := NewBatcher(p)
	defer bat.Close()
	var next atomic.Int64
	b.SetParallelism(submitters)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)-1) % len(benchRaws)
			if _, err := bat.Submit(context.Background(), benchRaws[i], int64(i)); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// benchNoCache reports whether SOTERIA_BENCH_NOCACHE asks the
// cache-eligible benchmarks to run without a cache, recording the
// uncached cost of the identical workload for a baseline diff.
func benchNoCache() bool { return os.Getenv("SOTERIA_BENCH_NOCACHE") != "" }

// attachBenchCache attaches a fresh in-memory cache to the shared bench
// pipeline (unless SOTERIA_BENCH_NOCACHE is set) and returns a cleanup
// that detaches it, so the other benchmarks keep measuring the uncached
// path.
func attachBenchCache(b *testing.B, p *Pipeline) func() {
	b.Helper()
	if benchNoCache() {
		return func() {}
	}
	c, err := store.Open(store.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := p.AttachCache(c); err != nil {
		b.Fatal(err)
	}
	return func() {
		if err := p.AttachCache(nil); err != nil {
			b.Fatal(err)
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeCachedHit measures a warm verdict-tier hit on
// AnalyzeBinary: sha256 the submission, look up the decision, skip
// parse/disassembly/extraction/scoring entirely. With
// SOTERIA_BENCH_NOCACHE=1 the same calls run uncached, so the baseline
// diff is the full miss-vs-hit cost of one repeat submission.
func BenchmarkAnalyzeCachedHit(b *testing.B) {
	p, _, _ := benchEnv(b)
	detach := attachBenchCache(b, p)
	defer detach()
	if !benchNoCache() {
		for i, raw := range benchRaws {
			if _, err := p.AnalyzeBinary(raw, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		i := it % len(benchRaws)
		if _, err := p.AnalyzeBinary(benchRaws[i], int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBatcherRepeat streams 8 concurrent submitters through the
// Batcher with the given percentage of repeat submissions (same bytes
// and salt as an earlier request — a singleflight/cache hit once warm);
// the rest carry never-repeating salts and always take the full parse,
// disassembly, extraction and scoring path. Requests carry raw bytes,
// as /analyze receives them. At 0% the benchmark prices the cache's
// bookkeeping overhead on a miss-only stream; at 100% it prices pure
// hit throughput: one content hash and a lookup per request.
func benchBatcherRepeat(b *testing.B, pct int) {
	p, _, _ := benchEnv(b)
	detach := attachBenchCache(b, p)
	defer detach()
	const submitters = 8
	bat := NewBatcher(p)
	defer bat.Close()
	var next atomic.Int64
	b.SetParallelism(submitters)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := next.Add(1) - 1
			i := int(n) % len(benchRaws)
			salt := int64(i)
			if int(n%100) >= pct {
				// Unique key: salts from this range are never reused.
				salt = 1_000_000 + n
			}
			if _, err := bat.Submit(context.Background(), benchRaws[i], salt); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

func BenchmarkBatcherThroughputRepeat0(b *testing.B)   { benchBatcherRepeat(b, 0) }
func BenchmarkBatcherThroughputRepeat50(b *testing.B)  { benchBatcherRepeat(b, 50) }
func BenchmarkBatcherThroughputRepeat100(b *testing.B) { benchBatcherRepeat(b, 100) }

// BenchmarkAnalyzeBatchEndToEnd measures the full AnalyzeBatch call —
// extraction plus scoring — over the same corpus.
func BenchmarkAnalyzeBatchEndToEnd(b *testing.B) {
	p, cfgs, _ := benchEnv(b)
	salts := make([]int64, len(cfgs))
	for i := range salts {
		salts[i] = int64(i)
	}
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		if _, err := p.AnalyzeBatch(cfgs, salts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cfgs))*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}
