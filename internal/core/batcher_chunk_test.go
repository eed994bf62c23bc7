package core

import (
	"bytes"
	"context"
	"maps"
	"runtime"
	"sync"
	"testing"
	"time"

	"soteria/internal/disasm"
	"soteria/internal/obs"
)

// stalledBatcher returns a batcher over p whose collector has not
// started: submitters park on the unbuffered handoff exactly as they do
// while a live collector is busy scoring, and the test decides when the
// collector comes back. It records into NewBatcher's metrics.
func stalledBatcher(p *Pipeline) *Batcher {
	live := NewBatcher(p)
	live.Close()
	return &Batcher{p: p, reqs: make(chan *request), stop: make(chan struct{}), done: make(chan struct{}), met: live.met}
}

// waitParked blocks until n submitters are parked in enqueue's select,
// read from a dump of every goroutine's stack. Bounded polling (~5s)
// instead of a wall-clock deadline: this package is in the determinism
// lint scope.
func waitParked(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if parkedSubmitters() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%d submitters parked on the handoff, want %d", parkedSubmitters(), n)
}

func parkedSubmitters() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	parked := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte(" [select")) && bytes.Contains(g, []byte("(*Batcher).enqueue(")) {
			parked++
		}
	}
	return parked
}

// batchSizes returns the batch_size histogram's non-empty buckets as
// batch size → number of batches.
func batchSizes(h *obs.Histogram) map[float64]uint64 {
	out := make(map[float64]uint64)
	for _, b := range h.Buckets() {
		if b.Count > 0 {
			out[b.Le] = b.Count
		}
	}
	return out
}

// TestBatcherServesWaitingSubmittersTogether pins coalescing without a
// timer: submitters that arrive while the collector is away park on the
// handoff, and the collector, once back, serves the first of them
// together with every other one already waiting in a single batch.
// Each decision stays bit-identical to a lone Analyze.
func TestBatcherServesWaitingSubmittersTogether(t *testing.T) {
	inst, reg := obsEnv(t)
	_, corpus := batchEnv(t)
	raws := corpusRaws(t)
	sizes := reg.Histogram("batcher.batch_size", nil)
	count0, sum0 := sizes.Count(), sizes.Sum()

	b := stalledBatcher(inst)
	const requests = 8
	decs := make([]*Decision, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	for g := 0; g < requests; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			decs[g], errs[g] = b.Submit(context.Background(), raws[g%len(raws)], int64(g))
		}(g)
	}
	waitParked(t, requests)
	go b.collect()
	wg.Wait()
	b.Close()

	if got := sizes.Count() - count0; got != 1 {
		t.Fatalf("%d waiting requests served in %d batches, want 1", requests, got)
	}
	if got := sizes.Sum() - sum0; got != requests {
		t.Fatalf("batch sizes sum to %v, want %d", got, requests)
	}
	for g := range decs {
		if errs[g] != nil {
			t.Fatalf("submitter %d: %v", g, errs[g])
		}
		want, err := inst.Analyze(corpus[g%len(corpus)].CFG, int64(g))
		if err != nil {
			t.Fatal(err)
		}
		if *decs[g] != *want {
			t.Fatalf("submitter %d: %+v, want %+v", g, *decs[g], *want)
		}
	}
}

// TestBatcherCapsBatchAtChunkSize: with more submitters waiting than
// one scoring chunk holds, the collector serves exactly
// analyzeChunkSize of them and leaves the rest to the next batch — on
// the collect path and on the drain path Close takes.
func TestBatcherCapsBatchAtChunkSize(t *testing.T) {
	p, _ := batchEnv(t)
	raws := corpusRaws(t)
	// Every submitter sends the smallest binary: the test is about
	// batch composition, not extraction.
	raw := raws[0]
	for _, r := range raws {
		if len(r) < len(raw) {
			raw = r
		}
	}
	const extra = 3
	for _, path := range []string{"collect", "drain"} {
		t.Run(path, func(t *testing.T) {
			reg := obs.NewRegistry()
			// The trained components under a fresh registry, so the
			// batch sizes read below are this subtest's alone.
			q := &Pipeline{Extractor: p.Extractor, Detector: p.Detector, Ensemble: p.Ensemble, opts: p.opts, reg: reg}
			b := stalledBatcher(q)
			errs := make([]error, analyzeChunkSize+extra)
			var wg sync.WaitGroup
			for g := range errs {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					_, errs[g] = b.Submit(context.Background(), raw, int64(g))
				}(g)
			}
			waitParked(t, len(errs))
			if path == "collect" {
				go b.collect()
				wg.Wait()
				b.Close()
			} else {
				b.drain()
				wg.Wait()
			}
			for g, err := range errs {
				if err != nil {
					t.Fatalf("submitter %d: %v", g, err)
				}
			}
			got := batchSizes(reg.Histogram("batcher.batch_size", nil))
			want := map[float64]uint64{analyzeChunkSize: 1, extra: 1}
			if !maps.Equal(got, want) {
				t.Fatalf("batch size → batches = %v, want %v", got, want)
			}
		})
	}
}

// TestFullBatchScoresInOnePass: a batch of exactly analyzeChunkSize
// samples — the largest the Batcher serves — must run one scoring pass
// (one chunk, one set of sharded GEMMs), and one extra sample spills
// into exactly one more. It counts passes on obsEnv's instrumented
// pipeline: instrumenting batchEnv's shared one would leave the plain
// side of the obs tests instrumented.
func TestFullBatchScoresInOnePass(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline training")
	}
	p, _ := obsEnv(t)
	_, corpus := batchEnv(t)

	mk := func(n int) ([]*disasm.CFG, []int64) {
		cfgs := make([]*disasm.CFG, n)
		salts := make([]int64, n)
		for i := range cfgs {
			cfgs[i] = corpus[i%len(corpus)].CFG
			salts[i] = int64(i)
		}
		return cfgs, salts
	}

	cfgs, salts := mk(analyzeChunkSize)
	before := p.met.scoreNs.Count()
	if _, err := p.AnalyzeBatch(cfgs, salts); err != nil {
		t.Fatal(err)
	}
	if got := p.met.scoreNs.Count() - before; got != 1 {
		t.Fatalf("full-sized batch ran %d scoring passes, want exactly 1", got)
	}

	cfgs, salts = mk(analyzeChunkSize + 1)
	before = p.met.scoreNs.Count()
	if _, err := p.AnalyzeBatch(cfgs, salts); err != nil {
		t.Fatal(err)
	}
	if got := p.met.scoreNs.Count() - before; got != 2 {
		t.Fatalf("chunk-plus-one batch ran %d scoring passes, want exactly 2", got)
	}
}
