package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"soteria/internal/disasm"
	"soteria/internal/features"
	"soteria/internal/malgen"
)

var (
	batchOnce     sync.Once
	batchTrainErr error
	batchPipe     *Pipeline
	batchCorpus   []*malgen.Sample
)

// batchEnv trains one tiny pipeline once for every
// batched-equivalence test in the package.
func batchEnv(t *testing.T) (*Pipeline, []*malgen.Sample) {
	t.Helper()
	batchOnce.Do(func() {
		g := malgen.NewGenerator(malgen.Config{Seed: 13})
		for _, c := range malgen.Classes {
			for i := 0; i < 3; i++ {
				s, err := g.Sample(c)
				if err != nil {
					batchTrainErr = err
					return
				}
				batchCorpus = append(batchCorpus, s)
			}
		}
		opts := testOptions()
		opts.Features.WalkCount = 3
		opts.DetectorEpochs = 8
		opts.ClassifierEpochs = 8
		opts.Filters = 4
		opts.DenseUnits = 16
		batchPipe, batchTrainErr = Train(batchCorpus, opts)
	})
	if batchTrainErr != nil {
		t.Fatal(batchTrainErr)
	}
	return batchPipe, batchCorpus
}

// corpusRaws returns the SOTB encoding of every batchEnv sample: the
// bytes a Batcher submitter sends.
func corpusRaws(t *testing.T) [][]byte {
	t.Helper()
	_, corpus := batchEnv(t)
	raws := make([][]byte, len(corpus))
	for i, s := range corpus {
		raw, err := s.Binary.Encode()
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = raw
	}
	return raws
}

// undecodableEntry returns s's binary re-encoded with an entry point
// outside every section: it parses as SOTB but does not disassemble.
func undecodableEntry(t *testing.T, s *malgen.Sample) []byte {
	t.Helper()
	bad := *s.Binary
	bad.Entry = 0xdead000
	raw, err := bad.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestAnalyzeBatchMatchesAnalyze pins the tentpole equivalence: the
// chunked two-stage batch path must reproduce every per-sample Analyze
// decision bit for bit — RE included — across batch sizes.
func TestAnalyzeBatchMatchesAnalyze(t *testing.T) {
	p, corpus := batchEnv(t)
	for _, n := range []int{1, 5, len(corpus)} {
		cfgs := make([]*disasm.CFG, n)
		salts := make([]int64, n)
		for i := 0; i < n; i++ {
			cfgs[i] = corpus[i].CFG
			salts[i] = int64(3000 + i)
		}
		decs, err := p.AnalyzeBatch(cfgs, salts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			want, err := p.Analyze(cfgs[i], salts[i])
			if err != nil {
				t.Fatal(err)
			}
			got := decs[i]
			if got.RE != want.RE || got.Adversarial != want.Adversarial || got.Class != want.Class {
				t.Fatalf("n=%d sample %d: batch {%v %v %v} != analyze {%v %v %v}",
					n, i, got.Adversarial, got.RE, got.Class,
					want.Adversarial, want.RE, want.Class)
			}
		}
	}
}

// TestAnalyzeBatchErrors pins input validation and per-sample error
// indexing: mismatched lengths fail up front, and an extraction
// failure names the offending sample. An unfitted pipeline with a nil
// detector must fail cleanly rather than dereference it.
func TestAnalyzeBatchErrors(t *testing.T) {
	p, corpus := batchEnv(t)
	if _, err := p.AnalyzeBatch(make([]*disasm.CFG, 2), make([]int64, 3)); err == nil ||
		!strings.Contains(err.Error(), "2 cfgs but 3 salts") {
		t.Fatalf("length mismatch error = %v", err)
	}

	unfitted := &Pipeline{Extractor: features.NewExtractor(features.Config{})}
	cfgs := []*disasm.CFG{corpus[0].CFG, corpus[1].CFG}
	_, err := unfitted.AnalyzeBatch(cfgs, []int64{0, 1})
	if !errors.Is(err, features.ErrNotFitted) {
		t.Fatalf("unfitted batch error = %v, want ErrNotFitted", err)
	}
	if !strings.Contains(err.Error(), "sample 0") {
		t.Fatalf("error does not name the failing sample: %v", err)
	}
}

// TestAnalyzeBinaryBatchReportsLowestBadSample pins the parallel
// disassembly's error: whichever worker fails first, the batch reports
// the lowest failing index with the serial loop's message.
func TestAnalyzeBinaryBatchReportsLowestBadSample(t *testing.T) {
	p, corpus := batchEnv(t)
	good, err := corpus[0].Binary.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bins := [][]byte{good, []byte("junk"), good, []byte("more junk"), good}
	for i := 0; i < 10; i++ {
		_, err := p.AnalyzeBinaryBatch(bins, make([]int64, len(bins)))
		if err == nil || !strings.HasPrefix(err.Error(), "core: sample 1: core: parse binary: ") {
			t.Fatalf("error = %v, want sample 1's parse failure", err)
		}
	}
}

// TestBatcherMatchesAnalyze drives the micro-batching front door from
// many concurrent submitters (run it with -race) and requires every
// coalesced decision to be bit-identical to a lone Analyze call with
// the same salt.
func TestBatcherMatchesAnalyze(t *testing.T) {
	p, corpus := batchEnv(t)
	raws := corpusRaws(t)
	b := NewBatcher(p)
	defer b.Close()

	var wg sync.WaitGroup
	failures := make([]string, len(corpus)*2)
	for g := 0; g < len(corpus)*2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(corpus)
			salt := int64(5000 + i)
			got, err := b.Submit(context.Background(), raws[i], salt)
			if err != nil {
				failures[g] = err.Error()
				return
			}
			want, err := p.Analyze(corpus[i].CFG, salt)
			if err != nil {
				failures[g] = err.Error()
				return
			}
			if got.RE != want.RE || got.Adversarial != want.Adversarial || got.Class != want.Class {
				failures[g] = "decision diverges from Analyze"
			}
		}(g)
	}
	wg.Wait()
	for g, f := range failures {
		if f != "" {
			t.Fatalf("submitter %d: %s", g, f)
		}
	}
}

// TestBatcherPropagatesPerRequestErrors pins that a failing sample
// fails only its own submitter and leaves the batcher serving: bytes
// that do not parse, or whose entry does not disassemble, fail with
// ErrBadBinary, and an extraction failure with the extractor's error.
func TestBatcherPropagatesPerRequestErrors(t *testing.T) {
	p, corpus := batchEnv(t)
	raws := corpusRaws(t)
	b := NewBatcher(p)
	defer b.Close()
	for _, bad := range [][]byte{[]byte("junk"), undecodableEntry(t, corpus[0])} {
		if _, err := b.Submit(context.Background(), bad, 0); !errors.Is(err, ErrBadBinary) {
			t.Fatalf("bad binary: err = %v, want ErrBadBinary", err)
		}
		if _, err := b.Submit(context.Background(), raws[0], 0); err != nil {
			t.Fatalf("good binary after a bad one: %v", err)
		}
	}

	unfitted := &Pipeline{Extractor: features.NewExtractor(features.Config{})}
	u := NewBatcher(unfitted)
	defer u.Close()
	for i := 0; i < 3; i++ {
		_, err := u.Submit(context.Background(), raws[0], int64(i))
		if !errors.Is(err, features.ErrNotFitted) || errors.Is(err, ErrBadBinary) {
			t.Fatalf("submit %d: err = %v, want ErrNotFitted", i, err)
		}
	}
}

// TestBatcherCloseMidFlight pins the shutdown contract: Submits racing
// Close return either a real decision or ErrBatcherClosed — never a
// hang and never a zero decision — and Submit after Close (and double
// Close) are safe.
func TestBatcherCloseMidFlight(t *testing.T) {
	p, _ := batchEnv(t)
	raws := corpusRaws(t)
	b := NewBatcher(p)

	var wg sync.WaitGroup
	failures := make([]string, 16)
	for g := 0; g < len(failures); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; ; iter++ {
				i := (g + iter) % len(raws)
				dec, err := b.Submit(context.Background(), raws[i], int64(i))
				if err != nil {
					if !errors.Is(err, ErrBatcherClosed) {
						failures[g] = err.Error()
					}
					return
				}
				if dec == nil {
					failures[g] = "nil decision without error"
					return
				}
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	b.Close()
	wg.Wait()
	for g, f := range failures {
		if f != "" {
			t.Fatalf("submitter %d: %s", g, f)
		}
	}
	if _, err := b.Submit(context.Background(), raws[0], 0); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrBatcherClosed", err)
	}
	b.Close() // double Close must not panic or hang
}
