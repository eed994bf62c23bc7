package core

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline")
	}
	samples := trainCorpus(t, 5)
	opts := testOptions()
	opts.DetectorEpochs = 8
	opts.ClassifierEpochs = 5
	p, err := Train(samples, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for i, s := range samples[:4] {
		a, err := p.Analyze(s.CFG, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Analyze(s.CFG, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if a.RE != b.RE || a.Class != b.Class || a.Adversarial != b.Adversarial {
			t.Fatalf("sample %d: loaded pipeline disagrees: %+v vs %+v", i, a, b)
		}
	}
}

// TestFingerprintMemoized pins the fingerprint memo: steady-state
// Fingerprint calls return the stamped hash without re-serializing the
// model (0 allocs/op), the memo equals a from-scratch recompute, and a
// Save/Load round trip lands on the same fingerprint.
func TestFingerprintMemoized(t *testing.T) {
	p, _, _ := cachePipeline(t)
	fp, err := p.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Fingerprint(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("memoized Fingerprint allocates %v/op, want 0", allocs)
	}

	// The memo must match a full recompute of the same state.
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lfp, err := loaded.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if lfp != fp {
		t.Fatalf("loaded fingerprint %x != trained memo %x", lfp, fp)
	}
	loaded.InvalidateFingerprint()
	rfp, err := loaded.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if rfp != fp {
		t.Fatalf("recomputed fingerprint %x != memo %x", rfp, fp)
	}
}

// TestFingerprintInvalidation pins the mutation contract: a component
// mutated through the exported fields keeps serving the stale memo
// until InvalidateFingerprint, after which the fingerprint reflects
// the new persisted state.
func TestFingerprintInvalidation(t *testing.T) {
	shared, _, _ := cachePipeline(t)
	var buf bytes.Buffer
	if err := shared.Save(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := Load(&buf) // private copy; the mutation must not leak
	if err != nil {
		t.Fatal(err)
	}
	fp1, err := p.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	p.Detector.SetAlpha(p.Detector.Alpha() * 2) // persisted DetectorConfig field
	stale, err := p.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if stale != fp1 {
		t.Fatalf("memo changed without invalidation: %x vs %x", stale, fp1)
	}
	p.InvalidateFingerprint()
	fp2, err := p.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp2 == fp1 {
		t.Fatal("fingerprint unchanged after mutating Alpha and invalidating")
	}
}

// TestLoadRejectsOutOfRangeWeight and
// TestNonFiniteWeightFailsFingerprintAndSave pin the precondition that
// single-row scoring's bit-identity rests on (see nn's gemmVec): every
// weight a pipeline serves is finite. A model file cannot bring in a
// weight beyond float64 range, and a pipeline whose weight became NaN
// cannot be fingerprinted or saved, so it never passes the fingerprint
// stamp that Train and Load give every served model.
func TestLoadRejectsOutOfRangeWeight(t *testing.T) {
	p, _, _ := cachePipeline(t)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	w := string(m["dblWeights"])
	comma := strings.IndexByte(w, ',')
	if !strings.HasPrefix(w, "[") || comma < 0 {
		t.Fatalf("dblWeights is not a list of several weights: %.40s", w)
	}
	m["dblWeights"] = json.RawMessage("[1e400" + w[comma:])
	body, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(bytes.NewReader(body))
	if err == nil {
		t.Fatal("Load accepted a weight of 1e400")
	}
	if !strings.Contains(err.Error(), "decode model") || !strings.Contains(err.Error(), "dblWeights") {
		t.Fatalf("Load error %q, want a decode error naming dblWeights", err)
	}
}

func TestNonFiniteWeightFailsFingerprintAndSave(t *testing.T) {
	shared, _, _ := cachePipeline(t)
	var buf bytes.Buffer
	if err := shared.Save(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := Load(&buf) // private copy; the mutation must not leak
	if err != nil {
		t.Fatal(err)
	}
	p.Ensemble.DBL.Network().Params()[0].W.Data[0] = math.NaN()
	p.InvalidateFingerprint()
	if _, err := p.Fingerprint(); err == nil {
		t.Fatal("Fingerprint succeeded on a pipeline with a NaN weight")
	}
	if err := p.Save(io.Discard); err == nil {
		t.Fatal("Save succeeded on a pipeline with a NaN weight")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("junk should error")
	}
	if _, err := Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("unknown version should error")
	}
}

// TestLoadRejectsUnservableModels pins Load's serving checks: each case
// edits one part of a saved model so that it still decodes and its
// networks still restore, but its parts disagree on a dimension or its
// options ask for the deleted per-walk detector. Loaded, such a model
// panics on its first analysis (an IDF list shorter than the
// vocabulary indexes past its end when vectorizing) or scores rows it
// was not trained on, so Load must refuse it.
func TestLoadRejectsUnservableModels(t *testing.T) {
	p, _, _ := cachePipeline(t)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	topK := p.Extractor.WalkDim()
	cases := []struct {
		name string
		edit func(m map[string]any)
		want string
	}{
		{"dbl idf drops an entry", func(m map[string]any) {
			v := obj(m, "dblVocab")
			idf := v["idf"].([]any)
			v["idf"] = idf[:len(idf)-1]
		}, "DBL vocabulary has"},
		{"dbl dim 100", func(m map[string]any) {
			obj(m, "dblVocab")["dim"] = 100
		}, "DBL vocabulary"},
		{"lbl idf gains an entry", func(m map[string]any) {
			v := obj(m, "lblVocab")
			v["idf"] = append(v["idf"].([]any), 1.0)
		}, "LBL vocabulary has"},
		{"lbl dim above topK", func(m map[string]any) {
			obj(m, "lblVocab")["dim"] = topK + 1
		}, "LBL vocabulary dim"},
		{"features topK halved", func(m map[string]any) {
			obj(m, "features")["topK"] = topK / 2
		}, "vocabulary dim"},
		{"topK and dims past the detector", func(m map[string]any) {
			obj(m, "features")["topK"] = 2 * topK
			obj(m, "dblVocab")["dim"] = 2 * topK
			obj(m, "lblVocab")["dim"] = 2 * topK
		}, "detector input dim"},
		// One more input keeps the classifiers' weight shapes (the
		// second pooling floors it away), so only the check catches it.
		{"classifier input dim", func(m map[string]any) {
			obj(m, "cnnConfig")["inputDim"] = topK + 1
		}, "classifier input dim"},
		// A per-walk detector would score the walk-aggregated rows the
		// pipeline serves without complaint, and every verdict would be
		// wrong.
		{"per-walk detector", func(m map[string]any) {
			obj(m, "options")["perWalkDetector"] = true
		}, "per-walk detector"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var m map[string]any
			if err := json.Unmarshal(saved, &m); err != nil {
				t.Fatal(err)
			}
			c.edit(m)
			body, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Load(bytes.NewReader(body))
			if err == nil {
				t.Fatal("Load accepted an unservable model")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Load error %q, want one naming %q", err, c.want)
			}
		})
	}
	if _, err := Load(bytes.NewReader(saved)); err != nil {
		t.Fatalf("unedited model: %v", err)
	}
}

// obj returns the JSON object at m[key].
func obj(m map[string]any, key string) map[string]any { return m[key].(map[string]any) }

func TestSeedFormatVocabularyRestoresPacked(t *testing.T) {
	// The persisted vocabulary layer is unchanged from the seed format:
	// string gram keys ("a|b|c", decimal labels). A vocabState decoded
	// from seed-era JSON must restore into a vectorizer that serves both
	// the string lookups the old code used and the new packed index.
	raw := `{"vocab": ["0|1", "1|0", "10|2", "3|2|1"], "idf": [1.1, 1.2, 1.3, 0.9], "dim": 6, "l2": true}`
	var vs vocabState
	if err := json.Unmarshal([]byte(raw), &vs); err != nil {
		t.Fatal(err)
	}
	v := vs.restore()
	if !v.PackedReady() {
		t.Fatal("seed-format vocab should rebuild the packed index")
	}
	if !v.Contains("10|2") || v.Contains("2|10") {
		t.Fatal("string vocabulary lookup broken after restore")
	}
	if v.Dim != 6 || !v.L2 {
		t.Fatalf("restored dim/L2 = %d/%v", v.Dim, v.L2)
	}
	// Round-trip: saving the restored vectorizer reproduces the state.
	if got := vocabOf(v); !reflect.DeepEqual(got, vs) {
		t.Fatalf("vocab round-trip changed state: %+v vs %+v", got, vs)
	}
}
