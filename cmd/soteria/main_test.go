package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soteria"
	"soteria/internal/malgen"
)

func TestRunTrainSaveLoadAnalyze(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	model := filepath.Join(dir, "model.json")
	sample := filepath.Join(dir, "sample.sotb")

	// A binary to analyze.
	gen := malgen.NewGenerator(malgen.Config{Seed: 5})
	s, err := gen.SampleSized(malgen.Mirai, 30)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := s.Binary.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sample, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Train tiny, save, analyze.
	if err := run([]string{"-train-per-class", "6", "-save", model, sample}); err != nil {
		t.Fatalf("train+save run: %v", err)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("model not written: %v", err)
	}
	// Load and analyze without training.
	if err := run([]string{"-load", model, sample}); err != nil {
		t.Fatalf("load run: %v", err)
	}
}

func TestRunNoFiles(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no files should error")
	}
}

// TestRunConflictingFlags pins the flag diagnosis: -load with
// -train-per-class used to silently ignore the training flag; now the
// conflict is a usage error, reported before any file is touched.
func TestRunConflictingFlags(t *testing.T) {
	err := run([]string{"-load", "does-not-exist.json", "-train-per-class", "5", "x.sotb"})
	if err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("err = %v, want conflict diagnosis", err)
	}
	if strings.Contains(err.Error(), "does-not-exist") {
		t.Fatalf("conflict must be diagnosed before opening the model: %v", err)
	}
	// -serve and file arguments are mutually exclusive too.
	if err := run([]string{"-serve", "127.0.0.1:0", "x.sotb"}); err == nil ||
		!strings.Contains(err.Error(), "conflict") {
		t.Fatalf("serve+files err = %v, want conflict diagnosis", err)
	}
	// -load alone (default train-per-class untouched) must not trip it.
	if err := run([]string{"-load", "does-not-exist.json", "x.sotb"}); err == nil ||
		strings.Contains(err.Error(), "conflict") {
		t.Fatalf("plain -load err = %v, want file-open error", err)
	}
	// -no-cache with -cache-dir is contradictory.
	if err := run([]string{"-no-cache", "-cache-dir", "/tmp/x", "x.sotb"}); err == nil ||
		!strings.Contains(err.Error(), "conflict") {
		t.Fatalf("no-cache+cache-dir err = %v, want conflict diagnosis", err)
	}
}

// TestRunFleetFlagConflicts pins the -fleet/-replicas usage surface:
// every contradictory combination is diagnosed before any model or
// network work happens.
func TestRunFleetFlagConflicts(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"fleet without replicas", []string{"-fleet", "127.0.0.1:0"}},
		{"replicas without fleet", []string{"-replicas", "2", "-save", "x.json"}},
		{"fleet with serve", []string{"-fleet", "127.0.0.1:0", "-replicas", "2", "-serve", "127.0.0.1:0"}},
		{"fleet with files", []string{"-fleet", "127.0.0.1:0", "-replicas", "2", "x.sotb"}},
		{"zero replicas", []string{"-fleet", "127.0.0.1:0", "-replicas", "0"}},
		{"spawn with cache-dir", []string{"-fleet", "127.0.0.1:0", "-replicas", "2", "-cache-dir", "/tmp/x"}},
		{"url replicas with load", []string{"-fleet", "127.0.0.1:0", "-replicas", "http://a,http://b", "-load", "m.json"}},
	}
	for _, tc := range cases {
		if err := run(tc.args); err == nil {
			t.Errorf("%s: want usage error, got nil", tc.name)
		}
	}
}

// TestRunCacheDir pins the persistent-cache CLI path: a second run over
// the same file with the same model must replay the first run's entries
// from -cache-dir, and -no-cache must run clean end to end.
func TestRunCacheDir(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	model := filepath.Join(dir, "model.json")
	cacheDir := filepath.Join(dir, "cache")
	sample := filepath.Join(dir, "sample.sotb")

	gen := malgen.NewGenerator(malgen.Config{Seed: 6})
	s, err := gen.SampleSized(malgen.Gafgyt, 30)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := s.Binary.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sample, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := run([]string{"-train-per-class", "3", "-save", model, "-cache-dir", cacheDir, sample}); err != nil {
		t.Fatalf("first run: %v", err)
	}
	log := filepath.Join(cacheDir, "cache.log")
	fi, err := os.Stat(log)
	if err != nil {
		t.Fatalf("cache log not written: %v", err)
	}
	if fi.Size() == 0 {
		t.Fatal("cache log is empty after an analyzing run")
	}
	// Second run loads the same model, so the fingerprint matches and
	// the analysis is served from the replayed cache (same output either
	// way — this guards that the replay path runs end to end).
	if err := run([]string{"-load", model, "-cache-dir", cacheDir, sample}); err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if err := run([]string{"-load", model, "-no-cache", sample}); err != nil {
		t.Fatalf("no-cache run: %v", err)
	}
}

// TestRunDuplicateFilesShareCacheKey pins the content-stable salt fix:
// file-mode salts used to be the argv position (salts[i] = int64(i)),
// so the same binary listed twice — or listed at a different position
// in a later run — got distinct cache keys and defeated the cache.
// With a constant salt, any number of appearances of one binary, in
// any order, produce exactly one verdict entry.
func TestRunDuplicateFilesShareCacheKey(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	model := filepath.Join(dir, "model.json")
	cacheDir := filepath.Join(dir, "cache")
	fileA := filepath.Join(dir, "a.sotb")
	fileB := filepath.Join(dir, "b.sotb") // byte-identical copy of A

	gen := malgen.NewGenerator(malgen.Config{Seed: 8})
	s, err := gen.SampleSized(malgen.Mirai, 30)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := s.Binary.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{fileA, fileB} {
		if err := os.WriteFile(f, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Run 1: the duplicate listed twice. Run 2: same content at a
	// different argv position. Under position salts the four appearances
	// spanned three distinct keys; under the content-stable salt they
	// share one.
	if err := run([]string{"-train-per-class", "3", "-save", model, "-cache-dir", cacheDir, fileA, fileB}); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := run([]string{"-load", model, "-cache-dir", cacheDir, fileB, fileA}); err != nil {
		t.Fatalf("second run: %v", err)
	}
	cache, err := soteria.OpenCache(soteria.CacheConfig{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := cache.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if n := cache.Len(); n != 1 {
		t.Fatalf("cache holds %d entries after duplicate runs, want 1 verdict", n)
	}
}

// TestRunSaveOnly pins the train-and-save path with no analysis files:
// it must train, write the model, and exit cleanly.
func TestRunSaveOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	model := filepath.Join(t.TempDir(), "model.json")
	if err := run([]string{"-train-per-class", "3", "-save", model}); err != nil {
		t.Fatalf("save-only run: %v", err)
	}
	if fi, err := os.Stat(model); err != nil || fi.Size() == 0 {
		t.Fatalf("model not written: %v", err)
	}
}

// bodyClose closes a response body, failing the test on error so the
// persistence-error discipline holds in tests too.
func bodyClose(t *testing.T, res *http.Response) {
	t.Helper()
	if err := res.Body.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeHandler covers the -serve surface with httptest: /healthz,
// /metrics (JSON snapshot with training and serving metrics), /analyze
// (batched, cached decisions matching a direct Analyze call; 400 for
// bytes that do not parse or disassemble, never cached), and the pprof
// endpoints.
func TestServeHandler(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	gen := malgen.NewGenerator(malgen.Config{Seed: 9})
	var corpus []*malgen.Sample
	for _, c := range malgen.Classes {
		for i := 0; i < 3; i++ {
			s, err := gen.Sample(c)
			if err != nil {
				t.Fatal(err)
			}
			corpus = append(corpus, s)
		}
	}
	opts := soteria.DefaultOptions()
	opts.Features.WalkCount = 3
	opts.DetectorEpochs = 6
	opts.ClassifierEpochs = 6
	opts.Filters = 4
	opts.DenseUnits = 16
	reg := soteria.NewRegistry()
	opts.Obs = reg
	sys, err := soteria.Train(corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := soteria.OpenCache(soteria.CacheConfig{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := cache.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	mr := soteria.NewModelRegistry(soteria.ModelRegistryConfig{Obs: reg, Cache: cache})
	defer mr.Close()
	id, err := soteria.AddModel(mr, sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := mr.Activate(id); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serveHandler(reg, mr))
	defer srv.Close()

	res, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	bodyClose(t, res)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", res.StatusCode)
	}

	// Analyze one binary through the server and require the decision to
	// match a direct Analyze call with the same salt.
	raw, err := corpus[0].Binary.Encode()
	if err != nil {
		t.Fatal(err)
	}
	res, err = http.Post(srv.URL+"/analyze?salt=42", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var got analyzeResponse
	if err := json.NewDecoder(res.Body).Decode(&got); err != nil {
		t.Fatalf("/analyze response: %v", err)
	}
	bodyClose(t, res)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/analyze status %d", res.StatusCode)
	}
	want, err := sys.Analyze(corpus[0].CFG, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got.RE != want.RE || got.Adversarial != want.Adversarial || got.Class != want.Class.String() {
		t.Fatalf("/analyze decision %+v diverges from Analyze {%v %v %v}",
			got, want.Adversarial, want.RE, want.Class)
	}

	// /metrics must be valid JSON and include training and serving
	// metrics now that one request went through.
	res, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v", err)
	}
	bodyClose(t, res)
	for _, name := range []string{
		"train.detector.epochs", "train.classifier.epochs",
		"pipeline.samples", "batcher.wait_ns", "detector.re",
		"registry.active_version",
	} {
		if _, ok := snap[name]; !ok {
			t.Errorf("/metrics missing %q", name)
		}
	}

	// Error paths: wrong method, junk body, oversize body.
	res, err = http.Get(srv.URL + "/analyze")
	if err != nil {
		t.Fatal(err)
	}
	bodyClose(t, res)
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /analyze status %d, want 405", res.StatusCode)
	}
	// A body that does not parse, POSTed twice with the same salt, is a
	// client error both times: the failure is not cached.
	cached := cache.Len()
	for i := 0; i < 2; i++ {
		res, err = http.Post(srv.URL+"/analyze?salt=3", "application/octet-stream", strings.NewReader("not a binary"))
		if err != nil {
			t.Fatal(err)
		}
		bodyClose(t, res)
		if res.StatusCode != http.StatusBadRequest {
			t.Fatalf("junk /analyze #%d status %d, want 400", i+1, res.StatusCode)
		}
	}
	// A body that decodes as SOTB but whose entry point lies outside
	// every section does not disassemble.
	bad := *corpus[0].Binary
	bad.Entry = 0xdead000
	badRaw, err := bad.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := soteria.ParseBinary(badRaw); err != nil {
		t.Fatalf("the bad-entry body must decode: %v", err)
	}
	res, err = http.Post(srv.URL+"/analyze", "application/octet-stream", bytes.NewReader(badRaw))
	if err != nil {
		t.Fatal(err)
	}
	bodyClose(t, res)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("undisassemblable /analyze status %d, want 400", res.StatusCode)
	}
	if n := cache.Len(); n != cached {
		t.Fatalf("cache holds %d verdicts after failed requests, want %d", n, cached)
	}
	res, err = http.Post(srv.URL+"/analyze", "application/octet-stream", bytes.NewReader(make([]byte, maxAnalyzeBody+1)))
	if err != nil {
		t.Fatal(err)
	}
	bodyClose(t, res)
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize /analyze status %d, want 413", res.StatusCode)
	}

	// pprof endpoints are mounted.
	for _, p := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		res, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		bodyClose(t, res)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", p, res.StatusCode)
		}
	}
}
