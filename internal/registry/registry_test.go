package registry_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"soteria/internal/core"
	"soteria/internal/malgen"
	"soteria/internal/obs"
	"soteria/internal/registry"
	"soteria/internal/store"
)

// The fixture trains two tiny distinct pipelines once per test binary
// (training dominates test time) and shares them read-only-ish across
// tests: registries instrument them idempotently and attach caches
// only when a test configures one.
var (
	fixOnce sync.Once
	fix     struct {
		p1, p2  *core.Pipeline
		samples []*malgen.Sample
		raws    [][]byte
		err     error
	}
)

// pipelines returns the two fixture pipelines, their training samples,
// and each sample's SOTB encoding: the bytes a submitter sends.
func pipelines(t *testing.T) (*core.Pipeline, *core.Pipeline, []*malgen.Sample, [][]byte) {
	t.Helper()
	if testing.Short() {
		t.Skip("trains pipelines")
	}
	fixOnce.Do(func() {
		gen := malgen.NewGenerator(malgen.Config{Seed: 7})
		for _, c := range malgen.Classes {
			for i := 0; i < 3; i++ {
				s, err := gen.Sample(c)
				if err != nil {
					fix.err = err
					return
				}
				fix.samples = append(fix.samples, s)
				raw, err := s.Binary.Encode()
				if err != nil {
					fix.err = err
					return
				}
				fix.raws = append(fix.raws, raw)
			}
		}
		opts := core.DefaultOptions()
		opts.Features.WalkCount = 3
		opts.DetectorEpochs = 6
		opts.ClassifierEpochs = 6
		opts.Filters = 4
		opts.DenseUnits = 16
		opts.Seed = 7
		if fix.p1, fix.err = core.Train(fix.samples, opts); fix.err != nil {
			return
		}
		// A different training seed gives genuinely different weights —
		// and therefore a different fingerprint and version ID.
		opts.Seed = 8
		fix.p2, fix.err = core.Train(fix.samples, opts)
	})
	if fix.err != nil {
		t.Fatal(fix.err)
	}
	return fix.p1, fix.p2, fix.samples, fix.raws
}

func TestLoadActivateSubmit(t *testing.T) {
	p1, p2, samples, raws := pipelines(t)
	r := registry.New(registry.Config{})
	defer r.Close()

	if _, err := r.Submit(context.Background(), raws[0], 0); err != registry.ErrNoActive {
		t.Fatalf("Submit before activation: %v, want ErrNoActive", err)
	}

	id1, err := r.Load(p1)
	if err != nil {
		t.Fatal(err)
	}
	if len(id1) != 16 {
		t.Fatalf("version ID %q, want 16 hex digits", id1)
	}
	if again, err := r.Load(p1); err != nil || again != id1 {
		t.Fatalf("re-Load = (%q, %v), want idempotent (%q, nil)", again, err, id1)
	}
	id2, err := r.Load(p2)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id1 {
		t.Fatal("distinct models share a version ID")
	}

	if err := r.Activate(id1); err != nil {
		t.Fatal(err)
	}
	if r.Active() != id1 {
		t.Fatalf("Active() = %q, want %q", r.Active(), id1)
	}

	// Registry decisions are bit-identical to direct Analyze calls.
	for i, s := range samples[:4] {
		want, err := p1.Analyze(s.CFG, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Submit(context.Background(), raws[i], int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Fatalf("sample %d: registry %+v != direct %+v", i, got, want)
		}
	}
	if _, err := r.Submit(context.Background(), []byte("junk"), 0); !errors.Is(err, core.ErrBadBinary) {
		t.Fatalf("junk Submit: %v, want core.ErrBadBinary", err)
	}

	list := r.List()
	if len(list) != 2 {
		t.Fatalf("List() has %d entries, want 2", len(list))
	}
	if list[0].ID != id1 || !list[0].Active || !list[0].Ready {
		t.Fatalf("list[0] = %+v, want active ready %q", list[0], id1)
	}
	if list[1].ID != id2 || list[1].Active || list[1].Ready {
		t.Fatalf("list[1] = %+v, want standby %q", list[1], id2)
	}

	if err := r.Activate("feedfacefeedface"); err == nil {
		t.Fatal("activating an unknown version should error")
	}
}

// TestSwapUnderLoad is the hot-swap invariant pin, run under -race by
// the verify suite: concurrent submitters hammer the registry while
// the active version flips back and forth. Every decision must be
// bit-identical to one of the two versions' direct Analyze output for
// that (sample, salt) — a torn read mixing versions would produce a
// decision neither model makes — and no request may error during any
// swap.
func TestSwapUnderLoad(t *testing.T) {
	p1, p2, samples, raws := pipelines(t)
	r := registry.New(registry.Config{})
	defer r.Close()
	id1, err := r.Load(p1)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := r.Load(p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Activate(id1); err != nil {
		t.Fatal(err)
	}

	// Direct per-version ground truth, computed before the storm.
	type pair struct{ d1, d2 core.Decision }
	truth := make([]pair, len(samples))
	for i, s := range samples {
		d1, err := p1.Analyze(s.CFG, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		d2, err := p2.Analyze(s.CFG, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		truth[i] = pair{*d1, *d2}
	}

	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perWorker; i++ {
				n := (w + i) % len(samples)
				dec, err := r.Submit(ctx, raws[n], int64(n))
				if err != nil {
					errc <- err
					return
				}
				if *dec != truth[n].d1 && *dec != truth[n].d2 {
					t.Errorf("sample %d: decision %+v matches neither version (%+v / %+v)",
						n, dec, truth[n].d1, truth[n].d2)
					return
				}
			}
		}(w)
	}

	// Flip the active version while the submitters run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		ids := [2]string{id2, id1}
		for i := 0; i < 12; i++ {
			if err := r.Activate(ids[i%2]); err != nil {
				t.Errorf("Activate during load: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	wg.Wait()
	<-done
	close(errc)
	for err := range errc {
		t.Fatalf("request failed during swap: %v", err)
	}
}

func TestShadowScoringAndCutover(t *testing.T) {
	p1, p2, _, raws := pipelines(t)
	o := obs.NewRegistry()
	r := registry.New(registry.Config{Obs: o})
	defer r.Close()
	id1, _ := r.Load(p1)
	id2, _ := r.Load(p2)
	if err := r.Activate(id1); err != nil {
		t.Fatal(err)
	}

	if err := r.Shadow(id1, 1); err == nil {
		t.Fatal("shadowing the active version should error")
	}
	if err := r.Shadow("feedfacefeedface", 1); err == nil {
		t.Fatal("shadowing an unknown version should error")
	}
	if err := r.Shadow(id2, 1); err != nil {
		t.Fatal(err)
	}

	// Drive traffic until the async scorer has compared a few mirrors.
	deadline := time.Now().Add(10 * time.Second)
	var stats registry.ShadowStats
	for {
		for i, raw := range raws {
			if _, err := r.Submit(context.Background(), raw, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		var ok bool
		stats, ok = r.ShadowStats()
		if !ok {
			t.Fatal("shadow session vanished")
		}
		if stats.Compared >= uint64(len(raws)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shadow scorer compared only %d mirrors", stats.Compared)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if stats.ID != id2 || stats.Every != 1 {
		t.Fatalf("stats identity = %+v, want candidate %q every=1", stats, id2)
	}
	if stats.Agreement < 0 || stats.Agreement > 1 {
		t.Fatalf("agreement %v outside [0,1]", stats.Agreement)
	}
	if stats.REMean <= 0 {
		t.Fatalf("shadow RE mean %v, want > 0", stats.REMean)
	}

	// The gating metrics are published under registry.* names.
	snap := o.Snapshot()
	if got := snap["registry.active_version"]; got != id1 {
		t.Fatalf("registry.active_version = %v, want %q", got, id1)
	}
	if snap["registry.shadow_compared"].(uint64) == 0 {
		t.Fatal("registry.shadow_compared not populated")
	}
	for _, name := range []string{"registry.shadow_agreement", "registry.shadow_drift_sigma", "registry.versions", "registry.swaps"} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("metric %q missing from snapshot", name)
		}
	}

	// Cutover: activating the shadowed candidate ends the session and
	// counts a swap.
	if err := r.Activate(id2); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.ShadowStats(); ok {
		t.Fatal("shadow session should end when its candidate activates")
	}
	snap = o.Snapshot()
	if got := snap["registry.active_version"]; got != id2 {
		t.Fatalf("registry.active_version = %v after cutover, want %q", got, id2)
	}
	if snap["registry.swaps"].(uint64) != 1 {
		t.Fatalf("registry.swaps = %v, want 1", snap["registry.swaps"])
	}

	// every=0 disables an ongoing session.
	if err := r.Shadow(id1, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Shadow(id1, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.ShadowStats(); ok {
		t.Fatal("Shadow(id, 0) should stop shadowing")
	}
}

// TestSharedCacheDisjointKeyspaces pins the fingerprint/cache
// interplay: two versions sharing one cache never serve each other's
// entries, because keys embed each version's fingerprint.
func TestSharedCacheDisjointKeyspaces(t *testing.T) {
	p1, p2, samples, raws := pipelines(t)
	cache, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	// The fixture pipelines are shared; detach the cache on exit so
	// later tests see the uncached fixture they expect.
	defer func() {
		_ = p1.AttachCache(nil)
		_ = p2.AttachCache(nil)
	}()
	r := registry.New(registry.Config{Cache: cache})
	defer r.Close()
	id1, _ := r.Load(p1)
	id2, _ := r.Load(p2)
	if err := r.Activate(id1); err != nil {
		t.Fatal(err)
	}
	d1, err := r.Submit(context.Background(), raws[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Activate(id2); err != nil {
		t.Fatal(err)
	}
	d2, err := r.Submit(context.Background(), raws[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	want1, _ := p1.Analyze(samples[0].CFG, 0)
	want2, _ := p2.Analyze(samples[0].CFG, 0)
	if *d1 != *want1 {
		t.Fatalf("v1 decision %+v != direct %+v", d1, want1)
	}
	if *d2 != *want2 {
		t.Fatalf("v2 decision %+v != direct %+v (cross-version cache hit?)", d2, want2)
	}
}

func TestLoadSavedRoundTrip(t *testing.T) {
	p1, _, samples, raws := pipelines(t)
	var buf bytes.Buffer
	if err := p1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r := registry.New(registry.Config{})
	defer r.Close()
	id, err := r.LoadSaved(&buf)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := registry.VersionID(p1)
	if err != nil {
		t.Fatal(err)
	}
	if id != direct {
		t.Fatalf("LoadSaved ID %q != source pipeline ID %q", id, direct)
	}
	if err := r.Activate(id); err != nil {
		t.Fatal(err)
	}
	want, _ := p1.Analyze(samples[1].CFG, 1)
	got, err := r.Submit(context.Background(), raws[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("loaded-version decision %+v != source %+v", got, want)
	}
}

func TestCloseRejectsFurtherWork(t *testing.T) {
	p1, _, _, raws := pipelines(t)
	r := registry.New(registry.Config{})
	id, _ := r.Load(p1)
	if err := r.Activate(id); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	if _, err := r.Submit(context.Background(), raws[0], 0); err == nil {
		t.Fatal("Submit after Close should error")
	}
	if _, err := r.Load(p1); err != registry.ErrClosed {
		t.Fatalf("Load after Close: %v, want ErrClosed", err)
	}
	if err := r.Activate(id); err != registry.ErrClosed {
		t.Fatalf("Activate after Close: %v, want ErrClosed", err)
	}
	if err := r.Shadow(id, 1); err != registry.ErrClosed {
		t.Fatalf("Shadow after Close: %v, want ErrClosed", err)
	}
}
