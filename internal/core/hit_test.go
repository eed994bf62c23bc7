package core_test

import (
	"context"
	"testing"

	"soteria/internal/core"
	"soteria/internal/registry"
	"soteria/internal/store"
)

// TestVerdictHitAllocationBound pins the warm verdict-hit budget on
// every entry path that serves raw bytes: a repeat is a content hash, a
// map lookup, and one Decision — at most 5 allocations, instrumented.
// The verdict is warmed through AnalyzeBinary only, so the Batcher and
// Registry rows also pin that every path shares one key: a miss there
// would parse, disassemble and extract, hundreds of allocations.
func TestVerdictHitAllocationBound(t *testing.T) {
	p, raws := core.CacheTestEnv(t)
	raw := raws[2]
	const salt = 77
	c, err := store.Open(store.Config{})
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
	want, err := p.AnalyzeBinary(raw, salt)
	if err != nil {
		t.Fatal(err)
	}

	b := core.NewBatcher(p)
	defer b.Close()
	r := registry.New(registry.Config{Cache: c})
	defer r.Close()
	id, err := r.Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Activate(id); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	paths := []struct {
		name string
		hit  func() (*core.Decision, error)
	}{
		{"AnalyzeBinary", func() (*core.Decision, error) { return p.AnalyzeBinary(raw, salt) }},
		{"Batcher", func() (*core.Decision, error) { return b.Submit(ctx, raw, salt) }},
		{"Registry", func() (*core.Decision, error) { return r.Submit(ctx, raw, salt) }},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			got, err := path.hit()
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Fatalf("hit %+v, want %+v", *got, *want)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := path.hit(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 5 {
				t.Fatalf("verdict hit allocates %.0f/op, budget is 5", allocs)
			}
		})
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("cache holds %d verdicts after hits on every path, want 1", n)
	}
}
