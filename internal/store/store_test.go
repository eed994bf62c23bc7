package store

import (
	"math/rand"
	"sync"
	"testing"

	"soteria/internal/obs"
)

func testKey(n byte) Key {
	var k Key
	k.Content[0] = n
	k.Content[31] = n ^ 0xff
	k.Salt = int64(n)
	k.Model[0] = 7
	return k
}

func TestMemoryRoundTrip(t *testing.T) {
	c, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	k := testKey(1)
	if _, ok := c.Verdict(k); ok {
		t.Fatal("hit on empty cache")
	}
	want := Verdict{Adversarial: true, RE: 0.125, Class: 3}
	c.PutVerdict(k, want)
	got, ok := c.Verdict(k)
	if !ok || got != want {
		t.Fatalf("Verdict = %+v, %v; want %+v, true", got, ok, want)
	}

	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}

	// A different salt must miss.
	k2 := k
	k2.Salt++
	if _, ok := c.Verdict(k2); ok {
		t.Fatal("salt change did not miss")
	}
	// A different model must miss.
	k3 := k
	k3.Model[5] = 99
	if _, ok := c.Verdict(k3); ok {
		t.Fatal("model change did not miss")
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	c.PutVerdict(testKey(1), Verdict{})
	if _, ok := c.Verdict(testKey(1)); ok {
		t.Fatal("nil cache hit")
	}
	if _, hit, fl, leader := c.Join(testKey(1)); hit || fl != nil || !leader {
		t.Fatal("nil Join should make every caller an uncoordinated leader")
	}
	c.Finish(testKey(1), nil, Verdict{}, true)
	if c.Len() != 0 || c.Err() != nil || c.Close() != nil {
		t.Fatal("nil accessors not inert")
	}
}

func TestObsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := Open(Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	k := testKey(4)
	c.Verdict(k) // miss
	c.PutVerdict(k, Verdict{Class: 1})
	c.Verdict(k) // hit
	snap := reg.Snapshot()
	if miss, _ := snap["cache.miss"].(uint64); miss != 1 {
		t.Fatalf("cache.miss = %v", snap["cache.miss"])
	}
	if hit, _ := snap["cache.hit"].(uint64); hit != 1 {
		t.Fatalf("cache.hit = %v", snap["cache.hit"])
	}
	if bytes, _ := snap["cache.bytes"].(float64); bytes <= 0 {
		t.Fatalf("cache.bytes = %v, want > 0", snap["cache.bytes"])
	}
}

// TestLRUAgainstReferenceModel drives a random op sequence against both
// the cache and a brute-force reference (map + recency slice) and
// checks that contents and eviction victims agree exactly.
func TestLRUAgainstReferenceModel(t *testing.T) {
	const budget = 16 * entryOverhead
	c, err := Open(Config{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	type refEnt struct {
		k Key
		v Verdict
	}
	var ref []refEnt // index 0 = least recently used
	find := func(k Key) int {
		for i := range ref {
			if ref[i].k == k {
				return i
			}
		}
		return -1
	}
	touch := func(i int) refEnt {
		e := ref[i]
		ref = append(ref[:i], ref[i+1:]...)
		ref = append(ref, e)
		return e
	}

	rng := rand.New(rand.NewSource(33))
	for step := 0; step < 5000; step++ {
		k := testKey(byte(rng.Intn(40)))
		if rng.Intn(2) == 0 {
			v := Verdict{RE: float64(step), Class: int32(step)}
			c.PutVerdict(k, v)
			if i := find(k); i >= 0 {
				ref[i].v = v
				touch(i)
			} else {
				ref = append(ref, refEnt{k, v})
			}
			for len(ref)*entryOverhead > budget {
				ref = ref[1:] // evict reference-LRU
			}
		} else {
			got, ok := c.Verdict(k)
			i := find(k)
			if ok != (i >= 0) {
				t.Fatalf("step %d: presence mismatch for key %d: cache=%v ref=%v", step, k.Salt, ok, i >= 0)
			}
			if ok {
				e := touch(i)
				if got != e.v {
					t.Fatalf("step %d: value mismatch: %+v vs %+v", step, got, e.v)
				}
			}
		}
		if c.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, ref = %d", step, c.Len(), len(ref))
		}
	}
}

func TestOversizeEntryDropped(t *testing.T) {
	for _, tc := range []struct {
		budget int64
		cached bool
	}{
		{entryOverhead - 1, false}, // smaller than one entry
		{entryOverhead, true},
	} {
		c, err := Open(Config{MaxBytes: tc.budget})
		if err != nil {
			t.Fatal(err)
		}
		k := testKey(9)
		c.PutVerdict(k, Verdict{Class: 2})
		if _, ok := c.Verdict(k); ok != tc.cached {
			t.Fatalf("budget %d: cached = %v, want %v", tc.budget, ok, tc.cached)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJoinFlightDedup(t *testing.T) {
	c, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	k := testKey(5)

	_, hit, fl, leader := c.Join(k)
	if hit || !leader || fl == nil {
		t.Fatalf("first Join: hit=%v leader=%v", hit, leader)
	}

	// Concurrent joiners all get the same flight, none lead.
	const n = 16
	var wg sync.WaitGroup
	results := make([]Verdict, n)
	for i := 0; i < n; i++ {
		_, hit2, fl2, leader2 := c.Join(k)
		if hit2 || leader2 || fl2 != fl {
			t.Fatalf("follower %d: hit=%v leader=%v sameFlight=%v", i, hit2, leader2, fl2 == fl)
		}
		wg.Add(1)
		go func(i int, fl *Flight) {
			defer wg.Done()
			<-fl.Done()
			v, ok := fl.Result()
			if !ok {
				t.Errorf("follower %d: leader reported failure", i)
				return
			}
			results[i] = v
		}(i, fl2)
	}

	want := Verdict{Adversarial: true, RE: 1.5, Class: 2}
	c.PutVerdict(k, want)
	c.Finish(k, fl, want, true)
	wg.Wait()
	for i, v := range results {
		if v != want {
			t.Fatalf("follower %d got %+v", i, v)
		}
	}

	// After Finish the flight is gone: a new Join hits the stored verdict.
	v, hit, _, _ := c.Join(k)
	if !hit || v != want {
		t.Fatalf("post-finish Join: %+v, hit=%v", v, hit)
	}
}

func TestJoinFlightLeaderFailure(t *testing.T) {
	c, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	k := testKey(6)
	_, _, fl, leader := c.Join(k)
	if !leader {
		t.Fatal("expected leadership")
	}
	_, _, fl2, leader2 := c.Join(k)
	if leader2 || fl2 != fl {
		t.Fatal("expected follower on same flight")
	}
	c.Finish(k, fl, Verdict{}, false)
	<-fl2.Done()
	if _, ok := fl2.Result(); ok {
		t.Fatal("failed flight reported ok")
	}
	// The key is free again: the follower can retry and lead.
	_, hit, _, leader3 := c.Join(k)
	if hit || !leader3 {
		t.Fatalf("retry: hit=%v leader=%v", hit, leader3)
	}
}
