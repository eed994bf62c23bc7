// Package store is a crash-safe, content-addressed verdict cache for
// the serving path: it memoizes final verdicts keyed by (content hash,
// salt, model fingerprint), so a repeat submission of byte-identical
// input skips the entire extract+score pipeline and becomes a hash
// lookup.
//
// The design is an append-only record log with an in-memory index:
//
//   - Every PutVerdict appends one length-prefixed, CRC-guarded record
//     to <dir>/cache.log and inserts the verdict into an in-memory map.
//     Lookups never touch the disk.
//   - On Open the log is replayed to rebuild the index. A torn or
//     corrupted tail record (a crash mid-append) ends the replay; the
//     file is truncated back to the last intact record and appending
//     resumes from there, so a crash costs at most the record being
//     written.
//   - The index is LRU-bounded by a configurable byte budget. When the
//     log accumulates enough dead weight (overwritten or evicted
//     records), it is compacted by writing the live entries to a
//     temporary file and atomically renaming it over the log.
//
// Entries are never stale by construction: the key includes a model
// fingerprint, so a retrained model addresses a disjoint key space and
// old entries simply stop being referenced (and age out of the LRU).
//
// The cache is safe for concurrent use. A nil *Cache discards all
// operations, so callers thread it unconditionally.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"soteria/internal/obs"
)

// Key addresses one memoized result. Content is a collision-resistant
// hash of the submitted input (the sha256 of a binary's raw bytes, on
// every entry path), Salt is the walk-randomness salt the result was
// computed under, and Model fingerprints the full serialized model
// state, so a retrained model can never serve another model's
// entries.
type Key struct {
	Content [32]byte
	Salt    int64
	Model   [32]byte
}

// Verdict is the cached form of a final decision. Class is kept as a
// plain integer so the store stays independent of the model packages.
type Verdict struct {
	Adversarial bool
	RE          float64
	Class       int32
}

// Config configures Open.
type Config struct {
	// Dir is the directory holding the record log. Empty means
	// memory-only: the cache works normally but nothing survives a
	// restart.
	Dir string
	// MaxBytes bounds the in-memory (and post-compaction on-disk) size
	// of the cache; least-recently-used entries are evicted past it.
	// Zero or negative means DefaultMaxBytes.
	MaxBytes int64
	// Obs, when non-nil, receives the cache's counters ("cache.hit",
	// "cache.miss", "cache.evict") and the live-byte gauge
	// ("cache.bytes"). Observations never affect cache behaviour.
	Obs *obs.Registry
}

// DefaultMaxBytes is the byte budget used when Config.MaxBytes is unset.
const DefaultMaxBytes = 256 << 20

// entry is one cached verdict, intrusively linked into the LRU list
// (head side is most recently used).
type entry struct {
	key        Key
	verdict    Verdict
	prev, next *entry
}

// entryOverhead approximates the per-entry cost (key, verdict,
// pointers, map slot) charged against the byte budget.
const entryOverhead = 128

// Cache is the content-addressed verdict cache. See the package comment
// for the design; construct with Open.
type Cache struct {
	mu      sync.Mutex
	max     int64
	index   map[Key]*entry
	head    *entry // most recently used
	tail    *entry // least recently used
	flights map[Key]*Flight

	// log state; f is nil when memory-only or after an I/O error
	// demoted the cache to memory-only.
	dir      string
	f        *os.File
	logBytes int64
	buf      []byte // append scratch, reused under mu
	ioErr    error  // first I/O error, sticky

	hits   *obs.Counter
	misses *obs.Counter
	evicts *obs.Counter
	bytes  *obs.Gauge
}

// Open opens (or creates) a cache. With a Dir, the existing record log
// is replayed into the index — entries stored before a restart are hits
// again — and a corrupt tail is truncated away. Callers must Close the
// cache to release the log file.
func Open(cfg Config) (*Cache, error) {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	c := &Cache{
		max:     cfg.MaxBytes,
		index:   make(map[Key]*entry),
		flights: make(map[Key]*Flight),
		dir:     cfg.Dir,
	}
	if r := cfg.Obs; r != nil {
		c.hits = r.Counter("cache.hit")
		c.misses = r.Counter("cache.miss")
		c.evicts = r.Counter("cache.evict")
		c.bytes = r.Gauge("cache.bytes")
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := c.openLog(filepath.Join(cfg.Dir, logName)); err != nil {
			return nil, err
		}
	}
	c.bytes.Set(float64(c.liveLocked()))
	return c, nil
}

// Verdict returns the cached verdict for k, refreshing its recency.
func (c *Cache) Verdict(k Key) (Verdict, bool) {
	if c == nil {
		return Verdict{}, false
	}
	c.mu.Lock()
	e, ok := c.index[k]
	var v Verdict
	if ok {
		c.touch(e)
		v = e.verdict
	}
	c.mu.Unlock()
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return v, ok
}

// PutVerdict stores the verdict for k, evicts past the budget, and
// appends the record to the log. A budget too small for one entry
// caches nothing. Best-effort on the durability side: an append error
// demotes the cache to memory-only (see Err).
func (c *Cache) PutVerdict(k Key, v Verdict) {
	if c == nil || entryOverhead > c.max {
		return
	}
	c.mu.Lock()
	c.insert(&entry{key: k, verdict: v}, true)
	live := c.liveLocked()
	c.mu.Unlock()
	c.bytes.Set(float64(live))
}

// insert is PutVerdict under c.mu; replay reuses it with persist=false.
func (c *Cache) insert(e *entry, persist bool) {
	if old, ok := c.index[e.key]; ok {
		c.unlink(old)
	}
	c.index[e.key] = e
	c.linkFront(e)
	for c.liveLocked() > c.max {
		lru := c.tail
		c.unlink(lru)
		delete(c.index, lru.key)
		c.evicts.Inc()
	}
	if persist && c.f != nil {
		c.appendLocked(e)
	}
}

// touch moves e to the recent end of the LRU list. Caller holds c.mu.
func (c *Cache) touch(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.linkFront(e)
}

func (c *Cache) linkFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// liveLocked returns the accounted in-memory bytes. Caller holds c.mu
// (or owns c exclusively, as Open does).
func (c *Cache) liveLocked() int64 { return int64(len(c.index)) * entryOverhead }

// Len returns the number of cached verdicts.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Err returns the first I/O error the cache hit, if any. After an I/O
// error the cache keeps serving from memory but stops persisting.
func (c *Cache) Err() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ioErr
}

// Close syncs and releases the record log. The cache must not be used
// afterwards. Returns the sticky I/O error if persistence failed
// earlier.
func (c *Cache) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f != nil {
		if err := c.f.Sync(); err != nil && c.ioErr == nil {
			c.ioErr = err
		}
		if err := c.f.Close(); err != nil && c.ioErr == nil {
			c.ioErr = err
		}
		c.f = nil
	}
	return c.ioErr
}

// Flight coordinates concurrent misses on one key: the first caller to
// Join a key leads (and does the real work); the rest wait on Done and
// read the leader's published verdict, so one miss fills the cache for
// every concurrent duplicate.
type Flight struct {
	done chan struct{}
	v    Verdict
	ok   bool
}

// Done is closed when the leader finishes (successfully or not).
func (f *Flight) Done() <-chan struct{} { return f.done }

// Result returns the leader's verdict. Valid only after Done is
// closed; ok is false when the leader failed and the caller should do
// the work itself.
func (f *Flight) Result() (Verdict, bool) { return f.v, f.ok }

// Join atomically looks up k's verdict and, on a miss, enrolls the
// caller in the key's in-flight computation: hit=true returns the
// cached verdict; otherwise the caller either leads the flight
// (leader=true — it must call Finish exactly once) or should wait on
// the returned flight's Done.
func (c *Cache) Join(k Key) (v Verdict, hit bool, fl *Flight, leader bool) {
	if c == nil {
		return Verdict{}, false, nil, true
	}
	c.mu.Lock()
	if e, ok := c.index[k]; ok {
		c.touch(e)
		v = e.verdict
		c.mu.Unlock()
		c.hits.Inc()
		return v, true, nil, false
	}
	if fl, ok := c.flights[k]; ok {
		c.mu.Unlock()
		return Verdict{}, false, fl, false
	}
	fl = &Flight{done: make(chan struct{})}
	c.flights[k] = fl
	c.mu.Unlock()
	c.misses.Inc()
	return Verdict{}, false, fl, true
}

// Finish completes a led flight: it publishes the result (ok=false
// signals failure, sending the waiters back to do the work themselves)
// and wakes every waiter. Finish does not store the verdict — the
// leader's scoring path already did.
func (c *Cache) Finish(k Key, fl *Flight, v Verdict, ok bool) {
	if c == nil || fl == nil {
		return
	}
	c.mu.Lock()
	if c.flights[k] == fl {
		delete(c.flights, k)
	}
	c.mu.Unlock()
	fl.v, fl.ok = v, ok
	close(fl.done)
}
