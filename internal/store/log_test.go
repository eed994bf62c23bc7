package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func openTemp(t *testing.T, dir string, max int64) *Cache {
	t.Helper()
	c, err := Open(Config{Dir: dir, MaxBytes: max})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func closeCache(t *testing.T, c *Cache) {
	t.Helper()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRestartReplay(t *testing.T) {
	dir := t.TempDir()
	c := openTemp(t, dir, 0)
	want := Verdict{Adversarial: true, RE: 3.25, Class: 1}
	c.PutVerdict(testKey(1), want)
	c.PutVerdict(testKey(2), Verdict{Class: 2})
	closeCache(t, c)

	// A fresh Open over the same dir must serve everything as hits.
	c2 := openTemp(t, dir, 0)
	defer closeCache(t, c2)
	if c2.Len() != 2 {
		t.Fatalf("replayed Len = %d, want 2", c2.Len())
	}
	got, ok := c2.Verdict(testKey(1))
	if !ok || got != want {
		t.Fatalf("replayed verdict = %+v, %v", got, ok)
	}
	if _, ok := c2.Verdict(testKey(2)); !ok {
		t.Fatal("second key lost across restart")
	}
}

func TestLatestWriteWinsOnReplay(t *testing.T) {
	dir := t.TempDir()
	c := openTemp(t, dir, 0)
	c.PutVerdict(testKey(1), Verdict{Class: 1})
	c.PutVerdict(testKey(1), Verdict{Class: 9})
	closeCache(t, c)

	c2 := openTemp(t, dir, 0)
	defer closeCache(t, c2)
	v, ok := c2.Verdict(testKey(1))
	if !ok || v.Class != 9 {
		t.Fatalf("replay kept %+v, want the later write", v)
	}
	if c2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c2.Len())
	}
}

// TestCorruptTailRecovery simulates a crash mid-append: the log's tail
// is damaged three different ways, and each time replay must keep
// every intact record, truncate the garbage, and accept new appends
// that survive the next restart.
func TestCorruptTailRecovery(t *testing.T) {
	corruptions := map[string]func(path string, t *testing.T){
		"truncated mid-record": func(path string, t *testing.T) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-5); err != nil {
				t.Fatal(err)
			}
		},
		"flipped payload byte": func(path string, t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-3] ^= 0xff
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"garbage frame appended": func(path string, t *testing.T) {
			appendBytes(t, path, []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
		},
		// A length- and CRC-intact record of a kind replay does not know
		// is corruption too (only the retired kind 2 is skipped), so an
		// intact verdict behind it must not replay.
		"unknown record kind": func(path string, t *testing.T) {
			appendBytes(t, path, frame(append([]byte{3}, make([]byte, 80)...)))
			appendBytes(t, path, appendRecord(nil, &entry{key: testKey(4), verdict: Verdict{Class: 4}}))
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c := openTemp(t, dir, 0)
			c.PutVerdict(testKey(1), Verdict{Class: 1})
			c.PutVerdict(testKey(2), Verdict{Class: 2}) // tail record: the victim
			closeCache(t, c)

			path := filepath.Join(dir, logName)
			corrupt(path, t)

			c2 := openTemp(t, dir, 0)
			if _, ok := c2.Verdict(testKey(1)); !ok {
				t.Fatal("intact record lost")
			}
			if _, ok := c2.Verdict(testKey(4)); ok {
				t.Fatal("a record behind the corruption replayed")
			}
			// Appending after recovery must land after the truncated
			// tail, not behind garbage.
			c2.PutVerdict(testKey(3), Verdict{Class: 3})
			closeCache(t, c2)

			c3 := openTemp(t, dir, 0)
			defer closeCache(t, c3)
			if _, ok := c3.Verdict(testKey(1)); !ok {
				t.Fatal("intact record lost after reappend")
			}
			if _, ok := c3.Verdict(testKey(3)); !ok {
				t.Fatal("post-recovery append lost")
			}
		})
	}
}

// twoTierFixture is a log written by the cache while it still had a
// feature tier. Keys 1-3 each have a feature record (kind 2) written
// before their verdict, as every miss wrote them; key 2's verdict is
// later overwritten; a trailing feature record for key 4 has no verdict
// (a crash between the two writes of a miss).
const twoTierFixture = "testdata/two_tier_v1.log"

// twoTierVerdicts is the latest verdict per key in twoTierFixture.
var twoTierVerdicts = map[Key]Verdict{
	testKey(1): {Adversarial: true, RE: 0.1 + 0.2, Class: 3},
	testKey(2): {RE: 12345.678, Class: 1},
	testKey(3): {Adversarial: true, RE: 1e-300, Class: 2},
}

// TestReplaySkipsRetiredFeatureRecords pins the upgrade path for cache
// directories written before the feature tier was removed: every
// verdict replays with its exact value, the retired records are
// skipped rather than truncated away, and a rotation drops them.
func TestReplaySkipsRetiredFeatureRecords(t *testing.T) {
	raw, err := os.ReadFile(twoTierFixture)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(recordKinds(t, raw)), "\x02\x01\x02\x01\x02\x01\x01\x02"; got != want {
		t.Fatalf("fixture record kinds = %q, want %q", got, want)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, logName)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	checkVerdicts := func(c *Cache) {
		t.Helper()
		if c.Len() != len(twoTierVerdicts) {
			t.Fatalf("Len = %d, want %d", c.Len(), len(twoTierVerdicts))
		}
		for k, want := range twoTierVerdicts {
			if got, ok := c.Verdict(k); !ok || got != want {
				t.Fatalf("key %d: verdict = %+v, %v; want %+v", k.Salt, got, ok, want)
			}
		}
		if _, ok := c.Verdict(testKey(4)); ok {
			t.Fatal("a key with only a feature record replayed as a verdict")
		}
	}

	c := openTemp(t, dir, 0)
	checkVerdicts(c)
	if c.logBytes != int64(len(raw)) {
		t.Fatalf("replay stopped at byte %d of %d", c.logBytes, len(raw))
	}
	closeCache(t, c)
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, raw) {
		t.Fatalf("opening the log changed it (%d -> %d bytes, err %v)", len(raw), len(after), err)
	}

	c = openTemp(t, dir, 0)
	c.mu.Lock()
	c.maybeRotateLockedForTest()
	c.mu.Unlock()
	closeCache(t, c)
	rotated, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(recordKinds(t, rotated)), "\x01\x01\x01"; got != want {
		t.Fatalf("rotated record kinds = %q, want %q", got, want)
	}
	c = openTemp(t, dir, 0)
	defer closeCache(t, c)
	checkVerdicts(c)
}

// recordKinds returns the kind byte of every framed record in a log.
func recordKinds(t *testing.T, raw []byte) []byte {
	t.Helper()
	if len(raw) < 8 || string(raw[:4]) != logMagic {
		t.Fatal("not a cache log")
	}
	var kinds []byte
	for off := 8; off < len(raw); {
		if off+8 > len(raw) {
			t.Fatalf("torn frame at byte %d", off)
		}
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		if n == 0 || off+8+n > len(raw) {
			t.Fatalf("bad record length %d at byte %d", n, off)
		}
		kinds = append(kinds, raw[off+8])
		off += 8 + n
	}
	return kinds
}

// frame wraps payload in a record frame with a valid length and CRC.
func frame(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNotACacheLog(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), []byte("definitely not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("Open accepted a foreign file as the log")
	}
}

// TestRotationCompactsDeadWeight overwrites one key until the log
// passes the rotation threshold, then checks the log was compacted and
// still replays the last write.
func TestRotationCompactsDeadWeight(t *testing.T) {
	dir := t.TempDir()
	c := openTemp(t, dir, 0)
	// A verdict record is 94 bytes, so ~11.2k overwrites pass the 1MB
	// threshold with only one record live.
	const writes = 12000
	for i := 0; i < writes; i++ {
		c.PutVerdict(testKey(1), Verdict{RE: float64(i)})
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > rotateThreshold {
		t.Fatalf("log not compacted: %d bytes", fi.Size())
	}
	closeCache(t, c)

	c2 := openTemp(t, dir, 0)
	defer closeCache(t, c2)
	v, ok := c2.Verdict(testKey(1))
	if !ok || v.RE != writes-1 {
		t.Fatalf("post-rotation replay = %+v, %v; want last write", v, ok)
	}
	if c2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c2.Len())
	}
}

// TestRotationPreservesLRUOrder checks the snapshot is written oldest
// first: after rotation + replay, eviction order matches pre-rotation
// recency.
func TestRotationPreservesLRUOrder(t *testing.T) {
	dir := t.TempDir()
	c := openTemp(t, dir, 0)
	for i := byte(1); i <= 3; i++ {
		c.PutVerdict(testKey(i), Verdict{Class: int32(i)})
	}
	c.Verdict(testKey(1)) // 1 becomes most recent; 2 is now LRU
	c.mu.Lock()
	c.maybeRotateLockedForTest()
	c.mu.Unlock()
	closeCache(t, c)

	// Replay under a budget that holds exactly two entries: key 2 (the
	// oldest) must be the one evicted.
	c2 := openTemp(t, dir, 2*entryOverhead)
	defer closeCache(t, c2)
	if _, ok := c2.Verdict(testKey(2)); ok {
		t.Fatal("LRU entry survived budgeted replay")
	}
	if _, ok := c2.Verdict(testKey(3)); !ok {
		t.Fatal("recent entry evicted")
	}
	if _, ok := c2.Verdict(testKey(1)); !ok {
		t.Fatal("most recent entry evicted")
	}
}

// maybeRotateLockedForTest forces a rotation regardless of thresholds.
func (c *Cache) maybeRotateLockedForTest() {
	c.logBytes = rotateThreshold + 2*c.liveLocked()
	c.maybeRotateLocked()
}

func TestEvictedEntriesStayDeadAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	c := openTemp(t, dir, 2*entryOverhead)
	for i := byte(1); i <= 5; i++ {
		c.PutVerdict(testKey(i), Verdict{Class: int32(i)})
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	closeCache(t, c)

	// The log still holds all five records, but replay re-applies the
	// budget: only the two most recent survive.
	c2 := openTemp(t, dir, 2*entryOverhead)
	defer closeCache(t, c2)
	if c2.Len() != 2 {
		t.Fatalf("replayed Len = %d, want 2", c2.Len())
	}
	for i := byte(1); i <= 3; i++ {
		if _, ok := c2.Verdict(testKey(i)); ok {
			t.Fatalf("evicted key %d resurrected by replay", i)
		}
	}
	for i := byte(4); i <= 5; i++ {
		if _, ok := c2.Verdict(testKey(i)); !ok {
			t.Fatalf("recent key %d lost", i)
		}
	}
}
