package store

// The record log. Format:
//
//	header   "SOTC" | u32 version            (8 bytes)
//	record   u32 len | u32 crc32(payload) | payload
//	payload  kind u8 | content [32] | salt u64 | model [32] | body
//	body     flag u8 | u64 float bits of RE | u32 class    (kind 1)
//
// All integers are little-endian. The CRC plus the length prefix makes
// a torn tail self-evident on replay: the first record that fails the
// length or checksum ends the replay and the file is truncated back to
// the end of the last intact record.
//
// Kind 2 was the feature-vector record of a retired second cache tier.
// Logs written before its removal start with one, so replay skips an
// intact kind-2 record instead of treating it as corruption; its bytes
// stay in the log as dead weight until the next rotation drops them.
// Any other unknown kind still ends the replay.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

const (
	logName    = "cache.log"
	logMagic   = "SOTC"
	logVersion = 1

	maxRecordLen = 64 << 20 // sanity bound on one record's payload

	// Record kinds: the payload's first byte.
	kindVerdict         byte = 1
	kindRetiredFeatures byte = 2
)

// openLog replays (or creates) the log at path and leaves c.f open for
// appending at the end of the last intact record.
func (c *Cache) openLog(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	good, err := c.replay(f)
	if err != nil {
		_ = f.Close()
		return err
	}
	// Drop any torn or corrupt tail so appends land after intact data.
	if fi, err := f.Stat(); err == nil && fi.Size() > good {
		if err := f.Truncate(good); err != nil {
			_ = f.Close()
			return fmt.Errorf("store: truncate corrupt tail: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		_ = f.Close()
		return fmt.Errorf("store: %w", err)
	}
	c.f = f
	c.logBytes = good
	return nil
}

// replay scans the log, inserting every intact verdict record into the
// index (later records win, and the LRU order follows log order so the
// oldest writes evict first) and skipping intact retired feature
// records. It returns the offset just past the last intact record. A
// fresh/empty file gets its header written here.
func (c *Cache) replay(f *os.File) (int64, error) {
	var hdr [8]byte
	n, err := io.ReadFull(f, hdr[:])
	if err == io.EOF && n == 0 {
		binary.LittleEndian.PutUint32(hdr[4:], logVersion)
		copy(hdr[:4], logMagic)
		if _, err := f.Write(hdr[:]); err != nil {
			return 0, fmt.Errorf("store: write header: %w", err)
		}
		return int64(len(hdr)), nil
	}
	if err != nil || string(hdr[:4]) != logMagic || binary.LittleEndian.Uint32(hdr[4:]) != logVersion {
		return 0, fmt.Errorf("store: %s is not a cache log", f.Name())
	}
	good := int64(len(hdr))
	var frame [8]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(f, frame[:]); err != nil {
			return good, nil // clean EOF or torn frame: stop here
		}
		length := binary.LittleEndian.Uint32(frame[:4])
		sum := binary.LittleEndian.Uint32(frame[4:])
		if length == 0 || length > maxRecordLen {
			return good, nil
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(f, payload); err != nil {
			return good, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return good, nil
		}
		if payload[0] != kindRetiredFeatures {
			e, ok := decodeRecord(payload)
			if !ok {
				return good, nil
			}
			c.insert(e, false)
		}
		good += int64(len(frame)) + int64(length)
	}
}

// appendLocked encodes e and appends it to the log. Caller holds c.mu.
// On write failure the log is abandoned (sticky ioErr, cache becomes
// memory-only) rather than risking a half-written interior record.
func (c *Cache) appendLocked(e *entry) {
	c.buf = appendRecord(c.buf[:0], e)
	if _, err := c.f.Write(c.buf); err != nil {
		c.ioErr = fmt.Errorf("store: append: %w", err)
		_ = c.f.Close()
		c.f = nil
		return
	}
	c.logBytes += int64(len(c.buf))
	c.maybeRotateLocked()
}

// rotateThreshold is the minimum log size before compaction is
// considered; below it rewriting is not worth the I/O.
const rotateThreshold = 1 << 20

// maybeRotateLocked compacts the log when more than half of it is dead
// weight (overwritten or evicted records). The live entries are
// written oldest-first to a temp file which atomically replaces the
// log, so a crash at any point leaves either the old or the new log
// intact. Caller holds c.mu.
func (c *Cache) maybeRotateLocked() {
	if c.logBytes < rotateThreshold || c.logBytes < 2*c.liveLocked() {
		return
	}
	path := c.f.Name()
	tmp, err := os.CreateTemp(c.dir, logName+".tmp*")
	if err != nil {
		c.ioErr = fmt.Errorf("store: rotate: %w", err)
		return
	}
	written, err := c.writeSnapshot(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		c.ioErr = fmt.Errorf("store: rotate: %w", err)
		_ = c.f.Close()
		c.f = nil
		return
	}
	// The old handle now points at an unlinked inode; reopen the new log
	// for appending.
	if err := c.f.Close(); err != nil {
		c.ioErr = fmt.Errorf("store: rotate: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		c.ioErr = fmt.Errorf("store: rotate: %w", err)
		c.f = nil
		return
	}
	c.f = f
	c.logBytes = written
}

// writeSnapshot writes the header plus every live entry, LRU-oldest
// first so a replay reconstructs the same recency order.
func (c *Cache) writeSnapshot(w io.Writer) (int64, error) {
	var hdr [8]byte
	copy(hdr[:4], logMagic)
	binary.LittleEndian.PutUint32(hdr[4:], logVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	total := int64(len(hdr))
	for e := c.tail; e != nil; e = e.prev {
		c.buf = appendRecord(c.buf[:0], e)
		if _, err := w.Write(c.buf); err != nil {
			return 0, err
		}
		total += int64(len(c.buf))
	}
	return total, nil
}

// appendRecord encodes e as one framed verdict record into dst.
func appendRecord(dst []byte, e *entry) []byte {
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame placeholder
	body := len(dst)
	dst = append(dst, kindVerdict)
	dst = append(dst, e.key.Content[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(e.key.Salt))
	dst = append(dst, e.key.Model[:]...)
	flag := byte(0)
	if e.verdict.Adversarial {
		flag = 1
	}
	dst = append(dst, flag)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.verdict.RE))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.verdict.Class))
	payload := dst[body:]
	binary.LittleEndian.PutUint32(dst[body-8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[body-4:], crc32.ChecksumIEEE(payload))
	return dst
}

// decodeRecord parses one verdict payload back into an entry; any
// other kind or a malformed body is rejected.
func decodeRecord(p []byte) (*entry, bool) {
	const keyLen = 1 + 32 + 8 + 32
	if len(p) != keyLen+1+8+4 || p[0] != kindVerdict {
		return nil, false
	}
	e := &entry{}
	copy(e.key.Content[:], p[1:33])
	e.key.Salt = int64(binary.LittleEndian.Uint64(p[33:41]))
	copy(e.key.Model[:], p[41:73])
	body := p[keyLen:]
	e.verdict.Adversarial = body[0] == 1
	e.verdict.RE = math.Float64frombits(binary.LittleEndian.Uint64(body[1:9]))
	e.verdict.Class = int32(binary.LittleEndian.Uint32(body[9:13]))
	return e, true
}
