package exec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// On-disk cache entry format, little-endian: a versioned magic header,
// length-validated fields and a trailing crc32 over everything before it:
//
//	u32 magic "PLDE" | u32 version | u64 key fingerprint |
//	u32 keyLen | key bytes | u32 valLen | value bytes | u32 crc32
//
// Entries are written to a temp file, fsynced, and renamed into place, so a
// reader never observes a half-written entry; a SIGKILL mid-write can only
// leave a stale temp file, which the eviction scan sweeps away.

const (
	diskMagic = 0x504C4445 // "PLDE"

	// DiskEntryVersion is the persistent cache-entry format version. Get
	// quarantines entries written by any other version and reports a miss,
	// so a format change costs re-evaluation, never a crash or a wrong hit.
	DiskEntryVersion = 1

	diskEntryExt  = ".plde"
	quarantineExt = ".quarantined"

	// diskEntryMinLen is the size of an entry with empty key and value:
	// magic + version + fingerprint + two length fields + crc32.
	diskEntryMinLen = 4 + 4 + 8 + 4 + 4 + 4
)

// DefaultDiskCacheBytes is the persistent tier's default LRU size cap.
const DefaultDiskCacheBytes int64 = 256 << 20

// fingerprint is the 64-bit FNV-1a hash of a key, which names the key's
// entry file and heads its envelope.
func fingerprint(k Key) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= prime64
	}
	return h
}

// encodeDiskEntry serialises one cache entry to its on-disk form.
func encodeDiskEntry(k Key, val []byte) []byte {
	b := make([]byte, 0, diskEntryMinLen+len(k)+len(val))
	b = binary.LittleEndian.AppendUint32(b, diskMagic)
	b = binary.LittleEndian.AppendUint32(b, DiskEntryVersion)
	b = binary.LittleEndian.AppendUint64(b, fingerprint(k))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(k)))
	b = append(b, k...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(val)))
	b = append(b, val...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decodeDiskEntry parses an on-disk entry, validating checksum, magic,
// version, both length fields and the key's fingerprint before trusting any
// of it. Corrupt or truncated input yields an error — never a panic, an
// unbounded allocation, or a silently wrong value.
func decodeDiskEntry(data []byte) (key Key, val []byte, err error) {
	fail := func(format string, args ...any) (Key, []byte, error) {
		return "", nil, fmt.Errorf("exec: bad cache entry: "+format, args...)
	}
	if len(data) < diskEntryMinLen {
		return fail("%d bytes is shorter than any entry", len(data))
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return fail("checksum mismatch (stored %08x, computed %08x)", sum, got)
	}
	if m := binary.LittleEndian.Uint32(body); m != diskMagic {
		return fail("bad magic %08x", m)
	}
	if v := binary.LittleEndian.Uint32(body[4:]); v != DiskEntryVersion {
		return fail("version %d, this build reads %d", v, DiskEntryVersion)
	}
	hash := binary.LittleEndian.Uint64(body[8:])
	keyLen := int(binary.LittleEndian.Uint32(body[16:]))
	rest := body[20:]
	if keyLen < 0 || keyLen > len(rest)-4 {
		return fail("key length %d exceeds remaining %d bytes", keyLen, len(rest))
	}
	key = Key(rest[:keyLen])
	if fp := fingerprint(key); fp != hash {
		return fail("fingerprint %016x does not match the key's %016x", hash, fp)
	}
	rest = rest[keyLen:]
	valLen := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if valLen < 0 || valLen != len(rest) {
		return fail("value length %d does not match remaining %d bytes", valLen, len(rest))
	}
	return key, rest, nil
}

// DiskStats is a point-in-time snapshot of the persistent tier's counters.
type DiskStats struct {
	Hits        int64 // entries served from disk
	Writes      int64 // entries written through this process
	Quarantined int64 // defective entries set aside for re-evaluation
	Evicted     int64 // entries removed by the LRU size cap
}

// DiskCache is the disk-backed persistent tier under the in-memory
// design-point cache: fingerprint-keyed entries, one file each, written
// atomically and bounded by an LRU size cap. It survives restarts — and
// SIGKILL — so a rerun of an interrupted sweep resumes from the completed
// design points instead of re-evaluating them. Safe for concurrent use
// within a process, and safe to share a directory across processes (writes
// are atomic renames). A nil *DiskCache is valid and disables the tier.
type DiskCache struct {
	dir      string
	maxBytes int64

	evictMu sync.Mutex // serialises size scans and evictions

	// approx tracks the tier's size without a directory scan per Put: seeded
	// by one scan at open, bumped by each write, corrected to the measured
	// total whenever an eviction sweep runs. Puts stay O(1) until the cap is
	// plausibly exceeded.
	approx atomic.Int64

	hits, writes, quarantined, evicted atomic.Int64
}

// OpenDiskCache opens (creating if needed) a persistent tier rooted at dir
// with the given size cap in bytes (<= 0 means DefaultDiskCacheBytes).
func OpenDiskCache(dir string, maxBytes int64) (*DiskCache, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultDiskCacheBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exec: cache dir: %w", err)
	}
	d := &DiskCache{dir: dir, maxBytes: maxBytes}
	var total int64
	if ents, err := os.ReadDir(dir); err == nil {
		for _, ent := range ents {
			if info, err := ent.Info(); err == nil && !ent.IsDir() {
				total += info.Size()
			}
		}
	}
	d.approx.Store(total)
	return d, nil
}

// path names k's entry file: the 64-bit fingerprint plus a crc32 of the
// full key string, so colliding fingerprints land in different files; the
// full key stored inside the entry catches the residual collisions.
func (d *DiskCache) path(k Key) string {
	return filepath.Join(d.dir,
		fmt.Sprintf("%016x-%08x%s", fingerprint(k), crc32.ChecksumIEEE([]byte(k)), diskEntryExt))
}

// Get returns the stored payload for k. Any defect — truncation, bit
// flips, bad magic, a stale format version — quarantines the file (renamed
// *.quarantined) and reports a miss, so the design point is re-evaluated
// rather than fatal or silently wrong. Nil-safe.
func (d *DiskCache) Get(k Key) ([]byte, bool) {
	if d == nil {
		return nil, false
	}
	path := d.path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	key, val, err := decodeDiskEntry(data)
	if err != nil {
		d.quarantine(path)
		return nil, false
	}
	if key != k {
		// A filename collision with a different key: that entry is valid,
		// just not ours. Leave it alone and miss.
		return nil, false
	}
	d.hits.Add(1)
	now := time.Now()
	os.Chtimes(path, now, now) // LRU recency, best-effort
	return val, true
}

// quarantine sets a defective entry aside so it is never read again but
// stays inspectable; if the rename fails the file is removed outright.
func (d *DiskCache) quarantine(path string) {
	d.quarantined.Add(1)
	if err := os.Rename(path, path+quarantineExt); err != nil {
		os.Remove(path)
	}
}

// Put writes the payload for k atomically: encoded into a temp file in the
// cache directory, fsynced, then renamed into place. A crash mid-write can
// only lose the entry being written, never corrupt an existing one.
// Nil-safe (a nil tier discards the write).
func (d *DiskCache) Put(k Key, val []byte) error {
	if d == nil {
		return nil
	}
	data := encodeDiskEntry(k, val)
	if int64(len(data)) > d.maxBytes {
		return fmt.Errorf("exec: cache entry of %d bytes exceeds the %d-byte tier cap", len(data), d.maxBytes)
	}
	f, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	serr := f.Sync()
	cerr := f.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, d.path(k)); err != nil {
		os.Remove(tmp)
		return err
	}
	d.writes.Add(1)
	if d.approx.Add(int64(len(data))) > d.maxBytes {
		d.enforceCap()
	}
	return nil
}

// enforceCap evicts least-recently-used entries until the tier fits its
// size cap, and sweeps temp files abandoned by crashed writers.
func (d *DiskCache) enforceCap() {
	d.evictMu.Lock()
	defer d.evictMu.Unlock()
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []entry
	var total int64
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		name := ent.Name()
		if strings.HasPrefix(name, ".tmp-") {
			if time.Since(info.ModTime()) > time.Minute {
				os.Remove(filepath.Join(d.dir, name))
			}
			continue
		}
		if !strings.HasSuffix(name, diskEntryExt) {
			continue
		}
		files = append(files, entry{filepath.Join(d.dir, name), info.Size(), info.ModTime()})
		total += info.Size()
	}
	if total <= d.maxBytes {
		d.approx.Store(total)
		return
	}
	// Oldest first; equal mtimes — common on filesystems with 1s mtime
	// granularity, where a whole burst of writes shares one timestamp —
	// break deterministically by file name (the fingerprint-derived key) so
	// eviction order never depends on directory iteration order.
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].path < files[j].path
	})
	for _, f := range files {
		if total <= d.maxBytes {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			d.evicted.Add(1)
		}
	}
	d.approx.Store(total)
}

// Flush is the shutdown barrier: every Put is already synchronous (temp
// file + fsync + rename), so Flush only has to make the renames themselves
// durable by syncing the cache directory. Nil-safe.
func (d *DiskCache) Flush() error {
	if d == nil {
		return nil
	}
	f, err := os.Open(d.dir)
	if err != nil {
		return err
	}
	defer f.Close()
	// Directory fsync is not supported on every platform; a failed sync is
	// not worth failing shutdown over.
	if err := f.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	return nil
}

// DiskEntryInfo describes one entry file of a persistent tier, for
// inspection tooling (tools/cache-inspect).
type DiskEntryInfo struct {
	File  string // base name of the entry file
	Key   string // full cache key (empty when Err != nil)
	Bytes int    // payload size (0 when Err != nil)
	Err   error  // non-nil when the entry is defective
}

// InspectDiskCache decodes every entry under dir without mutating anything
// (no quarantine, no recency touch) and reports each entry's key and
// payload size, or the defect that would get it quarantined. Quarantined
// and temp files are skipped.
func InspectDiskCache(dir string) ([]DiskEntryInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []DiskEntryInfo
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, diskEntryExt) {
			continue
		}
		info := DiskEntryInfo{File: name}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			info.Err = err
		} else if key, val, derr := decodeDiskEntry(data); derr != nil {
			info.Err = derr
		} else {
			info.Key, info.Bytes = string(key), len(val)
		}
		out = append(out, info)
	}
	return out, nil
}

// Stats snapshots the tier's counters. Nil-safe, and safe to call
// concurrently with in-flight Put/Get/Flush: every counter is an
// atomic.Int64, which the SIGINT summary path depends on — the deferred
// shutdown in cmd/plasticine reads these while worker goroutines may still
// be completing writes. TestDiskCacheStatsConcurrent pins this under -race.
func (d *DiskCache) Stats() DiskStats {
	if d == nil {
		return DiskStats{}
	}
	return DiskStats{
		Hits:        d.hits.Load(),
		Writes:      d.writes.Load(),
		Quarantined: d.quarantined.Load(),
		Evicted:     d.evicted.Load(),
	}
}
