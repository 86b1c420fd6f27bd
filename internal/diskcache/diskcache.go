// Package diskcache is a content-addressed on-disk cache shared by every
// SafeFlow process on a machine: the CLI's warm starts, sfbench
// iterations, and the safeflowd daemon all read and write the same
// store, so a translation unit parsed (or a module solved) by one
// process is a hit for the next — across process restarts.
//
// The store is an accelerator, never a source of record. Every read
// verifies the entry against the SHA-256 of its payload recorded at
// store time; an entry that fails the check — torn write on a crashed
// filesystem, bit rot, a concurrent writer from a different build — is
// evicted and reported as corrupt so the caller recomputes (and
// re-stores) it. A damaged entry can cost time, never change a verdict,
// which is the same self-healing contract the in-memory caches already
// keep (DESIGN.md §7).
//
// Writes are atomic: each entry is written to a temp file in the same
// directory and renamed into place, so concurrent processes never
// observe a torn entry — they see either the old bytes, the new bytes,
// or a miss. Entries are namespaced (one directory per namespace, e.g.
// "parse" and "summary") and versioned: a caller bumps its namespace
// version whenever its payload encoding changes, and entries written
// under any other version are invalidated on read instead of being
// decoded by the wrong codec.
//
// The store is size-bounded: when the total payload bytes exceed the
// budget, the least-recently-used entries (by file mtime, refreshed on
// every hit) are evicted until the store fits again.
package diskcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// CacheBackend is the interface the analysis pipeline caches persist
// through. *Store implements it; tests substitute in-memory fakes.
//
// Get returns the payload stored under (ns, version, key). ok reports a
// hit; corrupt reports that an entry existed but failed its integrity
// check and was evicted (the caller should count it in run metrics as a
// corrupt eviction and recompute). A version mismatch is a plain miss:
// the stale entry is evicted silently.
//
// Put stores the payload. Failures are deliberately silent — a cache
// that cannot write degrades to a smaller cache, never to an error.
type CacheBackend interface {
	Get(ns string, version uint32, key [sha256.Size]byte) (data []byte, ok bool, corrupt bool)
	Put(ns string, version uint32, key [sha256.Size]byte, data []byte)
}

// Entry file layout (little-endian):
//
//	magic       [4]byte  "SFDC"
//	format      uint32   entryFormat
//	nsVersion   uint32   caller codec version
//	payloadLen  uint64
//	payloadSum  [32]byte sha256(payload)
//	payload     [payloadLen]byte
const (
	entryMagic  = "SFDC"
	entryFormat = 1
	headerSize  = 4 + 4 + 4 + 8 + sha256.Size
)

// DefaultMaxBytes is the store budget used when Open is given 0.
const DefaultMaxBytes = 256 << 20 // 256 MiB

// Stats is a point-in-time snapshot of the store's counters (process
// local: other processes sharing the directory keep their own).
type Stats struct {
	Hits             int64 `json:"hits"`
	Misses           int64 `json:"misses"`
	Puts             int64 `json:"puts"`
	CorruptEvictions int64 `json:"corrupt_evictions"`
	VersionEvictions int64 `json:"version_evictions"`
	LRUEvictions     int64 `json:"lru_evictions"`
	BytesInUse       int64 `json:"bytes_in_use"`
	Entries          int64 `json:"entries"`
}

// Store is a content-addressed, size-bounded, integrity-checked cache
// directory. Safe for concurrent use by multiple goroutines and — via
// atomic renames — by multiple processes.
type Store struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	bytes int64 // payload+header bytes currently on disk (best effort)
	count int64
	stats Stats
}

// Open creates (if needed) and opens the cache directory. maxBytes
// bounds the total size of the store; 0 means DefaultMaxBytes. The
// initial size accounting scans the directory once so a reopened store
// enforces its budget against pre-existing entries.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes}
	s.bytes, s.count = scanSize(dir)
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// scanSize totals the size and count of entry files under dir.
func scanSize(dir string) (bytes, count int64) {
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !isEntryName(filepath.Base(path)) {
			return nil
		}
		bytes += info.Size()
		count++
		return nil
	})
	return bytes, count
}

// isEntryName reports whether base looks like a finished entry (a hex
// key), as opposed to a temp file mid-write.
func isEntryName(base string) bool {
	if len(base) != 2*sha256.Size {
		return false
	}
	_, err := hex.DecodeString(base)
	return err == nil
}

func (s *Store) path(ns string, key [sha256.Size]byte) string {
	return filepath.Join(s.dir, ns, hex.EncodeToString(key[:]))
}

// Get implements CacheBackend.
func (s *Store) Get(ns string, version uint32, key [sha256.Size]byte) ([]byte, bool, bool) {
	path := s.path(ns, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.bump(func(st *Stats) { st.Misses++ })
		return nil, false, false
	}
	payload, status := decodeEntry(raw, version)
	switch status {
	case entryOK:
		// Refresh the LRU clock; best effort (another process may have
		// just evicted the file).
		now := time.Now()
		os.Chtimes(path, now, now)
		s.bump(func(st *Stats) { st.Hits++ })
		return payload, true, false
	case entryStale:
		s.remove(path, int64(len(raw)))
		s.bump(func(st *Stats) { st.Misses++; st.VersionEvictions++ })
		return nil, false, false
	default: // entryCorrupt
		s.remove(path, int64(len(raw)))
		s.bump(func(st *Stats) { st.Misses++; st.CorruptEvictions++ })
		return nil, false, true
	}
}

type entryStatus int

const (
	entryOK entryStatus = iota
	entryStale
	entryCorrupt
)

// decodeEntry validates one entry file against the expected namespace
// version and the payload checksum recorded at store time.
func decodeEntry(raw []byte, version uint32) ([]byte, entryStatus) {
	if len(raw) < headerSize || string(raw[:4]) != entryMagic {
		return nil, entryCorrupt
	}
	format := binary.LittleEndian.Uint32(raw[4:8])
	nsVersion := binary.LittleEndian.Uint32(raw[8:12])
	payloadLen := binary.LittleEndian.Uint64(raw[12:20])
	if format != entryFormat || nsVersion != version {
		return nil, entryStale
	}
	payload := raw[headerSize:]
	if uint64(len(payload)) != payloadLen {
		return nil, entryCorrupt
	}
	var want [sha256.Size]byte
	copy(want[:], raw[20:20+sha256.Size])
	if sha256.Sum256(payload) != want {
		return nil, entryCorrupt
	}
	return payload, entryOK
}

// Put implements CacheBackend. The write is atomic (temp file + rename
// within the namespace directory); any failure is swallowed — the entry
// is simply not cached.
func (s *Store) Put(ns string, version uint32, key [sha256.Size]byte, data []byte) {
	nsDir := filepath.Join(s.dir, ns)
	if err := os.MkdirAll(nsDir, 0o755); err != nil {
		return
	}
	buf := make([]byte, headerSize+len(data))
	copy(buf[:4], entryMagic)
	binary.LittleEndian.PutUint32(buf[4:8], entryFormat)
	binary.LittleEndian.PutUint32(buf[8:12], version)
	binary.LittleEndian.PutUint64(buf[12:20], uint64(len(data)))
	sum := sha256.Sum256(data)
	copy(buf[20:20+sha256.Size], sum[:])
	copy(buf[headerSize:], data)

	tmp, err := os.CreateTemp(nsDir, ".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(buf)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	final := s.path(ns, key)
	prev := int64(0)
	if fi, err := os.Stat(final); err == nil {
		prev = fi.Size()
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return
	}
	s.mu.Lock()
	s.bytes += int64(len(buf)) - prev
	if prev == 0 {
		s.count++
	}
	s.stats.Puts++
	s.mu.Unlock()
	s.evictOver()
}

// evictOver deletes least-recently-used entries (file mtime, refreshed
// on every Get) until the store is back under its byte budget.
func (s *Store) evictOver() {
	s.mu.Lock()
	over := s.bytes > s.maxBytes
	s.mu.Unlock()
	if !over {
		return
	}
	type ent struct {
		path  string
		size  int64
		mtime time.Time
	}
	var ents []ent
	filepath.Walk(s.dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !isEntryName(filepath.Base(path)) {
			return nil
		}
		ents = append(ents, ent{path, info.Size(), info.ModTime()})
		return nil
	})
	sort.Slice(ents, func(i, j int) bool {
		if !ents[i].mtime.Equal(ents[j].mtime) {
			return ents[i].mtime.Before(ents[j].mtime)
		}
		return ents[i].path < ents[j].path // stable tie-break
	})
	// Recompute from the scan (concurrent processes may have changed the
	// directory under us) and trim oldest-first.
	var total int64
	for _, e := range ents {
		total += e.size
	}
	evicted := int64(0)
	for _, e := range ents {
		if total <= s.maxBytes {
			break
		}
		// A file already gone — taken by a concurrent evictor or by Get's
		// eviction of a bad entry — no longer counts against the budget,
		// but the eviction is the other remover's to count.
		switch err := os.Remove(e.path); {
		case err == nil:
			total -= e.size
			evicted++
		case os.IsNotExist(err):
			total -= e.size
		}
	}
	s.mu.Lock()
	s.bytes = total
	s.count -= evicted
	if s.count < 0 {
		s.count = 0
	}
	s.stats.LRUEvictions += evicted
	s.mu.Unlock()
}

// remove deletes an evicted entry and updates the size accounting.
func (s *Store) remove(path string, size int64) {
	if os.Remove(path) == nil {
		s.mu.Lock()
		s.bytes -= size
		s.count--
		if s.bytes < 0 {
			s.bytes = 0
		}
		if s.count < 0 {
			s.count = 0
		}
		s.mu.Unlock()
	}
}

func (s *Store) bump(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// Snapshot returns the store's current counters.
func (s *Store) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.BytesInUse = s.bytes
	st.Entries = s.count
	return st
}

// Len reports the number of finished entries currently on disk in ns
// (test hook; scans the directory).
func (s *Store) Len(ns string) int {
	entries, err := os.ReadDir(filepath.Join(s.dir, ns))
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && isEntryName(e.Name()) {
			n++
		}
	}
	return n
}

// Corrupt damages up to n entries in ns by flipping a payload byte in
// place, without refreshing the recorded checksum (test hook for the
// fault-injection harness). The next Get of a damaged entry must evict
// it and report corruption. Returns how many entries were damaged.
func (s *Store) Corrupt(ns string, n int) int {
	entries, err := os.ReadDir(filepath.Join(s.dir, ns))
	if err != nil {
		return 0
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && isEntryName(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // deterministic choice of victims
	corrupted := 0
	for _, name := range names {
		if corrupted >= n {
			break
		}
		path := filepath.Join(s.dir, ns, name)
		raw, err := os.ReadFile(path)
		if err != nil || len(raw) <= headerSize {
			continue
		}
		raw[headerSize] ^= 0xff
		if os.WriteFile(path, raw, 0o644) == nil {
			corrupted++
		}
	}
	return corrupted
}
