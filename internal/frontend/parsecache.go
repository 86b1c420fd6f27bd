// Content-keyed parse cache. Lex + parse dominate warm end-to-end runs
// (phase 3 replays the last converged state of the system instead), so
// repeated compilations of unchanged translation units — sfbench
// iterations, watch-mode workloads, AnalyzeAll batches sharing headers —
// reuse the parsed AST instead of re-deriving it.
//
// The key is the SHA-256 of the file name and its fully preprocessed text,
// so any edit to the unit or to a header it includes changes the key (the
// preprocessor has already expanded includes and macros by the time the
// key is computed). Sharing parsed files is safe because nothing
// downstream mutates the AST: the type checker records its results in
// side tables and the IR lowering builds separate ir nodes. Entries are
// stored only after a fully successful parse, so a cancelled or crashed
// compilation can never poison the cache.
//
// Entries are self-checking: each carries an echo of the file name and
// declaration count recorded at store time, verified on every hit. An
// entry that no longer matches its echo (memory corruption, a buggy
// mutation of a shared AST) is evicted and recompiled — a corrupt entry
// degrades to a miss, never to a wrong module — and the eviction is
// counted in run metrics as cache_corrupt_evictions.

package frontend

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"safeflow/internal/cast"
	"safeflow/internal/diskcache"
	"safeflow/internal/metrics"
)

// maxParseEntries bounds the process-global cache; the least recently
// used entry is evicted, so a repeat compile finds the units its previous
// run just stored (the cache is an accelerator, not a store of record).
const maxParseEntries = 256

// parseEntry is one cached AST with its integrity echo.
type parseEntry struct {
	key  [sha256.Size]byte
	file *cast.File
	// Integrity echo, recorded at store time and verified on every get.
	name  string // file.Name at store time
	decls int    // len(file.Decls) at store time
}

// valid reports whether the entry still matches its integrity echo.
func (e *parseEntry) valid() bool {
	return e != nil && e.file != nil && e.file.Name == e.name && len(e.file.Decls) == e.decls
}

// parseCache is an LRU: files indexes the elements of lru, whose values
// are *parseEntry, most recently used at the front.
var parseCache = struct {
	sync.Mutex
	files map[[sha256.Size]byte]*list.Element
	lru   list.List
}{files: make(map[[sha256.Size]byte]*list.Element)}

func parseCacheKey(filename, expanded string) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(filename))
	h.Write([]byte{0})
	h.Write([]byte(expanded))
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// parseCacheGet returns the cached AST for key, or nil. A corrupted or
// truncated entry is evicted, counted (col is nil-safe), and reported as
// a miss so the unit is recompiled from source.
func parseCacheGet(key [sha256.Size]byte, col *metrics.Collector) *cast.File {
	parseCache.Lock()
	defer parseCache.Unlock()
	el, ok := parseCache.files[key]
	if !ok {
		return nil
	}
	e := el.Value.(*parseEntry)
	if !e.valid() {
		parseCache.lru.Remove(el)
		delete(parseCache.files, key)
		col.AddCacheCorruptEvictions(1)
		return nil
	}
	parseCache.lru.MoveToFront(el)
	return e.file
}

func parseCachePut(key [sha256.Size]byte, f *cast.File) {
	parseCache.Lock()
	defer parseCache.Unlock()
	e := &parseEntry{key: key, file: f}
	if f != nil {
		e.name = f.Name
		e.decls = len(f.Decls)
	}
	if el, have := parseCache.files[key]; have {
		el.Value = e
		parseCache.lru.MoveToFront(el)
		return
	}
	if parseCache.lru.Len() >= maxParseEntries {
		oldest := parseCache.lru.Back()
		parseCache.lru.Remove(oldest)
		delete(parseCache.files, oldest.Value.(*parseEntry).key)
	}
	parseCache.files[key] = parseCache.lru.PushFront(e)
}

// ResetParseCache empties the parse cache (cold-run benchmarks and cache
// tests).
func ResetParseCache() {
	parseCache.Lock()
	defer parseCache.Unlock()
	parseCache.files = make(map[[sha256.Size]byte]*list.Element)
	parseCache.lru.Init()
}

// ParseCacheLen reports the number of cached entries (test hook for the
// fault-injection harness's no-cache-writes invariant).
func ParseCacheLen() int {
	parseCache.Lock()
	defer parseCache.Unlock()
	return len(parseCache.files)
}

// ---------------------------------------------------------------------------
// Disk tier. When Options.DiskCache is set, parsed ASTs are also
// persisted to the content-addressed store (namespace "parse", payload =
// cast.Encode bytes), so the next process — a CLI warm start, an sfbench
// iteration, a safeflowd worker after a restart — skips lex + parse for
// unchanged preprocessed units. The store verifies a SHA-256 of every
// payload on read and evicts on mismatch; on top of that the decoded AST
// is checked against the unit name it was stored for, so a disk hit can
// only ever produce the same AST a fresh parse would.

// parseDiskNS is the store namespace for parse entries.
const parseDiskNS = "parse"

// parseDiskVersion versions the payload encoding; it tracks
// cast.CodecVersion so an AST shape change invalidates old entries
// instead of decoding them with the wrong codec.
const parseDiskVersion = cast.CodecVersion

// parseDiskGet consults the persistent tier after an in-memory miss.
// Any integrity failure — store checksum, undecodable payload, unit-name
// echo mismatch — degrades to a miss and is counted as a corrupt
// eviction (col is nil-safe).
func parseDiskGet(dc diskcache.CacheBackend, key [sha256.Size]byte, cf string, col *metrics.Collector) *cast.File {
	data, ok, corrupt := dc.Get(parseDiskNS, parseDiskVersion, key)
	if corrupt {
		col.AddCacheCorruptEvictions(1)
	}
	if !ok {
		col.AddDiskCache(0, 1)
		return nil
	}
	f, err := cast.Decode(data)
	if err != nil || f == nil || f.Name != cf {
		// The payload passed the store's checksum but does not decode to
		// an AST for this unit (codec bug or stale entry written without
		// a version bump): treat as corrupt. The recomputed entry is
		// re-stored, healing it.
		col.AddCacheCorruptEvictions(1)
		col.AddDiskCache(0, 1)
		return nil
	}
	col.AddDiskCache(1, 0)
	return f
}

// parseDiskPut persists a freshly parsed unit; encoding failures just
// skip the store (the cache is an accelerator, not a store of record).
func parseDiskPut(dc diskcache.CacheBackend, key [sha256.Size]byte, f *cast.File) {
	data, err := cast.Encode(f)
	if err != nil {
		return
	}
	dc.Put(parseDiskNS, parseDiskVersion, key, data)
}

// CorruptParseCache damages up to n cached entries in place (test hook
// for the fault-injection harness) and returns how many were corrupted.
// The next get of a damaged entry must evict and recompile it.
func CorruptParseCache(n int) int {
	parseCache.Lock()
	defer parseCache.Unlock()
	corrupted := 0
	for el := parseCache.lru.Front(); el != nil && corrupted < n; el = el.Next() {
		el.Value.(*parseEntry).decls++ // break the integrity echo
		corrupted++
	}
	return corrupted
}
