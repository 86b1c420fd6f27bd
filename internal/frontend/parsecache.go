// Content-keyed parse cache. Lex + parse dominate warm end-to-end runs
// (phase 3 takes the stored verdict of the system instead), so
// repeated compilations of unchanged translation units — watch-mode
// workloads, daemon requests, AnalyzeAll batches sharing headers — reuse
// the parsed AST held by Options.Cache instead of re-deriving it.
//
// The key is the SHA-256 of the file name and its fully preprocessed text,
// so any edit to the unit or to a header it includes changes the key (the
// preprocessor has already expanded includes and macros by the time the
// key is computed). Sharing parsed files is safe because nothing
// downstream mutates the AST: the type checker records its results in
// side tables and the IR lowering builds separate ir nodes. Entries are
// stored only after a fully successful parse, so a cancelled or crashed
// compilation can never poison the cache. The tier verifies an echo of
// each entry's file name and declaration count on every hit; a damaged
// entry is evicted and recompiled, and counted in run metrics as
// cache_corrupt_evictions.

package frontend

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/fnv"
	"unsafe"

	"safeflow/internal/cache"
	"safeflow/internal/cast"
	"safeflow/internal/diskcache"
	"safeflow/internal/metrics"
)

// ParseCache is the in-memory parse tier: parsed units by
// parseCacheKey. Create it with NewParseCache.
type ParseCache = cache.LRU[[sha256.Size]byte, *cast.File]

// maxParseEntries bounds a ParseCache; the least recently used entry is
// evicted, so a repeat compile finds the units its previous run just
// stored (the cache is an accelerator, not a store of record).
const maxParseEntries = 256

// NewParseCache returns an empty parse tier.
func NewParseCache() *ParseCache {
	return cache.NewLRU[[sha256.Size]byte](maxParseEntries, parseEcho)
}

// parseEcho is a parse entry's integrity sum: its file name and
// declaration count.
func parseEcho(f *cast.File) uint64 {
	h := fnv.New64a()
	h.Write([]byte(f.Name))
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(f.Decls))))
	return h.Sum64()
}

// parseCacheKey hashes the unit name and its expanded text without
// copying either: the hash reads the strings' bytes in place.
func parseCacheKey(filename, expanded string) [sha256.Size]byte {
	h := sha256.New()
	h.Write(readOnlyBytes(filename))
	h.Write(readOnlyBytes("\x00"))
	h.Write(readOnlyBytes(expanded))
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// readOnlyBytes views s as a byte slice without copying it. The slice
// aliases immutable string memory: callers must only read it.
func readOnlyBytes(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
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
