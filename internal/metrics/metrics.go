// Package metrics instruments SafeFlow analysis runs: per-phase wall
// times, pipeline shape counters (translation units, SCCs, fixpoint
// rounds, summaries solved), phase-3 replay rates, and peak goroutine
// counts. A Collector is threaded through one run; its Finish snapshot is
// embedded in reports under the versioned "metrics" JSON key.
//
// All Collector methods are safe on a nil receiver, so instrumentation
// call sites need no guards when stats collection is off.
package metrics

import (
	"runtime"
	"sync"
	"time"
)

// SchemaVersion is the version of the RunMetrics JSON shape. It is
// embedded in every snapshot; consumers must check it before relying on
// the field set. Bump it whenever a field is removed or changes meaning
// (additions are backward compatible and do not bump it).
const SchemaVersion = 1

// PhaseMetrics is the timing of one pipeline phase.
type PhaseMetrics struct {
	Name   string `json:"name"`
	WallNS int64  `json:"wall_ns"`
}

// RunMetrics is one analysis run's instrumentation snapshot. The
// structural fields (schema version, phase names, translation units,
// SCCs) are deterministic for a given input; everything else depends on
// scheduling, cache temperature, and the host — Canonicalize zeroes
// those for byte-stable comparisons.
type RunMetrics struct {
	SchemaVersion    int            `json:"schema_version"`
	WallNS           int64          `json:"wall_ns"`
	Phases           []PhaseMetrics `json:"phases"`
	TranslationUnits int            `json:"translation_units"`
	SCCs             int            `json:"sccs"`
	FixpointRounds   int            `json:"fixpoint_rounds"`
	UnitsSolved      int            `json:"units_solved"`
	// CacheHits / CacheMisses count the units a run that started from a
	// stored phase-3 state replayed / solved; both are zero on cold runs
	// and session updates.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// VFGTransfers counts the value-flow solver's instruction transfer
	// evaluations over every unit solve (omitted from JSON when zero).
	VFGTransfers int64 `json:"vfg_transfers,omitempty"`
	// Frontend parse-cache counters (omitted from JSON when zero so the
	// schema stays backward compatible with v1 consumers).
	FrontendCacheHits   int `json:"frontend_cache_hits,omitempty"`
	FrontendCacheMisses int `json:"frontend_cache_misses,omitempty"`
	// Disk-cache tier counters (omitted from JSON when zero): hits and
	// misses observed against the persistent content-addressed store that
	// backs the parse cache across process restarts.
	DiskCacheHits   int `json:"disk_cache_hits,omitempty"`
	DiskCacheMisses int `json:"disk_cache_misses,omitempty"`
	// CacheCorruptEvictions counts cache entries (parse, summary, or
	// disk) whose integrity check failed on load: each was evicted and
	// recomputed instead of poisoning the run. Omitted from JSON when
	// zero.
	CacheCorruptEvictions int `json:"cache_corrupt_evictions,omitempty"`
	// Include-memo counters (omitted from JSON when zero): includes one
	// compile served from an earlier unit's expansion of the same header
	// versus includes it expanded.
	IncludeMemoHits   int `json:"include_memo_hits,omitempty"`
	IncludeMemoMisses int `json:"include_memo_misses,omitempty"`
	// Incremental re-analysis counters (set on tracked runs — session
	// updates and analyses that start from a stored phase-3 state;
	// omitted from JSON when zero): how many functions the dependency
	// graph invalidated versus reused, how many units were replayed from
	// the previous run's records, and how many verify restarts the run
	// needed.
	IncrFuncsInvalidated int `json:"incr_funcs_invalidated,omitempty"`
	IncrFuncsReused      int `json:"incr_funcs_reused,omitempty"`
	IncrUnitsReplayed    int `json:"incr_units_replayed,omitempty"`
	IncrRestarts         int `json:"incr_restarts,omitempty"`
	PeakGoroutines       int `json:"peak_goroutines"`
}

// Canonicalize zeroes every execution-dependent field — wall times, the
// scheduling-sensitive solve counters, cache temperature, and goroutine
// peaks — leaving only the fields that are deterministic functions of
// the analyzed input (schema version, phase list, translation units,
// SCC count). Two runs of the same input at any worker count and cache
// state canonicalize to identical values; determinism and golden tests
// rely on this.
func (m *RunMetrics) Canonicalize() {
	if m == nil {
		return
	}
	m.WallNS = 0
	for i := range m.Phases {
		m.Phases[i].WallNS = 0
	}
	m.FixpointRounds = 0
	m.UnitsSolved = 0
	m.VFGTransfers = 0
	m.CacheHits = 0
	m.CacheMisses = 0
	m.FrontendCacheHits = 0
	m.FrontendCacheMisses = 0
	m.DiskCacheHits = 0
	m.DiskCacheMisses = 0
	m.CacheCorruptEvictions = 0
	m.IncludeMemoHits = 0
	m.IncludeMemoMisses = 0
	m.IncrFuncsInvalidated = 0
	m.IncrFuncsReused = 0
	m.IncrUnitsReplayed = 0
	m.IncrRestarts = 0
	m.PeakGoroutines = 0
}

// Collector accumulates one run's metrics. Phase timings are recorded
// sequentially by the pipeline driver; the counters and goroutine
// observations may arrive concurrently from worker goroutines.
type Collector struct {
	mu    sync.Mutex
	m     RunMetrics
	start time.Time
}

// NewCollector starts a collector for one run.
func NewCollector() *Collector {
	c := &Collector{start: time.Now()}
	c.m.SchemaVersion = SchemaVersion
	c.ObserveGoroutines()
	return c
}

// Phase records the start of a named phase and returns the function that
// records its end; phases appear in the snapshot in call order.
func (c *Collector) Phase(name string) (done func()) {
	if c == nil {
		return func() {}
	}
	c.ObserveGoroutines()
	start := time.Now()
	return func() {
		elapsed := time.Since(start).Nanoseconds()
		c.mu.Lock()
		c.m.Phases = append(c.m.Phases, PhaseMetrics{Name: name, WallNS: elapsed})
		c.mu.Unlock()
		c.ObserveGoroutines()
	}
}

// SetTranslationUnits records the number of translation units compiled.
func (c *Collector) SetTranslationUnits(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m.TranslationUnits = n
	c.mu.Unlock()
}

// SetPhase3 records the value-flow phase's shape counters.
func (c *Collector) SetPhase3(sccs, rounds, unitsSolved, cacheHits, cacheMisses int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m.SCCs = sccs
	c.m.FixpointRounds = rounds
	c.m.UnitsSolved = unitsSolved
	c.m.CacheHits = cacheHits
	c.m.CacheMisses = cacheMisses
	c.mu.Unlock()
}

// SetVFGTransfers records the value-flow solver's transfer evaluations.
func (c *Collector) SetVFGTransfers(n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m.VFGTransfers = n
	c.mu.Unlock()
}

// SetIncremental records the incremental re-analysis shape counters of
// a tracked run.
func (c *Collector) SetIncremental(funcsInvalidated, funcsReused, unitsReplayed, restarts int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m.IncrFuncsInvalidated = funcsInvalidated
	c.m.IncrFuncsReused = funcsReused
	c.m.IncrUnitsReplayed = unitsReplayed
	c.m.IncrRestarts = restarts
	c.mu.Unlock()
}

// AddFrontendCache accumulates parse-cache hit/miss counts; translation
// units report concurrently from the frontend worker pool.
func (c *Collector) AddFrontendCache(hits, misses int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m.FrontendCacheHits += hits
	c.m.FrontendCacheMisses += misses
	c.mu.Unlock()
}

// AddDiskCache accumulates persistent-cache hit/miss counts; translation
// units report concurrently when a disk tier is attached.
func (c *Collector) AddDiskCache(hits, misses int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m.DiskCacheHits += hits
	c.m.DiskCacheMisses += misses
	c.mu.Unlock()
}

// AddCacheCorruptEvictions counts cache entries evicted because their
// integrity check failed on load; the caches report concurrently.
func (c *Collector) AddCacheCorruptEvictions(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m.CacheCorruptEvictions += n
	c.mu.Unlock()
}

// AddIncludeMemo accumulates include-memo hit/miss counts, once per
// compile.
func (c *Collector) AddIncludeMemo(hits, misses int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m.IncludeMemoHits += hits
	c.m.IncludeMemoMisses += misses
	c.mu.Unlock()
}

// ObserveGoroutines samples the process goroutine count into the peak.
// Workers call it as they start so the peak reflects real concurrency.
func (c *Collector) ObserveGoroutines() {
	if c == nil {
		return
	}
	n := runtime.NumGoroutine()
	c.mu.Lock()
	if n > c.m.PeakGoroutines {
		c.m.PeakGoroutines = n
	}
	c.mu.Unlock()
}

// Finish closes the run and returns the snapshot. Nil-safe: a nil
// collector yields a nil snapshot (stats collection was off).
func (c *Collector) Finish() *RunMetrics {
	if c == nil {
		return nil
	}
	c.ObserveGoroutines()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m.WallNS = time.Since(c.start).Nanoseconds()
	snap := c.m
	snap.Phases = append([]PhaseMetrics(nil), c.m.Phases...)
	return &snap
}
