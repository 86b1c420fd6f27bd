// Package safeflow is the public API of the SafeFlow static analyzer: an
// annotation-driven analysis that verifies the safe value flow property in
// embedded control systems written in C — all non-core values flowing into
// a core component through shared memory must be run-time monitored before
// use in critical computation (Kowshik, Roşu, Sha; DSN 2006).
//
// Typical use:
//
//	rep, err := safeflow.AnalyzeDirContext(context.Background(), "IP controller", "./core", safeflow.Options{})
//	if err != nil { ... }
//	safeflow.WriteReport(os.Stdout, rep)
//	if !rep.Clean() { os.Exit(1) }
//
// The analyzer accepts a C subset with SafeFlow annotations embedded in
// comments (/***SafeFlow Annotation ... /***/):
//
//	shminit                          — marks a shared-memory initializing function
//	assume(shmvar(ptr, size))        — declares a shared-memory variable (post-condition)
//	assume(noncore(ptr))             — the variable is writable by non-core components
//	assume(core(ptr, offset, size))  — inside a monitoring function: the range is safe
//	assert(safe(x))                  — x is critical data; must not depend on
//	                                   unmonitored non-core values
//
// Reports distinguish warnings (every unmonitored non-core access — exact,
// by construction), error dependencies (critical data reachable from an
// unmonitored value through data flow), and control-dependence-only
// reports (the class the paper's evaluation found to be false positives,
// flagged for manual inspection with their value-flow witnesses).
package safeflow

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"safeflow/internal/core"
	"safeflow/internal/cpp"
	"safeflow/internal/diskcache"
	"safeflow/internal/guard"
	"safeflow/internal/metrics"
	"safeflow/internal/pointsto"
	"safeflow/internal/policy"
	"safeflow/internal/report"
	"safeflow/internal/restrict"
	"safeflow/internal/shmflow"
	"safeflow/internal/vfg"
)

// Report is the complete analysis output for one system. See the fields
// of the underlying type for the per-phase results; Clean() reports
// whether nothing was flagged.
type Report = core.Report

// Options tune the analysis.
type Options = core.Options

// Cache holds the in-memory caches an analysis reads and fills: parsed
// translation units, compiled modules and the last converged phase-3
// state of each system, each a bounded LRU that verifies an entry's
// integrity on every hit. Set Options.Cache to a Cache from NewCache to
// give a group of analyses caches of their own; with a nil
// Options.Cache, AnalyzeContext and OpenContext share one process-wide
// Cache. Reports never depend on what a Cache holds, but analyses of the
// same sources through one Cache share one Report.Module, and under one
// points-to mode its Regions and Violations too, which callers must only
// read.
type Cache = core.Cache

// NewCache returns an empty Cache.
func NewCache() *Cache { return core.NewCache() }

// processCache serves every analysis whose Options.Cache is nil.
var processCache = core.NewCache()

// withProcessCache fills a nil Options.Cache with the process cache.
func withProcessCache(opts Options) Options {
	if opts.Cache == nil {
		opts.Cache = processCache
	}
	return opts
}

// Region is one declared shared-memory variable.
type Region = shmflow.Region

// Warning is one unmonitored non-core access.
type Warning = vfg.Source

// ErrorDependency is one critical-data dependency on unmonitored values.
type ErrorDependency = vfg.ErrorDep

// Violation is one language-restriction violation (P1–P3, A1–A2).
type Violation = restrict.Violation

// InternalError is a recovered pipeline panic: the isolation layer
// converts a crash in any phase or worker into this structured
// diagnostic (phase, failing unit, panic value, stack) carried in
// Report.Internal, so one bad system never kills a batch.
type InternalError = guard.InternalError

// RunMetrics is one run's instrumentation snapshot (Options.Stats),
// embedded in the JSON report under the versioned "metrics" key.
type RunMetrics = metrics.RunMetrics

// CacheBackend is the persistent cache interface accepted by
// Options.DiskCache; DiskCache (from OpenDiskCache) is the standard
// implementation.
type CacheBackend = diskcache.CacheBackend

// DiskCache is a content-addressed on-disk cache shared by every
// SafeFlow process pointed at the same directory: parsed translation
// units persist across process restarts, so repeated analyses of
// unchanged inputs skip lexing and parsing even from a cold process.
// Every entry is integrity-checked on read (SHA-256 of the payload
// recorded at store time); corrupted entries are evicted and
// recomputed, surfacing in run metrics as cache_corrupt_evictions. The
// store is size-bounded with least-recently-used eviction.
type DiskCache = diskcache.Store

// DiskCacheStats is a snapshot of a DiskCache's counters.
type DiskCacheStats = diskcache.Stats

// OpenDiskCache opens (creating if needed) the persistent cache rooted
// at dir. maxBytes bounds the store's total size; 0 applies the default
// budget (256 MiB). Concurrent processes may share one directory:
// writes are atomic renames, so readers see complete entries or misses,
// never torn bytes.
func OpenDiskCache(dir string, maxBytes int64) (*DiskCache, error) {
	return diskcache.Open(dir, maxBytes)
}

// DefaultCacheDir returns the conventional per-user location for the
// persistent cache (<user cache dir>/safeflow), without creating it.
func DefaultCacheDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("safeflow: %w", err)
	}
	return filepath.Join(base, "safeflow"), nil
}

// Alias-analysis modes for Options.PointsTo.
const (
	// ModeSubset is the field-sensitive inclusion-based solver (default).
	ModeSubset = pointsto.ModeSubset
	// ModeUnify is the DSA-style unification-based solver.
	ModeUnify = pointsto.ModeUnify
)

// Analyze runs the full SafeFlow pipeline over an in-memory source tree.
// sources maps file names (as used by #include "...") to contents; cFiles
// lists the translation units to compile.
//
// Deprecated: Use AnalyzeContext, which can be cancelled.
func Analyze(name string, sources map[string]string, cFiles []string, opts Options) (*Report, error) {
	return AnalyzeContext(context.Background(), name, sources, cFiles, opts)
}

// AnalyzeContext is Analyze with deadline/cancellation support: when ctx
// is cancelled the pipeline stops between analysis units — translation
// units in the frontend, SCC waves in phase 3 — and returns ctx.Err()
// promptly with no goroutines left behind.
func AnalyzeContext(ctx context.Context, name string, sources map[string]string, cFiles []string, opts Options) (*Report, error) {
	return core.AnalyzeSources(ctx, name, cpp.MapSource(sources), cFiles, withProcessCache(opts))
}

// AnalyzeString analyzes a single self-contained program.
func AnalyzeString(name, src string, opts Options) (*Report, error) {
	return Analyze(name, map[string]string{"main.c": src}, []string{"main.c"}, opts)
}

// AnalyzeDir analyzes all .c files in a directory (headers resolve
// relative to the same directory).
//
// Deprecated: Use AnalyzeDirContext, which can be cancelled.
func AnalyzeDir(name, dir string, opts Options) (*Report, error) {
	return AnalyzeDirContext(context.Background(), name, dir, opts)
}

// AnalyzeDirContext is AnalyzeDir with deadline/cancellation support.
func AnalyzeDirContext(ctx context.Context, name, dir string, opts Options) (*Report, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("safeflow: %w", err)
	}
	sources := map[string]string{}
	var cFiles []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ext := filepath.Ext(e.Name())
		if ext != ".c" && ext != ".h" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("safeflow: %w", err)
		}
		sources[e.Name()] = string(data)
		if ext == ".c" {
			cFiles = append(cFiles, e.Name())
		}
	}
	if len(cFiles) == 0 {
		return nil, fmt.Errorf("safeflow: no .c files in %s", dir)
	}
	sort.Strings(cFiles)
	return AnalyzeContext(ctx, name, sources, cFiles, opts)
}

// AnalyzeFiles analyzes the named .c files; includes resolve relative to
// each file's directory.
//
// Deprecated: Use AnalyzeFilesContext, which can be cancelled.
func AnalyzeFiles(name string, paths []string, opts Options) (*Report, error) {
	return AnalyzeFilesContext(context.Background(), name, paths, opts)
}

// A DuplicateInputError reports two input paths that collide after being
// flattened to their basenames: the analyzer keys sources by basename (as
// #include does), so accepting both would silently analyze only one.
type DuplicateInputError struct {
	Base          string // the colliding basename
	First, Second string // the two input paths that map to it
}

func (e *DuplicateInputError) Error() string {
	return fmt.Sprintf("safeflow: input paths %s and %s collide on basename %s",
		e.First, e.Second, e.Base)
}

// AnalyzeFilesContext is AnalyzeFiles with deadline/cancellation support.
// Paths whose basenames collide are rejected with a *DuplicateInputError
// (sources are keyed by basename, so one would silently shadow the other),
// as are header files with the same basename but different contents pulled
// in from two input directories.
func AnalyzeFilesContext(ctx context.Context, name string, paths []string, opts Options) (*Report, error) {
	sources := map[string]string{}
	var cFiles []string
	seenC := map[string]string{}     // basename -> input path
	headerDir := map[string]string{} // header basename -> source dir
	for _, p := range paths {
		if filepath.Ext(p) != ".c" {
			return nil, fmt.Errorf("safeflow: %s is not a .c file", p)
		}
		dir := filepath.Dir(p)
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("safeflow: %w", err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".h") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				return nil, fmt.Errorf("safeflow: %w", err)
			}
			if prev, ok := sources[e.Name()]; ok && prev != string(data) {
				return nil, &DuplicateInputError{
					Base:   e.Name(),
					First:  filepath.Join(headerDir[e.Name()], e.Name()),
					Second: filepath.Join(dir, e.Name()),
				}
			}
			sources[e.Name()] = string(data)
			headerDir[e.Name()] = dir
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("safeflow: %w", err)
		}
		base := filepath.Base(p)
		if first, ok := seenC[base]; ok {
			return nil, &DuplicateInputError{Base: base, First: first, Second: p}
		}
		seenC[base] = p
		sources[base] = string(data)
		cFiles = append(cFiles, base)
	}
	if len(cFiles) == 0 {
		return nil, fmt.Errorf("safeflow: no .c files given")
	}
	return AnalyzeContext(ctx, name, sources, cFiles, opts)
}

// WriteReport renders the report in the tool's standard text format,
// including the value-flow witnesses for every error dependency.
func WriteReport(w io.Writer, rep *Report) { report.Write(w, rep) }

// WriteTable1 renders the Table 1 summary for a set of analyzed systems.
func WriteTable1(w io.Writer, reps []*Report) { report.WriteTable1(w, reps) }

// WriteReportJSON renders the report as indented JSON for tooling.
func WriteReportJSON(w io.Writer, rep *Report) error { return report.WriteJSON(w, rep) }

// WriteReportSARIF renders the report as SARIF 2.1.0 for code-scanning
// integrations. Unlike the text and JSON forms, SARIF always attributes
// findings to policy rule ids.
func WriteReportSARIF(w io.Writer, rep *Report) error { return report.WriteSARIF(w, rep) }

// Policy is a compiled taint policy; set Options.Policy to analyze
// under it. A nil Options.Policy runs the default simplex-shm policy.
type Policy = policy.Compiled

// SuppressedFinding is one audit-trail entry for a finding matched by
// an inline `// safeflow:ignore <rule-id> <reason>` directive.
type SuppressedFinding = core.SuppressedFinding

// SuppressionIssue is a structured diagnostic for a suppression
// directive the analysis cannot honor (missing or unknown rule id).
type SuppressionIssue = core.SuppressionIssue

// LoadPolicy resolves a policy argument the way `safeflow -policy`
// does: a builtin name (simplex-shm, credential-leak, pii-to-log), a
// .safeflow-policy.json path, or "path#name" to pick one policy out of
// a multi-policy file.
func LoadPolicy(arg string) (*Policy, error) { return policy.Load(arg) }

// BuiltinPolicy returns a builtin policy by name.
func BuiltinPolicy(name string) (*Policy, bool) { return policy.Builtin(name) }

// BuiltinPolicyNames lists the builtin policy names in stable order.
func BuiltinPolicyNames() []string { return policy.BuiltinNames() }
