// Package daemon implements safeflowd, the long-running SafeFlow
// analysis service: the full pipeline behind POST /v1/analyze, kept hot
// by the in-memory caches and the persistent disk cache shared with the
// CLI. One daemon process amortizes parse and phase-3 work across every
// request (parsed units also across its own restarts) the way the cold
// CLI cannot.
//
// The service preserves the pipeline's two hard contracts (DESIGN.md
// §7): byte determinism — the JSON body returned for a request is
// byte-identical to `safeflow -json` on the same inputs, at every
// concurrency level and cache temperature — and degraded soundness — a
// degraded analysis still returns its (never-Clean) report, with the
// skipped units' diagnostics, exactly as the CLI would print it.
//
// Admission control is a fixed worker pool with a bounded queue: at most
// Concurrency analyses run at once, at most QueueDepth requests wait,
// and everything beyond that is rejected immediately with 429 and a
// Retry-After hint, so an overloaded daemon sheds load instead of
// accumulating unbounded work. Each request runs under its own deadline
// wired into AnalyzeContext, so a hung or oversized analysis cancels at
// the next unit boundary and frees its slot.
package daemon

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"safeflow/internal/diskcache"
	"safeflow/internal/metrics"
	"safeflow/pkg/safeflow"
)

// Config tunes the service.
type Config struct {
	// Cache, when non-nil, is the persistent cache every analysis reads
	// and writes (shared with CLI processes pointed at the same dir).
	Cache *diskcache.Store
	// Concurrency bounds simultaneously running analyses. 0 means
	// runtime.GOMAXPROCS(0).
	Concurrency int
	// QueueDepth bounds requests waiting for a free slot; an arriving
	// request beyond this is rejected with 429. 0 means 2×Concurrency.
	QueueDepth int
	// DefaultTimeout applies to requests that do not set timeout_ms.
	// 0 means 60s.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout_ms. 0 means 5m.
	MaxTimeout time.Duration
	// Workers is the per-analysis worker count handed to the pipeline
	// when a request does not set options.workers. 0 means GOMAXPROCS.
	Workers int
	// AllowLocalPaths enables the "dir" and "paths" request forms, which
	// read the daemon's filesystem. Off, only inline "sources" requests
	// are accepted.
	AllowLocalPaths bool
	// MaxSessions bounds the incremental sessions held open for
	// POST /v1/update; opening one beyond the bound evicts the least
	// recently used. 0 means 8.
	MaxSessions int
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Concurrency
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	return c
}

// AnalyzeRequest is the body of POST /v1/analyze. Exactly one input form
// must be set: inline Sources (+ optional CFiles), a server-local Dir,
// or server-local Paths (the latter two only when the daemon runs with
// -local-paths).
type AnalyzeRequest struct {
	// Name is the system name used in the report (required).
	Name string `json:"name"`
	// Sources maps file names (as used by #include "...") to contents.
	Sources map[string]string `json:"sources,omitempty"`
	// CFiles lists the translation units to compile; empty means every
	// ".c" key of Sources, in sorted order.
	CFiles []string `json:"c_files,omitempty"`
	// Dir analyzes all .c files in a directory on the daemon's host.
	Dir string `json:"dir,omitempty"`
	// Paths analyzes the named .c files on the daemon's host.
	Paths []string `json:"paths,omitempty"`
	// Options tune the analysis; the zero value matches the CLI defaults
	// (subset alias analysis, recovering front end, shared worker pool).
	Options AnalyzeOptions `json:"options,omitempty"`
}

// AnalyzeOptions mirrors the safeflow CLI's flags.
type AnalyzeOptions struct {
	// Alias selects the alias analysis: "subset" (default) or "unify".
	Alias string `json:"alias,omitempty"`
	// Exponential switches phase 3 to the per-call-path ablation mode.
	Exponential bool `json:"exponential,omitempty"`
	// Roots names analysis entry functions (default: callerless).
	Roots []string `json:"roots,omitempty"`
	// Defines predefines preprocessor macros.
	Defines map[string]string `json:"defines,omitempty"`
	// Workers bounds this analysis's pipeline concurrency; 0 uses the
	// daemon's -workers setting. Reports are byte-identical regardless.
	Workers int `json:"workers,omitempty"`
	// Stats embeds the run-metrics snapshot in the report (the CLI's
	// -stats). Metrics are aggregated into /metricsz either way.
	Stats bool `json:"stats,omitempty"`
	// Strict restores fail-stop front-end behavior (the CLI's -strict).
	Strict bool `json:"strict,omitempty"`
	// TimeoutMS bounds this request's analysis; 0 uses the daemon
	// default, and values above the daemon's -max-timeout are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Format selects the response rendering: "" or "json" (the CLI's
	// -format json), or "sarif" for SARIF 2.1.0 (Content-Type
	// application/sarif+json). The `?format=` query parameter on
	// /v1/analyze sets the same field.
	Format string `json:"format,omitempty"`
	// Policy names a builtin taint policy (simplex-shm, credential-leak,
	// pii-to-log); "" runs the default simplex-shm policy. The policy
	// participates in single-flight dedup and in every cache tier's key.
	Policy string `json:"policy,omitempty"`
}

// Metrics is the /metricsz payload: request counters, admission gauges,
// aggregated run metrics across every completed analysis, and the disk
// store's own counters when a cache is attached.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`

	RequestsTotal    int64 `json:"requests_total"`
	RequestsOK       int64 `json:"requests_ok"`
	RequestsRejected int64 `json:"requests_rejected"` // 429 backpressure
	RequestsBadInput int64 `json:"requests_bad_input"`
	RequestsFailed   int64 `json:"requests_failed"`
	RequestsTimeout  int64 `json:"requests_timeout"`

	InFlight   int64 `json:"in_flight"`
	QueueDepth int64 `json:"queue_depth"`

	// Single-flight dedup: DedupHits counts requests served from
	// another identical request's in-flight analysis (a stampede of N
	// identical requests runs the pipeline once and records N−1 here).
	DedupHits int64 `json:"dedup_hits"`

	// Load-shedding detail under the RequestsRejected umbrella:
	// queue-full rejections versus predictive sheds (the estimated
	// queue wait already exceeded the request's own timeout).
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedPredicted int64 `json:"shed_predicted"`

	// Aggregated run-metrics counters summed over completed analyses.
	TranslationUnits      int64 `json:"translation_units"`
	UnitsSolved           int64 `json:"units_solved"`
	CacheHits             int64 `json:"cache_hits"`
	CacheMisses           int64 `json:"cache_misses"`
	FrontendCacheHits     int64 `json:"frontend_cache_hits"`
	FrontendCacheMisses   int64 `json:"frontend_cache_misses"`
	DiskCacheHits         int64 `json:"disk_cache_hits"`
	DiskCacheMisses       int64 `json:"disk_cache_misses"`
	CacheCorruptEvictions int64 `json:"cache_corrupt_evictions"`
	AnalysisWallNS        int64 `json:"analysis_wall_ns"`

	// Incremental-session counters: open sessions (gauge), cumulative
	// functions invalidated/reused across updates, updates that fell back
	// to from-scratch analysis, and cumulative update wall time.
	IncrSessions         int64 `json:"incr_sessions"`
	IncrSessionEvictions int64 `json:"incr_session_evictions"`
	IncrFuncsInvalidated int64 `json:"incr_funcs_invalidated"`
	IncrFuncsReused      int64 `json:"incr_funcs_reused"`
	IncrFallbacks        int64 `json:"incr_fallbacks"`
	IncrUpdateNS         int64 `json:"incr_update_ns"`

	DiskStore *diskcache.Stats `json:"disk_store,omitempty"`
}

// Server is one safeflowd instance.
type Server struct {
	cfg   Config
	start time.Time

	sem      chan struct{} // worker-pool slots
	queued   atomic.Int64  // requests waiting for a slot
	inFlight atomic.Int64
	draining atomic.Bool

	mu  sync.Mutex
	agg Metrics // counter fields only; gauges are derived on read

	flightMu sync.Mutex
	flights  map[[sha256.Size]byte]*flight

	sessMu   sync.Mutex
	sessions map[string]*sessEntry

	// cache holds the server's in-memory tiers; nil (the default) shares
	// the process cache of pkg/safeflow with every other analysis in the
	// process. Tests give each server a cache of its own.
	cache *safeflow.Cache
}

// New builds a server; call Handler to mount it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		start:    time.Now(),
		sem:      make(chan struct{}, cfg.Concurrency),
		sessions: make(map[string]*sessEntry),
	}
}

// Handler returns the daemon's HTTP mux: POST /v1/analyze, GET
// /healthz, GET /metricsz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	mux.HandleFunc("/v1/update", s.handleUpdate)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metricsz", s.handleMetricsz)
	return mux
}

// BeginDrain flips the server into draining mode: /healthz turns 503 so
// load balancers stop routing here, and new analyses are refused, while
// in-flight requests finish (the HTTP server's Shutdown handles the
// connection-level drain).
func (s *Server) BeginDrain() { s.draining.Store(true) }

// jsonError writes a {"error": ...} body with the given status.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
		return
	}
	json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	m := s.agg
	s.mu.Unlock()
	m.UptimeSeconds = time.Since(s.start).Seconds()
	m.Draining = s.draining.Load()
	m.InFlight = s.inFlight.Load()
	m.QueueDepth = s.queued.Load()
	s.sessMu.Lock()
	m.IncrSessions = int64(len(s.sessions))
	s.sessMu.Unlock()
	if s.cfg.Cache != nil {
		st := s.cfg.Cache.Snapshot()
		m.DiskStore = &st
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(m)
}

func (s *Server) count(f func(*Metrics)) {
	s.mu.Lock()
	f(&s.agg)
	s.mu.Unlock()
}

// meanAnalysisSeconds is the observed mean analysis wall time across
// completed requests, or 0 when nothing has completed yet.
func (s *Server) meanAnalysisSeconds() float64 {
	s.mu.Lock()
	ok := s.agg.RequestsOK
	wall := s.agg.AnalysisWallNS
	s.mu.Unlock()
	if ok <= 0 || wall <= 0 {
		return 0
	}
	return float64(wall) / float64(ok) / float64(time.Second)
}

// retryAfterSecs derives the Retry-After hint from the load actually
// ahead of a new arrival: the queued requests form ceil(q/concurrency)
// scheduling waves, each lasting about one mean analysis, plus the wave
// running now. A cold daemon (no completed request yet) hints 1s.
// Clamped to [1, 60] so the hint stays a backoff, not a ban.
func (s *Server) retryAfterSecs() int {
	mean := s.meanAnalysisSeconds()
	if mean <= 0 {
		return 1
	}
	waves := float64(s.queued.Load())/float64(s.cfg.Concurrency) + 1
	secs := int(math.Ceil(waves * mean))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

func (s *Server) retryAfter() string { return fmt.Sprintf("%d", s.retryAfterSecs()) }

// shedStatus classifies one rejection for the shed counters.
type shedReason int

const (
	shedNone shedReason = iota
	shedQueueFull
	shedPredicted
)

// admit acquires a worker-pool slot, waiting in the bounded queue if
// the pool is busy. timeout is the request's analysis budget: a request
// whose estimated queue wait already exceeds it is shed immediately
// (predictive shedding — it would only time out in line and waste a
// queue position doing so). It returns a release function, or an HTTP
// status when the request cannot be admitted.
func (s *Server) admit(ctx context.Context, timeout time.Duration) (release func(), status int, reason shedReason) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0, shedNone
	default:
	}
	// Pool busy: shed if the line ahead is already longer than the
	// request's own deadline, otherwise take a queue position.
	if mean := s.meanAnalysisSeconds(); mean > 0 {
		waves := float64(s.queued.Load()) / float64(s.cfg.Concurrency)
		if time.Duration(waves*mean*float64(time.Second)) > timeout {
			return nil, http.StatusTooManyRequests, shedPredicted
		}
	}
	for {
		q := s.queued.Load()
		if q >= int64(s.cfg.QueueDepth) {
			return nil, http.StatusTooManyRequests, shedQueueFull
		}
		if s.queued.CompareAndSwap(q, q+1) {
			break
		}
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0, shedNone
	case <-ctx.Done():
		// Client went away or the request deadline passed while queued.
		return nil, http.StatusServiceUnavailable, shedNone
	}
}

// countShed folds one rejection into the shed-detail counters.
func (s *Server) countShed(reason shedReason) {
	s.count(func(m *Metrics) {
		switch reason {
		case shedQueueFull:
			m.ShedQueueFull++
		case shedPredicted:
			m.ShedPredicted++
		}
	})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.count(func(m *Metrics) { m.RequestsTotal++ })
	if r.Method != http.MethodPost {
		s.count(func(m *Metrics) { m.RequestsBadInput++ })
		jsonError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.draining.Load() {
		s.count(func(m *Metrics) { m.RequestsRejected++ })
		w.Header().Set("Retry-After", s.retryAfter())
		jsonError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req AnalyzeRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.count(func(m *Metrics) { m.RequestsBadInput++ })
		jsonError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	// Fold the query parameter into the request BEFORE single-flight
	// keying: the format changes the response bytes, so two requests
	// differing only in ?format= must never share a flight.
	if qf := r.URL.Query().Get("format"); qf != "" {
		req.Options.Format = qf
	}
	opts, timeout, err := s.resolveOptions(req.Options)
	if err == nil {
		err = validateInput(&req, s.cfg.AllowLocalPaths)
	}
	if err != nil {
		s.count(func(m *Metrics) { m.RequestsBadInput++ })
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}

	key := analyzeKey(&req)
	f, leader := s.joinFlight(key)
	if !leader {
		// An identical request is already executing: wait for its
		// result and replay the exact bytes. No worker slot, no queue
		// position — the stampede costs one admission.
		s.count(func(m *Metrics) { m.DedupHits++ })
		select {
		case <-f.done:
			s.countFlightStatus(&f.res)
			f.res.write(w)
		case <-r.Context().Done():
			f.dropWaiter()
		}
		return
	}

	// Leader: run detached from any one connection. The flight context
	// cancels only when every client wanting this result is gone, so a
	// leader disconnect never fails the followers behind it.
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	defer cancel()
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-r.Context().Done():
			f.dropWaiter()
		case <-watchDone:
		}
	}()
	res := s.runAnalyze(ctx, &req, opts, timeout)
	close(watchDone)
	s.leaveFlight(key, f, res)
	s.countFlightStatus(&res)
	res.write(w)
}

// runAnalyze admits and executes one analysis, rendering the complete
// response — status, headers, body bytes — as a replayable result.
func (s *Server) runAnalyze(ctx context.Context, req *AnalyzeRequest, opts safeflow.Options, timeout time.Duration) flightResult {
	release, status, reason := s.admit(ctx, timeout)
	if release == nil {
		s.countShed(reason)
		return errorResult(status, s.retryAfter(), "analysis queue full, retry later")
	}
	defer release()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	rep, err := s.analyze(ctx, req, opts)
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			return errorResult(http.StatusGatewayTimeout, "",
				fmt.Sprintf("analysis aborted after %v: %v", timeout, err))
		}
		return errorResult(http.StatusUnprocessableEntity, "", err.Error())
	}
	s.aggregate(rep.Metrics)
	if !req.Options.Stats {
		// Metrics were collected for /metricsz aggregation only: drop
		// them so the body matches `safeflow -json` without -stats.
		rep.Metrics = nil
	}
	var buf bytes.Buffer
	contentType := "application/json"
	var werr error
	if req.Options.Format == "sarif" {
		contentType = "application/sarif+json"
		werr = safeflow.WriteReportSARIF(&buf, rep)
	} else {
		werr = safeflow.WriteReportJSON(&buf, rep)
	}
	if werr != nil {
		return errorResult(http.StatusInternalServerError, "", werr.Error())
	}
	res := okResult(exitCode(rep, req.Options.Strict), buf.Bytes())
	res.contentType = contentType
	return res
}

// resolveOptions maps the request options onto pipeline options, exactly
// as the CLI maps its flags (so daemon and CLI reports coincide).
func (s *Server) resolveOptions(ro AnalyzeOptions) (safeflow.Options, time.Duration, error) {
	opts := safeflow.Options{
		Exponential: ro.Exponential,
		Roots:       ro.Roots,
		Defines:     ro.Defines,
		Workers:     ro.Workers,
		Recover:     !ro.Strict,
		// Stats are always collected so /metricsz can aggregate; the
		// handler strips the snapshot unless the request asked for it.
		Stats: true,
		Cache: s.cache,
	}
	if s.cfg.Cache != nil {
		opts.DiskCache = s.cfg.Cache
	}
	if opts.Workers == 0 {
		opts.Workers = s.cfg.Workers
	}
	switch ro.Alias {
	case "", "subset":
		opts.PointsTo = safeflow.ModeSubset
	case "unify":
		opts.PointsTo = safeflow.ModeUnify
	default:
		return opts, 0, fmt.Errorf("unknown alias mode %q", ro.Alias)
	}
	switch ro.Format {
	case "", "json", "sarif":
	default:
		return opts, 0, fmt.Errorf("unknown format %q (want json or sarif)", ro.Format)
	}
	if ro.Policy != "" {
		pol, ok := safeflow.BuiltinPolicy(ro.Policy)
		if !ok {
			return opts, 0, fmt.Errorf("unknown policy %q (have: %s)", ro.Policy, strings.Join(safeflow.BuiltinPolicyNames(), ", "))
		}
		opts.Policy = pol
	}
	timeout := s.cfg.DefaultTimeout
	if ro.TimeoutMS > 0 {
		timeout = time.Duration(ro.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return opts, timeout, nil
}

// validateInput enforces the exactly-one-input-form rule.
func validateInput(req *AnalyzeRequest, allowLocal bool) error {
	if req.Name == "" {
		return errors.New("name is required")
	}
	forms := 0
	if len(req.Sources) > 0 {
		forms++
	}
	if req.Dir != "" {
		forms++
	}
	if len(req.Paths) > 0 {
		forms++
	}
	if forms != 1 {
		return errors.New("exactly one of sources, dir, or paths must be set")
	}
	if len(req.CFiles) > 0 && len(req.Sources) == 0 {
		return errors.New("c_files is only meaningful with inline sources")
	}
	if !allowLocal && (req.Dir != "" || len(req.Paths) > 0) {
		return errors.New("dir/paths requests are disabled (daemon runs without -local-paths)")
	}
	return nil
}

// analyze dispatches to the same public entry points the CLI uses.
func (s *Server) analyze(ctx context.Context, req *AnalyzeRequest, opts safeflow.Options) (*safeflow.Report, error) {
	switch {
	case req.Dir != "":
		return safeflow.AnalyzeDirContext(ctx, req.Name, req.Dir, opts)
	case len(req.Paths) > 0:
		return safeflow.AnalyzeFilesContext(ctx, req.Name, req.Paths, opts)
	default:
		cFiles := req.CFiles
		if len(cFiles) == 0 {
			for name := range req.Sources {
				if len(name) > 2 && name[len(name)-2:] == ".c" {
					cFiles = append(cFiles, name)
				}
			}
			sort.Strings(cFiles)
		}
		if len(cFiles) == 0 {
			return nil, errors.New("no .c files in sources")
		}
		return safeflow.AnalyzeContext(ctx, req.Name, req.Sources, cFiles, opts)
	}
}

// aggregate folds one run's metrics into the daemon-wide counters.
func (s *Server) aggregate(rm *metrics.RunMetrics) {
	if rm == nil {
		return
	}
	s.count(func(m *Metrics) {
		m.TranslationUnits += int64(rm.TranslationUnits)
		m.UnitsSolved += int64(rm.UnitsSolved)
		m.CacheHits += int64(rm.CacheHits)
		m.CacheMisses += int64(rm.CacheMisses)
		m.FrontendCacheHits += int64(rm.FrontendCacheHits)
		m.FrontendCacheMisses += int64(rm.FrontendCacheMisses)
		m.DiskCacheHits += int64(rm.DiskCacheHits)
		m.DiskCacheMisses += int64(rm.DiskCacheMisses)
		m.CacheCorruptEvictions += int64(rm.CacheCorruptEvictions)
		m.AnalysisWallNS += rm.WallNS
	})
}

// exitCode mirrors the CLI's exit-status mapping for the
// X-Safeflow-Exit response header: 0 clean, 1 findings, 3 degraded (or,
// under strict, a suppression directive naming an unknown rule id).
func exitCode(rep *safeflow.Report, strict bool) int {
	switch {
	case rep.Degraded:
		return 3
	case strict && len(rep.SuppressionIssues) > 0:
		return 3
	case rep.Clean():
		return 0
	}
	return 1
}
