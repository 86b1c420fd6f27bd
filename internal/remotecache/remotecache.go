// Package remotecache puts the diskcache.CacheBackend contract on the
// wire: a Client speaks a minimal content-addressed HTTP protocol to an
// sfcached server, so a fleet of safeflowd replicas shares one
// persistent store — a translation unit parsed by any replica is a hit
// for every other.
//
// The remote tier inherits the cache discipline the local store already
// keeps (DESIGN.md §7): it is an accelerator, never a source of record.
// Every failure mode a network dependency adds — outage, slowness,
// corruption in transit — degrades to a miss, never to an error or a
// changed report. Concretely:
//
//   - every op runs under its own timeout, so a slow server costs
//     bounded latency, not a hung analysis;
//   - failed ops are retried a bounded number of times with
//     exponential backoff and full jitter, so transient faults heal
//     without synchronized retry storms;
//   - a circuit breaker counts consecutive failures and trips open on
//     sustained ones: while open, every op short-circuits straight to
//     the local tier, and after a cooldown a single half-open probe
//     tests recovery before traffic resumes;
//   - every payload is integrity-checked against the SHA-256 the
//     server recorded (carried in the sumHeader); a mismatch is
//     retried as a transient fault and, if it persists, reported as a
//     corrupt miss so the caller recomputes.
//
// Tiered composes the Client over a local CacheBackend (normally the
// process's diskcache.Store): reads try local first and fill it on a
// remote hit, writes go to both, and any remote misbehavior leaves
// exactly the local behavior — byte-identical reports, verified by the
// fault-injection harness.
package remotecache

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"safeflow/internal/diskcache"
	"safeflow/internal/metrics"
)

// Protocol: one entry per URL.
//
//	GET /v1/e/{ns}/{version}/{key}  200 payload (+ sumHeader) | 404 miss
//	PUT /v1/e/{ns}/{version}/{key}  204 stored; sumHeader, when sent,
//	                                is verified server-side so a body
//	                                corrupted in transit is rejected
//	                                (400) instead of stored
//
// ns is a short lowercase namespace (e.g. "parse"), version the
// caller's codec version, key the lowercase hex SHA-256 content key.
const sumHeader = "X-Safeflow-Sum"

// Config tunes a Client. The zero value of every field selects a
// production default.
type Config struct {
	// BaseURL locates the sfcached server, e.g. "http://10.0.0.7:8788".
	BaseURL string
	// OpTimeout bounds each individual HTTP attempt. Default 2s.
	OpTimeout time.Duration
	// MaxRetries is how many times a failed attempt is retried (so an op
	// makes at most MaxRetries+1 attempts). 0 means the default of 2;
	// negative disables retries.
	MaxRetries int
	// RetryBase and RetryMax shape the backoff: the delay before retry n
	// is drawn uniformly from [0, min(RetryBase·2ⁿ, RetryMax)] (full
	// jitter). Defaults 50ms and 1s.
	RetryBase time.Duration
	RetryMax  time.Duration
	// FailureThreshold is the consecutive-failure count that trips the
	// breaker open. Default 5.
	FailureThreshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe. Default 5s.
	Cooldown time.Duration
	// HalfOpenProbes is how many consecutive probe successes close the
	// breaker again. Default 1.
	HalfOpenProbes int
	// Transport overrides the HTTP transport (fault-injection hook).
	Transport http.RoundTripper
	// Sleep overrides the backoff sleep (test hook; nil = time.Sleep).
	Sleep func(time.Duration)
	// Jitter overrides the backoff draw (test hook; nil = uniform
	// [0, max) from math/rand).
	Jitter func(max time.Duration) time.Duration
}

func (c Config) withDefaults() Config {
	if c.OpTimeout <= 0 {
		c.OpTimeout = 2 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = time.Second
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	if c.Jitter == nil {
		c.Jitter = defaultJitter
	}
	return c
}

var jitterMu sync.Mutex

// defaultJitter draws uniformly from [0, max). math/rand's global
// source is locked internally but rand.Int63n panics on 0.
func defaultJitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return time.Duration(rand.Int63n(int64(max)))
}

// Client implements diskcache.CacheBackend against an sfcached server.
// Safe for concurrent use. A Client never returns an error to the
// analysis: every failure is a miss.
type Client struct {
	cfg  Config
	base string
	http *http.Client
	br   *breaker

	remoteHits    atomic.Int64
	remoteMisses  atomic.Int64
	remoteCorrupt atomic.Int64
	remotePuts    atomic.Int64
	retries       atomic.Int64
	failures      atomic.Int64
	shortCircuits atomic.Int64
}

// New builds a client for cfg. The BaseURL is required; everything else
// defaults.
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	base := strings.TrimSuffix(cfg.BaseURL, "/")
	if base == "" || (!strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://")) {
		return nil, fmt.Errorf("remotecache: base URL %q must be http(s)://host:port", cfg.BaseURL)
	}
	return &Client{
		cfg:  cfg,
		base: base,
		http: &http.Client{Transport: cfg.Transport},
		br:   newBreaker(cfg.FailureThreshold, cfg.Cooldown, cfg.HalfOpenProbes, nil),
	}, nil
}

func (c *Client) url(ns string, version uint32, key [sha256.Size]byte) string {
	return fmt.Sprintf("%s/v1/e/%s/%d/%s", c.base, ns, version, hex.EncodeToString(key[:]))
}

// opStatus is one attempt's classified outcome.
type opStatus int

const (
	opHit     opStatus = iota // 200 with verified payload / 204 stored
	opMiss                    // authoritative 404 — do not retry
	opFailure                 // transport error, 5xx, checksum mismatch — retry
)

// Get implements CacheBackend. A breaker-open short circuit, an
// exhausted retry budget, and an authoritative 404 all return a miss;
// corrupt is set only when the last failure was a checksum mismatch, so
// the caller counts the eviction and recomputes.
func (c *Client) Get(ns string, version uint32, key [sha256.Size]byte) (data []byte, ok bool, corrupt bool) {
	payload, status, corrupt := c.do(http.MethodGet, ns, version, key, nil)
	switch status {
	case opHit:
		c.remoteHits.Add(1)
		return payload, true, false
	case opMiss:
		c.remoteMisses.Add(1)
		return nil, false, false
	default:
		if corrupt {
			c.remoteCorrupt.Add(1)
		}
		return nil, false, corrupt
	}
}

// Put implements CacheBackend: best effort, silent on failure, same
// retry and breaker discipline as Get.
func (c *Client) Put(ns string, version uint32, key [sha256.Size]byte, data []byte) {
	if _, status, _ := c.do(http.MethodPut, ns, version, key, data); status == opHit {
		c.remotePuts.Add(1)
	}
}

// do runs one op — attempts with backoff under the breaker.
func (c *Client) do(method, ns string, version uint32, key [sha256.Size]byte, body []byte) (payload []byte, status opStatus, corrupt bool) {
	proceed, probe := c.br.allow()
	if !proceed {
		c.shortCircuits.Add(1)
		return nil, opFailure, false
	}
	for attempt := 0; ; attempt++ {
		payload, status, corrupt = c.attempt(method, ns, version, key, body)
		if status != opFailure {
			c.br.record(true, probe)
			return payload, status, false
		}
		if attempt >= c.cfg.MaxRetries {
			c.failures.Add(1)
			c.br.record(false, probe)
			return nil, opFailure, corrupt
		}
		c.retries.Add(1)
		c.cfg.Sleep(c.backoff(attempt))
	}
}

// backoff computes the full-jitter delay before retry attempt n.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.RetryBase << uint(attempt)
	if d > c.cfg.RetryMax || d <= 0 {
		d = c.cfg.RetryMax
	}
	return c.cfg.Jitter(d)
}

// attempt is one HTTP round trip under the per-op timeout.
func (c *Client) attempt(method, ns string, version uint32, key [sha256.Size]byte, body []byte) (payload []byte, status opStatus, corrupt bool) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.OpTimeout)
	defer cancel()
	var rd io.Reader
	if method == http.MethodPut {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(ns, version, key), rd)
	if err != nil {
		return nil, opFailure, false
	}
	if method == http.MethodPut {
		sum := sha256.Sum256(body)
		req.Header.Set(sumHeader, hex.EncodeToString(sum[:]))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, opFailure, false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return nil, opMiss, false
	case resp.StatusCode == http.StatusNoContent && method == http.MethodPut:
		return nil, opHit, false
	case resp.StatusCode == http.StatusOK && method == http.MethodGet:
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, opFailure, false
		}
		// Verify against the server-recorded checksum; a mismatch is
		// corruption in transit (or a lying server) — never decode it.
		sum := sha256.Sum256(data)
		if resp.Header.Get(sumHeader) != hex.EncodeToString(sum[:]) {
			return nil, opFailure, true
		}
		return data, opHit, false
	default:
		return nil, opFailure, false
	}
}

// Snapshot returns the client's counters and breaker state.
func (c *Client) Snapshot() metrics.RemoteCacheStats {
	var st metrics.RemoteCacheStats
	c.br.snapshot(&st)
	st.RemoteHits = c.remoteHits.Load()
	st.RemoteMisses = c.remoteMisses.Load()
	st.RemoteCorrupt = c.remoteCorrupt.Load()
	st.RemotePuts = c.remotePuts.Load()
	st.Retries = c.retries.Load()
	st.Failures = c.failures.Load()
	st.ShortCircuits = c.shortCircuits.Load()
	return st
}

// Tiered is the production composition: local disk tier first, remote
// tier behind it. It implements diskcache.CacheBackend and is what
// safeflowd mounts as Options.DiskCache when -remote-cache is set.
type Tiered struct {
	remote *Client
	local  diskcache.CacheBackend // may be nil (remote-only)

	localHits   atomic.Int64
	localMisses atomic.Int64
}

// NewTiered composes the remote client over a local backend. local may
// be nil, leaving a remote-only cache (still never an error source).
func NewTiered(remote *Client, local diskcache.CacheBackend) *Tiered {
	return &Tiered{remote: remote, local: local}
}

// Get tries the local tier, then the remote; a remote hit back-fills
// the local tier so the fallback stays warm for the next breaker trip.
// corrupt aggregates both tiers' integrity failures (each tier already
// evicted its own bad entry).
func (t *Tiered) Get(ns string, version uint32, key [sha256.Size]byte) ([]byte, bool, bool) {
	var localCorrupt bool
	if t.local != nil {
		data, ok, corrupt := t.local.Get(ns, version, key)
		if ok {
			t.localHits.Add(1)
			return data, true, false
		}
		t.localMisses.Add(1)
		localCorrupt = corrupt
	}
	data, ok, remoteCorrupt := t.remote.Get(ns, version, key)
	if ok {
		if t.local != nil {
			t.local.Put(ns, version, key, data)
		}
		return data, true, localCorrupt
	}
	return nil, false, localCorrupt || remoteCorrupt
}

// Put writes through to both tiers; the local write lands first so the
// entry survives even when the remote tier is down.
func (t *Tiered) Put(ns string, version uint32, key [sha256.Size]byte, data []byte) {
	if t.local != nil {
		t.local.Put(ns, version, key, data)
	}
	t.remote.Put(ns, version, key, data)
}

// Snapshot merges the client counters with the tier's local-side view.
func (t *Tiered) Snapshot() metrics.RemoteCacheStats {
	st := t.remote.Snapshot()
	st.LocalHits = t.localHits.Load()
	st.LocalMisses = t.localMisses.Load()
	return st
}
