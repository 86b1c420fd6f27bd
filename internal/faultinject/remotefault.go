// Remote-cache fault injection: the network counterpart of the disk
// corruption injector. A fault here is what a shared cache tier
// actually suffers in a fleet — a server that stops answering, answers
// slowly, or answers with damaged bytes — planted into the HTTP
// transport under the remotecache client. The invariant under test is
// the remote tier's isolation contract: any mix of outage, latency,
// and corruption degrades to local-tier behavior — the analysis never
// fails and the report bytes never change — while the client's breaker
// and retry counters make the degradation observable.

package faultinject

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	"safeflow/internal/diskcache"
	"safeflow/internal/frontend"
	"safeflow/internal/vfg"
)

// FaultTransport wraps an http.RoundTripper with seeded, per-request
// fault injection. Rates are probabilities in [0, 1]; draws come from
// one seeded source, so a scenario is reproducible up to request
// arrival order. Safe for concurrent use.
type FaultTransport struct {
	// Base performs the real round trips; nil means
	// http.DefaultTransport.
	Base http.RoundTripper
	// OutageRate is the probability a request fails outright with a
	// transport error, as a down or unreachable server would.
	OutageRate float64
	// LatencyRate is the probability a request is delayed by Latency
	// before being forwarded, as an overloaded server would.
	LatencyRate float64
	// Latency is the injected delay (default 50ms when a delay fires).
	Latency time.Duration
	// CorruptRate is the probability a successful GET response has one
	// payload byte flipped, as a bad NIC or proxy would.
	CorruptRate float64

	mu          sync.Mutex
	rng         *rand.Rand
	outages     int
	delays      int
	corruptions int
}

// NewFaultTransport seeds a FaultTransport; configure the rates on the
// returned value before first use.
func NewFaultTransport(seed int64, base http.RoundTripper) *FaultTransport {
	return &FaultTransport{Base: base, rng: rand.New(rand.NewSource(seed))}
}

// Injected reports how many faults of each class actually fired.
func (t *FaultTransport) Injected() (outages, delays, corruptions int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.outages, t.delays, t.corruptions
}

// draw runs the three fault dice under the lock; the mutation of a
// response body happens outside it.
func (t *FaultTransport) draw() (outage, delay, corrupt bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	outage = t.OutageRate > 0 && t.rng.Float64() < t.OutageRate
	if outage {
		t.outages++
		return
	}
	delay = t.LatencyRate > 0 && t.rng.Float64() < t.LatencyRate
	if delay {
		t.delays++
	}
	corrupt = t.CorruptRate > 0 && t.rng.Float64() < t.CorruptRate
	return
}

func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	outage, delay, corrupt := t.draw()
	if outage {
		return nil, fmt.Errorf("faultinject: injected outage for %s %s", req.Method, req.URL.Path)
	}
	if delay {
		d := t.Latency
		if d <= 0 {
			d = 50 * time.Millisecond
		}
		select {
		case <-time.After(d):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil || !corrupt {
		return resp, err
	}
	if req.Method == http.MethodGet && resp.StatusCode == http.StatusOK {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if len(body) > 0 {
			flipped := make([]byte, len(body))
			copy(flipped, body)
			flipped[len(flipped)/2] ^= 0x40
			body = flipped
			t.mu.Lock()
			t.corruptions++
			t.mu.Unlock()
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
	}
	return resp, nil
}

// RemoteScenario is one seeded remote-cache fault run over a generated
// system: a baseline analysis with no cache at all, then cold and warm
// analyses through the supplied (fault-injected) backend.
type RemoteScenario struct {
	Seed    int64            // drives the system generator
	Gen     corpus.GenConfig // generated-system shape (zero = defaults)
	Workers int              // pipeline worker count (0 = GOMAXPROCS)
}

// RemoteResult is one remote-cache scenario's outcome. All three JSON
// renderings must coincide for the isolation contract to hold.
type RemoteResult struct {
	System       *corpus.Generated
	Baseline     *core.Report // no cache backend at all
	Cold         *core.Report // first run through the faulty backend
	Warm         *core.Report // re-run through the faulty backend
	BaselineJSON string
	ColdJSON     string
	WarmJSON     string
}

// RunRemote generates the scenario's system and analyzes it three
// times: once with no cache (the reference bytes), once cold through
// backend (exercising the Put path under faults), and once warm after
// an in-memory cache reset (exercising the Get path under faults). The
// JSON strings are canonicalized for direct byte comparison.
func RunRemote(ctx context.Context, sc RemoteScenario, backend diskcache.CacheBackend) (*RemoteResult, error) {
	gen := corpus.Generate(sc.Seed, sc.Gen)
	base := core.Options{Recover: true, Workers: sc.Workers, Stats: true}

	run := func(dc diskcache.CacheBackend, what string) (*core.Report, error) {
		frontend.ResetParseCache()
		vfg.ResetStateStore()
		opts := base
		opts.DiskCache = dc
		rep, err := core.AnalyzeSources(ctx, gen.Name, cpp.MapSource(gen.Sources), gen.CFiles, opts)
		if err != nil {
			return nil, fmt.Errorf("%s run: %w", what, err)
		}
		return rep, nil
	}

	res := &RemoteResult{System: &gen}
	var err error
	if res.Baseline, err = run(nil, "baseline"); err != nil {
		return nil, err
	}
	if res.Cold, err = run(backend, "cold"); err != nil {
		return nil, err
	}
	if res.Warm, err = run(backend, "warm"); err != nil {
		return nil, err
	}
	if res.BaselineJSON, err = canonicalJSON(res.Baseline); err != nil {
		return nil, err
	}
	if res.ColdJSON, err = canonicalJSON(res.Cold); err != nil {
		return nil, err
	}
	if res.WarmJSON, err = canonicalJSON(res.Warm); err != nil {
		return nil, err
	}
	return res, nil
}
