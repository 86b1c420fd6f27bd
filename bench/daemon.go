package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"safeflow/internal/corpus"
	"safeflow/internal/daemon"
	"safeflow/pkg/safeflow"
)

// The request mix. No recorded traffic backs it: it is a design choice.
// The working set is larger than both in-memory tiers hold (64 summary
// modules, 256 parsed units at four units a system), so warm requests
// are served by memory and disk in turn; the never-seen share keeps the
// tiers writing while they are read. bench/README.md reports how the
// metrics move under other mixes.
const (
	workingSet = 96
	coldShare  = 0.20 // a working-set system under a new nonce
	sarifShare = 0.05 // ?format=sarif for a working-set system
	// clients is the number of keep-alive connections issuing requests,
	// one goroutine each: one per CPU of the 2-core reference box.
	clients = 2
)

// smallConfig is the shape of every working-set system.
var smallConfig = corpus.GenConfig{Regions: 3, Monitors: 4, Stages: 8}

// daemonMixed serves safeflowd in process, with a disk cache in a temp
// dir, to two closed-loop clients drawing a seeded mix: 75% JSON
// requests for working-set systems, 20% systems never seen and 5% SARIF
// requests for working-set systems. Set-up requests every working-set
// system once in each format, so warm requests find a tier warm.
type daemonMixed struct {
	*env
	ws                []system
	bodies            [][]byte
	refJSON, refSARIF [][]byte
	dir               string
	srv               *httptest.Server
	client            *http.Client

	drawSeed int64
	mu       sync.Mutex // guards draw
	draw     *rand.Rand
}

type request struct {
	sys   int
	cold  bool
	sarif bool
	nonce uint64
}

func (d *daemonMixed) setup() error {
	d.close()
	d.ws, d.bodies, d.refJSON, d.refSARIF = nil, nil, nil, nil
	r := d.rng()
	for i := 0; i < workingSet; i++ {
		sys := generated(corpus.Generate(r.Int63(), smallConfig))
		body, err := requestBody(sys)
		if err != nil {
			return err
		}
		cold := sys.withNonce(d.nonce())
		rep, err := safeflow.Analyze(cold.name, cold.sources, cold.cFiles, safeflow.Options{Recover: true})
		if err != nil {
			return err
		}
		if err := sys.checkKill(rep); err != nil {
			return err
		}
		d.ws = append(d.ws, sys)
		d.bodies = append(d.bodies, body)
		d.refJSON = append(d.refJSON, renderJSON(rep))
		d.refSARIF = append(d.refSARIF, renderSARIF(rep))
	}
	d.drawSeed = r.Int63()
	d.draw = rand.New(rand.NewSource(d.drawSeed))

	dir, err := d.tempDir("daemon-")
	if err != nil {
		return err
	}
	d.dir = dir
	store, err := safeflow.OpenDiskCache(filepath.Join(dir, "cache"), 0)
	if err != nil {
		return err
	}
	d.srv = httptest.NewServer(daemon.New(daemon.Config{Cache: store}).Handler())
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	for k := range d.ws {
		for _, sarif := range []bool{false, true} {
			if _, err := d.send(request{sys: k, sarif: sarif}); err != nil {
				return err
			}
		}
	}
	return nil
}

func requestBody(s system) ([]byte, error) {
	return json.Marshal(daemon.AnalyzeRequest{Name: s.name, Sources: s.sources, CFiles: s.cFiles})
}

// next draws the next request of the seeded mix.
func (d *daemonMixed) next() request {
	d.mu.Lock()
	defer d.mu.Unlock()
	u, k := d.draw.Float64(), d.draw.Intn(len(d.ws))
	switch {
	case u < coldShare:
		return request{sys: k, cold: true, nonce: d.nonce()}
	case u < coldShare+sarifShare:
		return request{sys: k, sarif: true}
	}
	return request{sys: k}
}

// send issues one request and checks the response against the
// library-rendered reference; a never-seen system renders exactly as
// its base system does.
func (d *daemonMixed) send(req request) (time.Duration, error) {
	body, want, url := d.bodies[req.sys], d.refJSON[req.sys], d.srv.URL+"/v1/analyze"
	if req.cold {
		var err error
		if body, err = requestBody(d.ws[req.sys].withNonce(req.nonce)); err != nil {
			return 0, err
		}
	}
	if req.sarif {
		want, url = d.refSARIF[req.sys], url+"?format=sarif"
	}
	t0 := time.Now()
	resp, err := d.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: status %d: %s", d.ws[req.sys].name, resp.StatusCode, data)
	}
	return lat, sameBytes(d.ws[req.sys].name, data, want)
}

// load runs the clients until the deadline.
func (d *daemonMixed) load(until time.Time, done func(req request, lat time.Duration, err error)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				req := d.next()
				lat, err := d.send(req)
				done(req, lat, err)
			}
		}()
	}
	wg.Wait()
}

func (d *daemonMixed) measure(until time.Time, rec *recorder) {
	d.load(until, func(req request, lat time.Duration, err error) { rec.add(req.cold, lat, err) })
}

func (d *daemonMixed) metricsz() (daemon.Metrics, error) {
	var m daemon.Metrics
	resp, err := d.client.Get(d.srv.URL + "/metricsz")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// trace re-drives working-set systems through the layers, then takes the
// daemon's own counters as /metricsz deltas over a stretch of the real
// mix, and finally replays the mix in process to time the disk tier,
// which the daemon holds behind a concrete store.
func (d *daemonMixed) trace(until time.Time, lr *layerRun) {
	span := time.Until(until)
	layersEnd, httpEnd := time.Now().Add(span*2/5), time.Now().Add(span*7/10)
	for time.Now().Before(layersEnd) {
		k := d.next().sys
		lr.layerOp(d.ws[k].withNonce(d.nonce()), d.refJSON[k])
	}

	before, err := d.metricsz()
	if !lr.check(err) {
		return
	}
	var mu sync.Mutex
	var ops int
	var wall time.Duration
	m0 := readMem()
	d.load(httpEnd, func(_ request, lat time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		if lr.check(err) {
			ops++
			wall += lat
		}
	})
	lr.tier.addMem(readMem().sub(m0), ops)
	after, err := d.metricsz()
	if !lr.check(err) {
		return
	}
	ts := &lr.tier
	ts.ops += ops
	ts.wallNS += wall.Nanoseconds()
	ts.analysisNS += after.AnalysisWallNS - before.AnalysisWallNS
	ts.feHits += int(after.FrontendCacheHits - before.FrontendCacheHits)
	ts.feMisses += int(after.FrontendCacheMisses - before.FrontendCacheMisses)
	ts.sumHits += int(after.CacheHits - before.CacheHits)
	ts.sumMisses += int(after.CacheMisses - before.CacheMisses)
	ts.corrupt += int(after.CacheCorruptEvictions - before.CacheCorruptEvictions)
	ts.rejected += after.RequestsRejected - before.RequestsRejected
	ts.dedup += after.DedupHits - before.DedupHits

	tc, dir, err := openTimedCache(d.env)
	if !lr.check(err) {
		return
	}
	defer removeAll(dir)
	replayed := 0
	for time.Now().Before(until) {
		req := d.next()
		sys, ref := d.ws[req.sys], d.refJSON[req.sys]
		if req.cold {
			sys = sys.withNonce(req.nonce)
		}
		rep, err := safeflow.Analyze(sys.name, sys.sources, sys.cFiles, safeflow.Options{Recover: true, DiskCache: tc})
		if err == nil {
			err = sameBytes(sys.name, renderJSON(rep), ref)
		}
		if lr.check(err) {
			replayed++
		}
	}
	lr.tier.addDisk(tc.counters(), replayed)
}

// digest covers the working set and the start of the request draw.
func (d *daemonMixed) digest() string {
	r := rand.New(rand.NewSource(d.drawSeed))
	var draws []string
	for i := 0; i < 256; i++ {
		draws = append(draws, fmt.Sprint(r.Float64(), r.Intn(len(d.ws))))
	}
	return digestSystems(d.ws, draws...)
}

func (d *daemonMixed) close() {
	if d.srv != nil {
		d.srv.Close()
		d.client.CloseIdleConnections()
		d.srv = nil
	}
	removeAll(d.dir)
	d.dir = ""
}
