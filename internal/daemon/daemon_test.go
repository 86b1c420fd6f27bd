package daemon

// Service-level acceptance tests, run entirely in-process via httptest:
// the daemon's response body must be byte-identical to the CLI JSON
// writer on the same inputs — disk cache cold and warm, concurrency 1
// and 8 — backpressure must reject with 429 + Retry-After once the
// worker pool and queue are full, and a corrupted disk entry must be
// evicted and recomputed without changing the report.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"safeflow/internal/corpus"
	"safeflow/internal/diskcache"
	"safeflow/pkg/safeflow"
)

func figure2(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../testdata/figure2.c")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// newTestServer starts a server with an in-memory cache of its own, so
// each test server starts cold; a second server over the same Config is
// a restart that keeps only the disk tier.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	s.cache = safeflow.NewCache()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postAnalyze(t *testing.T, url string, req AnalyzeRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// getMetrics decodes the server's /metricsz payload.
func getMetrics(t *testing.T, url string) Metrics {
	t.Helper()
	resp, err := http.Get(url + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// cliJSON renders the report exactly as `safeflow -json` would, with a
// fresh cache as each CLI run has.
func cliJSON(t *testing.T, name string, sources map[string]string, cFiles []string, opts safeflow.Options) []byte {
	t.Helper()
	opts.Cache = safeflow.NewCache()
	rep, err := safeflow.AnalyzeContext(context.Background(), name, sources, cFiles, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := safeflow.WriteReportJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAnalyzeMatchesCLIColdAndWarm(t *testing.T) {
	src := figure2(t)
	sources := map[string]string{"figure2.c": src}

	// The CLI reference report, computed with no disk cache at all.
	want := cliJSON(t, "figure2", sources, []string{"figure2.c"}, safeflow.Options{})

	dc, err := diskcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	req := AnalyzeRequest{Name: "figure2", Sources: sources}
	var ts *httptest.Server
	for _, temp := range []string{"cold", "disk-warm", "memory-warm"} {
		if temp != "memory-warm" {
			_, ts = newTestServer(t, Config{Cache: dc}) // a restart empties memory
		}
		resp, got := postAnalyze(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", temp, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: daemon body diverged from CLI JSON\n got: %s\nwant: %s", temp, got, want)
		}
		if exit := resp.Header.Get("X-Safeflow-Exit"); exit != "1" {
			t.Errorf("%s: X-Safeflow-Exit = %q, want 1 (figure2 has findings)", temp, exit)
		}
		// Config.Cache carries the analysis traffic: the cold request
		// writes parsed units to it and the restarted daemon reads them.
		m := getMetrics(t, ts.URL)
		if m.DiskStore == nil {
			t.Fatalf("%s: /metricsz missing disk_store", temp)
		}
		if m.DiskStore.Puts == 0 {
			t.Errorf("%s: disk_store.puts = 0, want the cold request's writes", temp)
		}
		if temp == "disk-warm" && m.DiskCacheHits == 0 {
			t.Errorf("disk-warm: disk_cache_hits = 0, want > 0")
		}
	}
}

func TestAnalyzeConcurrentRequestsDeterministic(t *testing.T) {
	src := figure2(t)
	sources := map[string]string{"figure2.c": src}
	want := cliJSON(t, "figure2", sources, []string{"figure2.c"}, safeflow.Options{})

	dc, err := diskcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: dc, Concurrency: 8, QueueDepth: 64})

	const n = 16
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(AnalyzeRequest{Name: "figure2", Sources: sources})
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, got)
				return
			}
			if !bytes.Equal(got, want) {
				errs <- fmt.Errorf("concurrent response diverged from CLI JSON")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// The acceptance bar, per corpus system: the daemon's bytes equal the
// CLI writer's with the disk cache cold and warm.
func TestAnalyzeCorpusMatchesCLI(t *testing.T) {
	dc, err := diskcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range corpus.All() {
		src, err := sys.SourceMap()
		if err != nil {
			t.Fatal(err)
		}
		want := cliJSON(t, sys.Name, src, sys.CFiles, safeflow.Options{})
		req := AnalyzeRequest{Name: sys.Name, Sources: src, CFiles: sys.CFiles}
		for _, temp := range []string{"cold", "disk-warm"} {
			_, ts := newTestServer(t, Config{Cache: dc}) // a restart empties memory
			resp, got := postAnalyze(t, ts.URL, req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", sys.Name, temp, resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s %s: daemon body diverged from CLI JSON", sys.Name, temp)
			}
		}
	}
}

func TestCorruptDiskEntryHealsWithoutChangingReport(t *testing.T) {
	src := figure2(t)
	sources := map[string]string{"figure2.c": src}

	dc, err := diskcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: dc})
	req := AnalyzeRequest{Name: "figure2", Sources: sources}

	_, want := postAnalyze(t, ts.URL, req)
	if dc.Len("parse") == 0 {
		t.Fatal("no parse entries on disk after first request")
	}
	if n := dc.Corrupt("parse", 100); n == 0 {
		t.Fatal("Corrupt damaged nothing")
	}
	// Restart: the new server can only start from the (damaged) disk tier.
	_, ts = newTestServer(t, Config{Cache: dc})

	resp, got := postAnalyze(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after corruption: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("report changed after disk-cache corruption")
	}

	// The evictions must surface in the restarted daemon's aggregated
	// metrics.
	m := getMetrics(t, ts.URL)
	if m.CacheCorruptEvictions == 0 {
		t.Error("corrupted entries not surfaced in /metricsz cache_corrupt_evictions")
	}
	if m.RequestsOK != 1 {
		t.Errorf("requests_ok = %d, want 1", m.RequestsOK)
	}
}

func TestBackpressureRejectsWith429(t *testing.T) {
	s, ts := newTestServer(t, Config{Concurrency: 1, QueueDepth: 1})

	// Occupy the single worker slot and the single queue position so the
	// next request has nowhere to go.
	s.sem <- struct{}{}
	s.queued.Store(1)
	defer func() { <-s.sem; s.queued.Store(0) }()

	resp, body := postAnalyze(t, ts.URL, AnalyzeRequest{
		Name:    "x",
		Sources: map[string]string{"x.c": "int main(void) { return 0; }\n"},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	m := getMetrics(t, ts.URL)
	if m.RequestsRejected != 1 {
		t.Errorf("requests_rejected = %d, want 1", m.RequestsRejected)
	}
}

func TestQueueAdmitsWhenSlotFrees(t *testing.T) {
	s, ts := newTestServer(t, Config{Concurrency: 1, QueueDepth: 4})

	// Hold the only slot briefly; the request should queue, then run.
	s.sem <- struct{}{}
	go func() {
		time.Sleep(50 * time.Millisecond)
		<-s.sem
	}()
	resp, body := postAnalyze(t, ts.URL, AnalyzeRequest{
		Name:    "tiny",
		Sources: map[string]string{"tiny.c": "int main(void) { return 0; }\n"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("queued request failed: status %d: %s", resp.StatusCode, body)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, want 200", resp.StatusCode)
	}

	s.BeginDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
	}

	r2, body := postAnalyze(t, ts.URL, AnalyzeRequest{
		Name:    "x",
		Sources: map[string]string{"x.c": "int main(void) { return 0; }\n"},
	})
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining analyze status %d, want 503: %s", r2.StatusCode, body)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{}) // local paths disabled

	cases := []struct {
		name string
		req  AnalyzeRequest
		want string
	}{
		{"missing name", AnalyzeRequest{Sources: map[string]string{"a.c": "int x;"}}, "name is required"},
		{"no input form", AnalyzeRequest{Name: "x"}, "exactly one of"},
		{"two input forms", AnalyzeRequest{Name: "x", Sources: map[string]string{"a.c": "int x;"}, Dir: "/tmp"}, "exactly one of"},
		{"local paths disabled", AnalyzeRequest{Name: "x", Dir: "/tmp"}, "without -local-paths"},
		{"c_files without sources", AnalyzeRequest{Name: "x", Paths: []string{"/tmp/a.c"}, CFiles: []string{"a.c"}}, "c_files"},
		{"bad alias", AnalyzeRequest{Name: "x", Sources: map[string]string{"a.c": "int x;"}, Options: AnalyzeOptions{Alias: "steensgaard"}}, "unknown alias"},
		{"no .c sources", AnalyzeRequest{Name: "x", Sources: map[string]string{"a.h": "int x;"}}, "no .c files"},
	}
	for _, tc := range cases {
		resp, body := postAnalyze(t, ts.URL, tc.req)
		wantStatus := http.StatusBadRequest
		if tc.name == "no .c sources" {
			wantStatus = http.StatusUnprocessableEntity
		}
		if resp.StatusCode != wantStatus {
			t.Errorf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, wantStatus, body)
			continue
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: body %q does not mention %q", tc.name, body, tc.want)
		}
	}

	// Unknown top-level fields are rejected, not silently ignored.
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader(`{"name":"x","sourcez":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400: %s", resp.StatusCode, body)
	}

	// GET on the analyze endpoint is a method error.
	resp, err = http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze: status %d, want 405", resp.StatusCode)
	}
}

func TestLocalPathsForm(t *testing.T) {
	dir := t.TempDir()
	src := figure2(t)
	path := dir + "/figure2.c"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	want := cliJSON(t, "fig2", map[string]string{"figure2.c": src}, []string{"figure2.c"}, safeflow.Options{})

	_, ts := newTestServer(t, Config{AllowLocalPaths: true})
	for _, req := range []AnalyzeRequest{
		{Name: "fig2", Dir: dir},
		{Name: "fig2", Paths: []string{path}},
	} {
		resp, got := postAnalyze(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Error("local-path response diverged from inline-sources CLI JSON")
		}
	}
}

func TestStatsOptionControlsMetricsInBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sources := map[string]string{"figure2.c": figure2(t)}

	_, plain := postAnalyze(t, ts.URL, AnalyzeRequest{Name: "figure2", Sources: sources})
	if bytes.Contains(plain, []byte(`"metrics"`)) {
		t.Error("body includes metrics without options.stats")
	}
	_, stats := postAnalyze(t, ts.URL, AnalyzeRequest{
		Name: "figure2", Sources: sources, Options: AnalyzeOptions{Stats: true},
	})
	if !bytes.Contains(stats, []byte(`"metrics"`)) {
		t.Error("body missing metrics despite options.stats")
	}
}

func TestResolveOptionsTimeoutClamp(t *testing.T) {
	s := New(Config{DefaultTimeout: time.Second, MaxTimeout: 2 * time.Second})

	_, timeout, err := s.resolveOptions(AnalyzeOptions{})
	if err != nil || timeout != time.Second {
		t.Fatalf("default timeout = %v, %v; want 1s", timeout, err)
	}
	_, timeout, err = s.resolveOptions(AnalyzeOptions{TimeoutMS: 500})
	if err != nil || timeout != 500*time.Millisecond {
		t.Fatalf("explicit timeout = %v, %v; want 500ms", timeout, err)
	}
	_, timeout, err = s.resolveOptions(AnalyzeOptions{TimeoutMS: 60_000})
	if err != nil || timeout != 2*time.Second {
		t.Fatalf("oversized timeout = %v, %v; want clamp to 2s", timeout, err)
	}
}
