package daemon

// The daemon's remote-tier wiring: with Config.Remote set, analyses
// must read and write through the tiered backend (not the bare local
// store), the response bytes must stay identical to the CLI, and the
// remote-cache counters must surface under /metricsz.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"safeflow/internal/diskcache"
	"safeflow/internal/remotecache"
	"safeflow/pkg/safeflow"
)

func TestRemoteTierCarriesAnalysisTraffic(t *testing.T) {
	serverStore, err := diskcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cacheSrv := httptest.NewServer(remotecache.NewServer(serverStore).Handler())
	defer cacheSrv.Close()
	client, err := remotecache.New(remotecache.Config{BaseURL: cacheSrv.URL})
	if err != nil {
		t.Fatal(err)
	}
	local, err := diskcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tiered := remotecache.NewTiered(client, local)

	_, ts := newTestServer(t, Config{Cache: local, Remote: tiered})

	src := figure2(t)
	sources := map[string]string{"figure2.c": src}
	want := cliJSON(t, "figure2", sources, []string{"figure2.c"}, safeflow.Options{})

	req := AnalyzeRequest{Name: "figure2", Sources: sources}
	resp, got := postAnalyze(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("cold body through remote tier diverged from CLI JSON")
	}

	stats := tiered.Snapshot()
	if stats.RemotePuts == 0 {
		t.Fatalf("analysis wrote nothing to the remote tier: %+v", stats)
	}
	if serverStore.Len("parse") == 0 {
		t.Error("remote store holds no parse entries after a cold analysis")
	}

	// A fresh daemon replica sharing only the remote tier must hit it.
	local2, err := diskcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	client2, err := remotecache.New(remotecache.Config{BaseURL: cacheSrv.URL})
	if err != nil {
		t.Fatal(err)
	}
	tiered2 := remotecache.NewTiered(client2, local2)
	_, ts2 := newTestServer(t, Config{Cache: local2, Remote: tiered2})

	resp, got = postAnalyze(t, ts2.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica: status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("replica body diverged from CLI JSON")
	}
	if st := tiered2.Snapshot(); st.RemoteHits == 0 {
		t.Errorf("replica with a cold local tier recorded no remote hits: %+v", st)
	}

	// The counters must surface in /metricsz.
	mresp, err := http.Get(ts2.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RemoteCache == nil {
		t.Fatal("/metricsz missing remote_cache block")
	}
	if m.RemoteCache.RemoteHits == 0 {
		t.Errorf("/metricsz remote_cache.remote_hits = 0: %+v", m.RemoteCache)
	}
}
