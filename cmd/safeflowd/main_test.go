package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"safeflow/pkg/safeflow"
)

func TestRunFlagErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errOut, nil, nil); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	errOut.Reset()
	if code := run([]string{"stray-arg"}, &out, &errOut, nil, nil); code != 2 {
		t.Errorf("stray arg: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unexpected argument") {
		t.Errorf("stray arg: stderr %q", errOut.String())
	}
	errOut.Reset()
	badDir := t.TempDir() + "/file"
	if err := os.WriteFile(badDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-cachedir", badDir}, &out, &errOut, nil, nil); code != 2 {
		t.Errorf("unusable cachedir: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-cachedir") {
		t.Errorf("unusable cachedir: stderr %q does not name the flag", errOut.String())
	}
}

// TestServeAnalyzeDrain boots the daemon on an ephemeral port, analyzes
// figure2.c over HTTP, checks the body against the CLI JSON writer, and
// drains it through the stop channel.
func TestServeAnalyzeDrain(t *testing.T) {
	src, err := os.ReadFile("../../testdata/figure2.c")
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]string{"figure2.c": string(src)}
	rep, err := safeflow.AnalyzeContext(context.Background(), "figure2", sources, []string{"figure2.c"}, safeflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := safeflow.WriteReportJSON(&want, rep); err != nil {
		t.Fatal(err)
	}

	ready := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan int, 1)
	var out, errOut bytes.Buffer
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-cachedir", t.TempDir()},
			&out, &errOut, ready, stop)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not come up; stderr: %s", errOut.String())
	}
	base := "http://" + addr

	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hresp.StatusCode)
	}

	body, err := json.Marshal(map[string]any{"name": "figure2", "sources": sources})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("daemon body diverged from CLI JSON writer")
	}

	close(stop)
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("drain exit %d; stderr: %s", code, errOut.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Errorf("stdout missing drain confirmation: %q", out.String())
	}
}

// A drain must also close open incremental sessions: open one via
// /v1/update, stop the daemon, and expect the close to be reported
// before the drain confirmation.
func TestServeDrainClosesSessions(t *testing.T) {
	src, err := os.ReadFile("../../testdata/figure2.c")
	if err != nil {
		t.Fatal(err)
	}

	ready := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan int, 1)
	var out, errOut bytes.Buffer
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-cachedir", "off"},
			&out, &errOut, ready, stop)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not come up; stderr: %s", errOut.String())
	}
	base := "http://" + addr

	body, err := json.Marshal(map[string]any{
		"session": "s1", "name": "figure2",
		"sources": map[string]string{"figure2.c": string(src)},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open session: %d", resp.StatusCode)
	}

	close(stop)
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("drain exit %d; stderr: %s", code, errOut.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain")
	}
	if !strings.Contains(out.String(), "closed 1 incremental session(s)") {
		t.Errorf("stdout missing session-close report: %q", out.String())
	}
	if !strings.Contains(out.String(), "drained") {
		t.Errorf("stdout missing drain confirmation: %q", out.String())
	}
}
