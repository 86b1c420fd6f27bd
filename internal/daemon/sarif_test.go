package daemon

// SARIF + policy surface of POST /v1/analyze: the ?format=sarif query
// (or options.format) must render SARIF with the sarif media type, the
// body must be byte-identical to the CLI SARIF writer, the format must
// participate in single-flight keying (a JSON and a SARIF request for
// the same system are different flights), and an unknown policy name is
// a 400.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"safeflow/internal/sarifschema"
	"safeflow/pkg/safeflow"
)

func jsonBody(t *testing.T, req AnalyzeRequest) ([]byte, error) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b, nil
}

func postRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

func TestAnalyzeSARIFFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	sources := map[string]string{"figure2.c": figure2(t)}
	req := AnalyzeRequest{Name: "figure2", Sources: sources}

	// Query parameter form.
	body, _ := jsonBody(t, req)
	resp, data := postRaw(t, ts.URL+"/v1/analyze?format=sarif", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/sarif+json" {
		t.Errorf("Content-Type = %q, want application/sarif+json", ct)
	}
	if errs := sarifschema.ValidateSARIF(data); len(errs) != 0 {
		t.Fatalf("daemon SARIF does not validate: %v", errs)
	}

	// Byte-identical to the CLI writer.
	rep, err := safeflow.AnalyzeContext(context.Background(), "figure2", sources, []string{"figure2.c"}, safeflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := safeflow.WriteReportSARIF(&want, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want.Bytes()) {
		t.Errorf("daemon SARIF diverged from the CLI writer:\n--- daemon ---\n%s\n--- cli ---\n%s", data, want.String())
	}

	// Body-option form must agree with the query form.
	req.Options.Format = "sarif"
	resp2, data2 := postAnalyze(t, ts.URL, req)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(data2, data) {
		t.Errorf("options.format=sarif diverged from ?format=sarif (status %d)", resp2.StatusCode)
	}

	// A plain JSON request for the same system must not replay SARIF
	// bytes (format participates in the single-flight key).
	req.Options.Format = ""
	resp3, data3 := postAnalyze(t, ts.URL, req)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("json request status = %d", resp3.StatusCode)
	}
	if ct := resp3.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("json Content-Type = %q", ct)
	}
	if bytes.Equal(data3, data) {
		t.Error("json and sarif responses are identical — format leaked across flights")
	}
}

func TestAnalyzeFormatAndPolicyValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	req := AnalyzeRequest{Name: "x", Sources: map[string]string{"x.c": "int x;"}}
	req.Options.Format = "yaml"
	resp, data := postAnalyze(t, ts.URL, req)
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(data, []byte("unknown format")) {
		t.Errorf("bad format: status = %d, body = %s", resp.StatusCode, data)
	}

	req.Options.Format = ""
	req.Options.Policy = "no-such-policy"
	resp, data = postAnalyze(t, ts.URL, req)
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(data, []byte("unknown policy")) {
		t.Errorf("bad policy: status = %d, body = %s", resp.StatusCode, data)
	}
}

func TestAnalyzePolicyOption(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	src := map[string]string{"main.c": `
void serve()
{
    int pwd;
    pwd = getpass();
    log_msg(pwd);
}
`}
	req := AnalyzeRequest{Name: "credsys", Sources: src}
	req.Options.Policy = "credential-leak"
	resp, data := postAnalyze(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	if !bytes.Contains(data, []byte(`"cred-leak-log"`)) {
		t.Errorf("policy run lacks rule attribution: %s", data)
	}
	if got := resp.Header.Get("X-Safeflow-Exit"); got != "1" {
		t.Errorf("X-Safeflow-Exit = %q, want 1", got)
	}
}
