package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"safeflow/internal/cpp"
	"safeflow/internal/diskcache"
	"safeflow/internal/frontend"
	"safeflow/internal/policy"
	"safeflow/internal/remotecache"
	"safeflow/internal/vfg"
)

// credSrc carries a credential from getpass straight into the log — one
// error under the credential-leak policy, clean under pii-to-log.
const credSrc = `
void serve()
{
    int pwd;
    pwd = getpass();
    log_msg(pwd);
}
`

func mustBuiltin(t *testing.T, name string) *policy.Compiled {
	t.Helper()
	pol, ok := policy.Builtin(name)
	if !ok {
		t.Fatalf("builtin policy %q missing", name)
	}
	return pol
}

func analyzeCred(t *testing.T, src string, opts Options) *Report {
	t.Helper()
	rep, err := AnalyzeSources(context.Background(), "credsys", cpp.MapSource{"main.c": src}, []string{"main.c"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestPolicyFingerprintDistinct pins that differing policies produce
// differing keys in the store of last converged states, while the nil
// policy and the explicit default share one — they analyze identically,
// so sharing a state is sound and wanted.
func TestPolicyFingerprintDistinct(t *testing.T) {
	base := stateKey("s", Options{})
	def := stateKey("s", Options{Policy: policy.Default()})
	cred := stateKey("s", Options{Policy: mustBuiltin(t, "credential-leak")})
	pii := stateKey("s", Options{Policy: mustBuiltin(t, "pii-to-log")})
	if base != def {
		t.Errorf("nil policy and explicit default must share a state key: %q vs %q", base, def)
	}
	if base == cred || base == pii || cred == pii {
		t.Errorf("distinct policies share a state key: default=%q cred=%q pii=%q", base, cred, pii)
	}
}

// TestPolicyCacheIsolationMemory runs the same system under two
// policies and asserts the store of last converged states holds two
// separate entries — neither run replayed the other's state.
func TestPolicyCacheIsolationMemory(t *testing.T) {
	vfg.ResetStateStore()
	t.Cleanup(vfg.ResetStateStore)
	cred := Options{Policy: mustBuiltin(t, "credential-leak")}
	pii := Options{Policy: mustBuiltin(t, "pii-to-log")}
	rep := analyzeCred(t, credSrc, cred)
	if len(rep.ErrorsData) != 1 {
		t.Fatalf("credential-leak: got %d errors, want 1", len(rep.ErrorsData))
	}
	rep = analyzeCred(t, credSrc, pii)
	if len(rep.ErrorsData) != 0 {
		t.Fatalf("pii-to-log: got %d errors, want 0", len(rep.ErrorsData))
	}
	keys := vfg.StateStoreKeys()
	want := []string{stateKey("credsys", cred), stateKey("credsys", pii)}
	sort.Strings(want)
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("store holds keys %q, want one per policy %q", keys, want)
	}
}

// recordingCache is a CacheBackend that remembers every key written.
type recordingCache struct {
	mu   sync.Mutex
	puts map[string][][sha256.Size]byte
}

func (r *recordingCache) Get(ns string, version uint32, key [sha256.Size]byte) ([]byte, bool, bool) {
	return nil, false, false
}

func (r *recordingCache) Put(ns string, version uint32, key [sha256.Size]byte, data []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.puts == nil {
		r.puts = make(map[string][][sha256.Size]byte)
	}
	r.puts[ns] = append(r.puts[ns], key)
}

func (r *recordingCache) namespaces() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int)
	for ns, keys := range r.puts {
		out[ns] = len(keys)
	}
	return out
}

// TestPolicyCacheIsolationDisk asserts that the disk tier holds parsed
// units only: phase-3 state never leaves the process, so runs under two
// policies write parse entries and nothing in a summary namespace.
func TestPolicyCacheIsolationDisk(t *testing.T) {
	vfg.ResetStateStore()
	t.Cleanup(vfg.ResetStateStore)
	var _ diskcache.CacheBackend = (*recordingCache)(nil)

	for _, name := range []string{"credential-leak", "pii-to-log"} {
		frontend.ResetParseCache()
		rc := &recordingCache{}
		analyzeCred(t, credSrc, Options{Policy: mustBuiltin(t, name), DiskCache: rc})
		ns := rc.namespaces()
		if ns["parse"] == 0 || len(ns) != 1 {
			t.Fatalf("%s: disk tier writes %v, want parse entries only", name, ns)
		}
	}
}

// TestPolicyCacheIsolationRemote drives the remote tier against a
// recording HTTP server and asserts that runs under two policies write
// parse entries and nothing in a summary namespace.
func TestPolicyCacheIsolationRemote(t *testing.T) {
	vfg.ResetStateStore()
	t.Cleanup(vfg.ResetStateStore)

	var mu sync.Mutex
	var paths []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		paths = append(paths, r.URL.Path)
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	client, err := remotecache.New(remotecache.Config{BaseURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"credential-leak", "pii-to-log"} {
		frontend.ResetParseCache()
		mu.Lock()
		paths = nil
		mu.Unlock()
		analyzeCred(t, credSrc, Options{Policy: mustBuiltin(t, name), DiskCache: client})
		mu.Lock()
		if len(paths) == 0 {
			t.Fatalf("%s: remote tier saw no writes", name)
		}
		for _, p := range paths {
			if !strings.HasPrefix(p, "/v1/e/parse/") {
				t.Fatalf("%s: remote write to %q, want the parse namespace only", name, p)
			}
		}
		mu.Unlock()
	}
}

// TestSuppressionAuditTrail pins the audit-trail semantics end to end:
// a matching directive moves the finding out of the error list and into
// Suppressed with its justification; a trailing-comment directive and a
// directive-only line both bind to the right finding line.
func TestSuppressionAuditTrail(t *testing.T) {
	src := `
void serve()
{
    int pwd;
    int tok;
    pwd = getpass();
    tok = read_secret();
    log_msg(pwd); // safeflow:ignore cred-leak-log reviewed in SEC-9
    // safeflow:ignore cred-leak-log second one reviewed too
    log_msg(tok);
}
`
	rep := analyzeCred(t, src, Options{Policy: mustBuiltin(t, "credential-leak")})
	if len(rep.ErrorsData) != 0 {
		t.Fatalf("errors not suppressed: %v", rep.ErrorsData)
	}
	if len(rep.Suppressed) != 2 {
		t.Fatalf("got %d suppressed findings, want 2: %+v", len(rep.Suppressed), rep.Suppressed)
	}
	first := rep.Suppressed[0]
	if first.Rule != "cred-leak-log" || first.Reason != "reviewed in SEC-9" || first.Line != 8 || first.Kind != "error" {
		t.Errorf("audit entry wrong: %+v", first)
	}
	if rep.Suppressed[1].Reason != "second one reviewed too" || rep.Suppressed[1].Line != 10 {
		t.Errorf("directive-only-line entry wrong: %+v", rep.Suppressed[1])
	}
	if len(rep.SuppressionIssues) != 0 {
		t.Errorf("unexpected suppression issues: %+v", rep.SuppressionIssues)
	}
}

// TestSuppressionUnknownRule pins the structured diagnostic for
// directives the analysis cannot honor: the finding stays, the report
// is not clean, and the issue names the bad rule id and the policy.
func TestSuppressionUnknownRule(t *testing.T) {
	src := `
void serve()
{
    int pwd;
    pwd = getpass();
    log_msg(pwd); // safeflow:ignore not-a-rule never checked
}
`
	rep := analyzeCred(t, src, Options{Policy: mustBuiltin(t, "credential-leak")})
	if len(rep.ErrorsData) != 1 {
		t.Fatalf("finding must survive an unknown-rule directive: %d errors", len(rep.ErrorsData))
	}
	if len(rep.SuppressionIssues) != 1 {
		t.Fatalf("got %d suppression issues, want 1", len(rep.SuppressionIssues))
	}
	is := rep.SuppressionIssues[0]
	if is.Rule != "not-a-rule" || is.File != "main.c" || is.Line != 6 {
		t.Errorf("issue fields wrong: %+v", is)
	}
	if !strings.Contains(is.Msg, `"not-a-rule"`) || !strings.Contains(is.Msg, "credential-leak") {
		t.Errorf("issue message must name the rule and the policy: %q", is.Msg)
	}
	if rep.Clean() {
		t.Error("a report with suppression issues must not be clean")
	}

	// A directive with no rule id at all is also diagnosed.
	rep = analyzeCred(t, strings.Replace(src, "// safeflow:ignore not-a-rule never checked", "// safeflow:ignore", 1),
		Options{Policy: mustBuiltin(t, "credential-leak")})
	if len(rep.SuppressionIssues) != 1 || !strings.Contains(rep.SuppressionIssues[0].Msg, "missing a rule id") {
		t.Errorf("missing-rule-id directive not diagnosed: %+v", rep.SuppressionIssues)
	}
}

// TestSessionSuppressionByteIdentity pins the incremental fast paths:
// a comment-only edit that adds or moves a safeflow:ignore directive
// leaves the module unchanged (the session shortcut path), yet the
// patched report must match a from-scratch analysis of the edited
// sources exactly — including the suppression audit trail.
func TestSessionSuppressionByteIdentity(t *testing.T) {
	base := map[string]string{"main.c": credSrc}
	opts := Options{Policy: mustBuiltin(t, "credential-leak")}
	s, rep, err := OpenSession(context.Background(), "credsys", base, []string{"main.c"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(rep.ErrorsData) != 1 || len(rep.Suppressed) != 0 {
		t.Fatalf("open report wrong: %d errors, %d suppressed", len(rep.ErrorsData), len(rep.Suppressed))
	}

	edited := strings.Replace(credSrc, "log_msg(pwd);", "log_msg(pwd); // safeflow:ignore cred-leak-log reviewed", 1)
	got, stats, err := s.Update(context.Background(), map[string]string{"main.c": edited})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Incremental {
		t.Fatal("comment-only edit did not take the incremental path")
	}
	want, err := AnalyzeSources(context.Background(), "credsys", cpp.MapSource{"main.c": edited}, []string{"main.c"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Suppressed) != 1 || got.Suppressed[0].Reason != "reviewed" {
		t.Fatalf("session update missed the new directive: %+v", got.Suppressed)
	}
	compareReports(t, got, want)

	// Removing the directive restores the finding.
	got, _, err = s.Update(context.Background(), map[string]string{"main.c": credSrc})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ErrorsData) != 1 || len(got.Suppressed) != 0 {
		t.Fatalf("directive removal not applied: %d errors, %d suppressed", len(got.ErrorsData), len(got.Suppressed))
	}
}

// compareReports asserts the finding-bearing surfaces of two reports
// are equal (the session invariant the text/JSON/SARIF formats render).
func compareReports(t *testing.T, got, want *Report) {
	t.Helper()
	check := func(field string, g, w any) {
		if !reflect.DeepEqual(fmt.Sprint(g), fmt.Sprint(w)) {
			t.Errorf("%s diverged:\n got: %v\nwant: %v", field, g, w)
		}
	}
	check("Warnings", got.Warnings, want.Warnings)
	check("ErrorsData", got.ErrorsData, want.ErrorsData)
	check("ErrorsControlOnly", got.ErrorsControlOnly, want.ErrorsControlOnly)
	check("Suppressed", got.Suppressed, want.Suppressed)
	check("SuppressionIssues", got.SuppressionIssues, want.SuppressionIssues)
	check("PolicyName", got.PolicyName, want.PolicyName)
	check("PolicyFingerprint", got.PolicyFingerprint, want.PolicyFingerprint)
}
