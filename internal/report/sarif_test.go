package report_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"safeflow/internal/corpus"
	"safeflow/internal/report"
	"safeflow/internal/sarifschema"
	"safeflow/pkg/safeflow"
)

// TestSARIFDeterminism pins the CI-facing invariant for the new format:
// the SARIF bytes are identical at every worker count and at every
// cache temperature. Each worker count is rendered cold (a new cache)
// and warm (second run taking the stored verdict) and every
// rendering must equal the first.
func TestSARIFDeterminism(t *testing.T) {
	sys := corpus.All()[0]
	src, err := sys.SourceMap()
	if err != nil {
		t.Fatal(err)
	}

	render := func(workers int, c *safeflow.Cache) []byte {
		rep, err := safeflow.AnalyzeContext(context.Background(), sys.Name, src, sys.CFiles, safeflow.Options{Workers: workers, Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.WriteSARIF(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	var want []byte
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		c := safeflow.NewCache()
		cold := render(workers, c)
		warm := render(workers, c)
		if want == nil {
			want = cold
			if errs := sarifschema.ValidateSARIF(want); len(errs) != 0 {
				t.Fatalf("SARIF does not validate: %v", errs)
			}
		}
		if !bytes.Equal(cold, want) {
			t.Errorf("workers=%d cold: SARIF bytes diverged", workers)
		}
		if !bytes.Equal(warm, want) {
			t.Errorf("workers=%d warm: SARIF bytes diverged", workers)
		}
	}
}

// TestSARIFSuppressionsAndPolicy locks the SARIF surface for a policy
// run: rule metadata present for every referenced rule, suppressed
// findings carry an inSource suppression with the justification, and
// suppression issues surface as error-level notifications.
func TestSARIFSuppressionsAndPolicy(t *testing.T) {
	pol, ok := safeflow.BuiltinPolicy("credential-leak")
	if !ok {
		t.Fatal("builtin credential-leak missing")
	}
	src := map[string]string{"main.c": `
void serve()
{
    int pwd;
    int tok;
    pwd = getpass();
    tok = read_secret();
    log_msg(pwd); // safeflow:ignore cred-leak-log reviewed in SEC-9
    log_msg(tok); // safeflow:ignore no-such-rule bogus
}
`}
	rep, err := safeflow.AnalyzeContext(context.Background(), "s", src, []string{"main.c"}, safeflow.Options{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	log := report.ToSARIF(rep)
	run := log.Runs[0]

	var buf bytes.Buffer
	if err := report.WriteSARIF(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if errs := sarifschema.ValidateSARIF(buf.Bytes()); len(errs) != 0 {
		t.Fatalf("SARIF does not validate: %v", errs)
	}

	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, id := range []string{"cred-leak-log", "cred-leak-send", "cred-source-getpass", "assert-safe"} {
		if !ruleIDs[id] {
			t.Errorf("rules metadata missing %q (have %v)", id, ruleIDs)
		}
	}

	var suppressed, active int
	for _, res := range run.Results {
		if len(res.Suppressions) > 0 {
			suppressed++
			s := res.Suppressions[0]
			if s.Kind != "inSource" || s.Justification != "reviewed in SEC-9" {
				t.Errorf("suppression wrong: %+v", s)
			}
		} else if res.RuleID == "cred-leak-log" {
			active++
		}
	}
	if suppressed != 1 {
		t.Errorf("got %d suppressed results, want 1", suppressed)
	}
	if active != 1 {
		t.Errorf("the unknown-rule directive must not suppress: %d active cred-leak-log results, want 1", active)
	}

	foundIssue := false
	for _, n := range run.Invocations[0].ToolExecutionNotifications {
		if n.Level == "error" && bytes.Contains([]byte(n.Message.Text), []byte("no-such-rule")) {
			foundIssue = true
		}
	}
	if !foundIssue {
		t.Error("suppression issue not surfaced as an error notification")
	}
	if run.Properties["policy"] != "credential-leak" {
		t.Errorf("run.properties.policy = %v", run.Properties["policy"])
	}
}
