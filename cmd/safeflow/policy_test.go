package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"safeflow/internal/sarifschema"
)

var updateSARIF = flag.Bool("update", false, "rewrite golden SARIF files")

// sarifGoldenCases maps a golden file name to the CLI invocation that
// produces it. The corpus systems under testdata/policies each exercise
// one built-in policy; the IP system locks the default-policy SARIF
// surface (annotation-free shm findings).
var sarifGoldenCases = []struct {
	golden string
	args   []string
}{
	{"ip.sarif", []string{"-corpus", "IP", "-format", "sarif"}},
	{"credential_leak.sarif", []string{
		"-policy", filepath.Join("..", "..", "testdata", "policies", "credential_leak", ".safeflow-policy.json"),
		"-name", "credential_leak", "-format", "sarif",
		filepath.Join("..", "..", "testdata", "policies", "credential_leak", "credleak.c"),
	}},
	{"pii_to_log.sarif", []string{
		"-policy", "pii-to-log",
		"-name", "pii_to_log", "-format", "sarif",
		filepath.Join("..", "..", "testdata", "policies", "pii_to_log", "pii.c"),
	}},
}

// TestCLISARIFGolden locks the complete SARIF output of the policy
// corpora and the default-policy IP system against golden files, and
// validates every log against the vendored SARIF 2.1.0 schema subset —
// the same two checks the CI policy-gate job runs. Regenerate
// intentionally with `go test ./cmd/safeflow -run TestCLISARIFGolden -update`.
func TestCLISARIFGolden(t *testing.T) {
	for _, tc := range sarifGoldenCases {
		t.Run(tc.golden, func(t *testing.T) {
			var out, errOut bytes.Buffer
			code := run(tc.args, &out, &errOut)
			if code != 1 {
				t.Fatalf("exit = %d, want 1 (all three systems have findings); stderr: %s", code, errOut.String())
			}
			if errs := sarifschema.ValidateSARIF(out.Bytes()); len(errs) != 0 {
				t.Fatalf("SARIF does not validate against the vendored schema: %v", errs)
			}
			path := filepath.Join("..", "..", "testdata", "golden", "sarif", tc.golden)
			if *updateSARIF {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden file missing (run with -update): %v", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("SARIF changed for %s:\n--- got ---\n%s\n--- want ---\n%s",
					tc.golden, out.String(), string(want))
			}
		})
	}
}

// TestCLIPolicyFlagErrors pins the usage-error paths of -policy.
func TestCLIPolicyFlagErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-policy", "no-such-policy", "x.c"}, &out, &errOut); code != 2 {
		t.Errorf("unknown policy: exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "no-such-policy") {
		t.Errorf("error does not name the policy: %s", errOut.String())
	}
}

// TestCLIStrictSuppressionIssue pins the bugfix: a safeflow:ignore
// directive referencing a rule id the active policy does not define is
// a structured diagnostic, and under -strict it raises exit 3 (without
// -strict the report is merely not clean: exit 1).
func TestCLIStrictSuppressionIssue(t *testing.T) {
	dir := t.TempDir()
	src := `
void serve()
{
    int pwd;
    pwd = getpass();
    log_msg(pwd); // safeflow:ignore nonexistent-rule reviewed
}
`
	path := filepath.Join(dir, "main.c")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut bytes.Buffer
	code := run([]string{"-policy", "credential-leak", "-strict", dir}, &out, &errOut)
	if code != 3 {
		t.Fatalf("-strict with unknown-rule suppression: exit = %d, want 3\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "nonexistent-rule") || !strings.Contains(out.String(), "Suppression issues") {
		t.Errorf("report lacks the structured diagnostic:\n%s", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-policy", "credential-leak", dir}, &out, &errOut); code != 1 {
		t.Errorf("without -strict: exit = %d, want 1", code)
	}
}

// TestCLIStrictUnreadHeader: a header behind an untaken #ifdef is never
// read, so a safeflow:ignore directive in it is not diagnosed and
// -strict exits 0; once the macro is defined the header is read and
// -strict exits 3.
func TestCLIStrictUnreadHeader(t *testing.T) {
	for _, tc := range []struct {
		prefix string
		want   int
	}{{"", 0}, {"#define DEBUG\n", 3}} {
		dir := t.TempDir()
		for name, text := range map[string]string{
			"main.c": tc.prefix + "#ifdef DEBUG\n#include \"dbg.h\"\n#endif\nint main(void)\n{\n    return 0;\n}\n",
			"dbg.h":  "// safeflow:ignore no-such-rule reviewed\nint debug_level;\n",
		} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var out, errOut bytes.Buffer
		if code := run([]string{"-strict", dir}, &out, &errOut); code != tc.want {
			t.Errorf("-strict, main.c prefix %q: exit = %d, want %d\n%s%s", tc.prefix, code, tc.want, out.String(), errOut.String())
		}
	}
}

// TestCLISARIFWatchRejected pins that -watch still refuses non-text
// formats now that sarif exists.
func TestCLISARIFWatchRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-watch", "-format", "sarif", t.TempDir()}, &out, &errOut); code != 2 {
		t.Errorf("-watch -format sarif: exit = %d, want 2", code)
	}
}
