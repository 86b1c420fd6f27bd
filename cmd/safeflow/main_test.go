package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"safeflow/internal/frontend"
)

const defective = `
typedef struct { double v; int pad; int pad2; } R;
R *region;

void initComm()
/***SafeFlow Annotation shminit /***/
{
	region = (R *) shmat(shmget(7, sizeof(R), 0), 0, 0);
	InitCheck(region, sizeof(R));
	/***SafeFlow Annotation assume(shmvar(region, sizeof(R))) /***/
	/***SafeFlow Annotation assume(noncore(region)) /***/
}

int main()
{
	double u;
	initComm();
	u = region->v;
	/***SafeFlow Annotation assert(safe(u)) /***/
	writeDA(0, u);
	return 0;
}
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCLIFindingsExitOne(t *testing.T) {
	dir := writeTemp(t, "core.c", defective)
	var out, errOut strings.Builder
	code := run([]string{dir}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Error dependencies (1)") {
		t.Errorf("report:\n%s", out.String())
	}
}

func TestCLIQuiet(t *testing.T) {
	dir := writeTemp(t, "core.c", defective)
	var out, errOut strings.Builder
	code := run([]string{"-quiet", "-name", "sys", dir}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	line := strings.TrimSpace(out.String())
	if !strings.HasPrefix(line, "sys:") || !strings.Contains(line, "1 error dependencies") {
		t.Errorf("summary = %q", line)
	}
	if strings.Count(out.String(), "\n") != 1 {
		t.Errorf("quiet mode printed more than one line:\n%s", out.String())
	}
}

func TestCLICleanExitZero(t *testing.T) {
	clean := strings.Replace(defective, "u = region->v;",
		"u = 0.0;", 1)
	dir := writeTemp(t, "core.c", clean)
	var out, errOut strings.Builder
	code := run([]string{dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)\n%s", code, errOut.String(), out.String())
	}
	if !strings.Contains(out.String(), "safe value flow verified") {
		t.Errorf("report:\n%s", out.String())
	}
}

func TestCLIUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no args exit = %d, want 2", code)
	}
	if code := run([]string{"-alias", "bogus", "x.c"}, &out, &errOut); code != 2 {
		t.Errorf("bad alias exit = %d, want 2", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.c")}, &out, &errOut); code != 2 {
		t.Errorf("missing file exit = %d, want 2", code)
	}
}

func TestCLIAliasModesAgree(t *testing.T) {
	dir := writeTemp(t, "core.c", defective)
	for _, mode := range []string{"subset", "unify"} {
		var out, errOut strings.Builder
		code := run([]string{"-alias", mode, "-quiet", dir}, &out, &errOut)
		if code != 1 {
			t.Errorf("mode %s exit = %d (stderr %s)", mode, code, errOut.String())
		}
	}
}

func TestCLIExponential(t *testing.T) {
	dir := writeTemp(t, "core.c", defective)
	var out, errOut strings.Builder
	if code := run([]string{"-exponential", "-quiet", dir}, &out, &errOut); code != 1 {
		t.Errorf("exponential exit = %d", code)
	}
}

func TestCLIJSONFormat(t *testing.T) {
	dir := writeTemp(t, "core.c", defective)
	var out, errOut strings.Builder
	code := run([]string{"-format", "json", dir}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d (stderr: %s)", code, errOut.String())
	}
	if !strings.HasPrefix(strings.TrimSpace(out.String()), "{") ||
		!strings.Contains(out.String(), `"clean": false`) {
		t.Errorf("json output:\n%s", out.String())
	}
	var bad strings.Builder
	if code := run([]string{"-format", "yaml", dir}, &bad, &bad); code != 2 {
		t.Errorf("bad format exit = %d, want 2", code)
	}
}

func TestCLICorpus(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-corpus", "IP", "-quiet"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "IP: 7 warnings, 1 error dependencies, 2 control-dependence reports") {
		t.Errorf("summary = %q", out.String())
	}
	if code := run([]string{"-corpus", "Nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown corpus exit = %d, want 2", code)
	}
}

// Unusable -cpuprofile/-trace paths must fail with a usage error that
// names the offending flag — not a stack trace, and not a half-started
// analysis.
func TestCLIProfilePathErrors(t *testing.T) {
	dir := writeTemp(t, "core.c", defective)
	badPath := filepath.Join(t.TempDir(), "no-such-dir", "out.pprof")
	for _, flagName := range []string{"-cpuprofile", "-trace"} {
		var out, errOut strings.Builder
		code := run([]string{flagName, badPath, dir}, &out, &errOut)
		if code != 2 {
			t.Errorf("%s unwritable: exit = %d, want 2", flagName, code)
		}
		if !strings.Contains(errOut.String(), flagName) {
			t.Errorf("%s unwritable: stderr %q does not name the flag", flagName, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("%s unwritable: analysis output was printed:\n%s", flagName, out.String())
		}
	}
}

// -cachedir persists parse results across process "restarts": two runs
// sharing a cache directory produce identical reports, the directory
// holds parse entries and nothing else, and an unusable directory is a
// usage error naming the flag.
func TestCLICacheDir(t *testing.T) {
	dir := writeTemp(t, "core.c", defective)
	cacheDir := t.TempDir()

	// An earlier test may have parsed the same unit in this process; a
	// memory hit writes nothing to disk.
	frontend.ResetParseCache()
	var first, second, errOut strings.Builder
	if code := run([]string{"-cachedir", cacheDir, "-format", "json", dir}, &first, &errOut); code != 1 {
		t.Fatalf("first run exit = %d (stderr: %s)", code, errOut.String())
	}
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "parse" {
		t.Fatalf("-cachedir run left %v, want the parse namespace only", entries)
	}
	if parsed, err := os.ReadDir(filepath.Join(cacheDir, "parse")); err != nil || len(parsed) == 0 {
		t.Fatalf("-cachedir run wrote no parse entries (%v)", err)
	}
	if code := run([]string{"-cachedir", cacheDir, "-format", "json", dir}, &second, &errOut); code != 1 {
		t.Fatalf("second run exit = %d (stderr: %s)", code, errOut.String())
	}
	if first.String() != second.String() {
		t.Error("disk-warm report diverged from cold report")
	}

	notADir := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	errOut.Reset()
	if code := run([]string{"-cachedir", notADir, dir}, &out, &errOut); code != 2 {
		t.Errorf("unusable -cachedir: exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-cachedir") {
		t.Errorf("unusable -cachedir: stderr %q does not name the flag", errOut.String())
	}
}

// A broken translation unit is skipped rather than fatal: the run still
// produces a report for the surviving units and exits 3 (degraded).
func TestCLIDegradedExitThree(t *testing.T) {
	dir := writeTemp(t, "core.c", defective)
	if err := os.WriteFile(filepath.Join(dir, "broken.c"), []byte("int oops( {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	code := run([]string{"-name", "sys", dir}, &out, &errOut)
	if code != 3 {
		t.Fatalf("exit = %d, want 3 (stderr: %s)\n%s", code, errOut.String(), out.String())
	}
	text := out.String()
	if !strings.Contains(text, "Degraded analysis") || !strings.Contains(text, "broken.c") {
		t.Errorf("report missing degraded section:\n%s", text)
	}
	if !strings.Contains(text, "Error dependencies (1)") {
		t.Errorf("surviving unit verdicts missing:\n%s", text)
	}
}

// -strict restores the fail-stop behavior: the same broken unit aborts
// the run with exit 2 and no report.
func TestCLIStrictFailStop(t *testing.T) {
	dir := writeTemp(t, "core.c", defective)
	if err := os.WriteFile(filepath.Join(dir, "broken.c"), []byte("int oops( {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	code := run([]string{"-strict", dir}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit = %d, want 2\n%s", code, out.String())
	}
	if out.Len() != 0 {
		t.Errorf("strict run printed a report:\n%s", out.String())
	}
}
