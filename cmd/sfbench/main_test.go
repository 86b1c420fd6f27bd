package main

import (
	"strings"
	"testing"
)

func TestSfbenchTable1(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-table1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	text := out.String()
	for _, want := range []string{"IP", "Generic Simplex", "Double IP"} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q", want)
		}
	}
	if strings.Contains(text, "MISMATCH") {
		t.Errorf("Table 1 mismatch:\n%s", text)
	}
	if strings.Count(text, "OK") != 3 {
		t.Errorf("want 3 OK rows:\n%s", text)
	}
}

func TestSfbenchFigure1(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-figure1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "UNMONITORED") || !strings.Contains(text, "FELL") {
		t.Errorf("figure 1 summary incomplete:\n%s", text)
	}
	if strings.Count(text, "balanced") != 4 {
		t.Errorf("want 4 balanced monitored scenarios:\n%s", text)
	}
}

func TestSfbenchAblation(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-ablation"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "per-call-path units") {
		t.Errorf("ablation output:\n%s", out.String())
	}
}

func TestSfbenchProfilePathErrors(t *testing.T) {
	badPath := t.TempDir() + "/no-such-dir/out.pprof"
	for _, flagName := range []string{"-cpuprofile", "-trace"} {
		var out, errOut strings.Builder
		code := run([]string{flagName, badPath, "-table1"}, &out, &errOut)
		if code != 2 {
			t.Errorf("%s unwritable: exit = %d, want 2", flagName, code)
		}
		if !strings.Contains(errOut.String(), flagName) {
			t.Errorf("%s unwritable: stderr %q does not name the flag", flagName, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("%s unwritable: benchmark ran anyway:\n%s", flagName, out.String())
		}
	}
}

func TestSfbenchDefaultRunsAll(t *testing.T) {
	var out, errOut strings.Builder
	code := run(nil, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	text := out.String()
	for _, want := range []string{"Table 1", "Figure 1", "Ablation A-2"} {
		if !strings.Contains(text, want) {
			t.Errorf("default run missing %q", want)
		}
	}
}
