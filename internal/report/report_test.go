package report

import (
	"context"
	"os"
	"strings"
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/cpp"
)

func figure2Report(t *testing.T) *core.Report {
	t.Helper()
	src, err := os.ReadFile("../../testdata/figure2.c")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.AnalyzeSources(context.Background(), "figure2", cpp.MapSource{"main.c": string(src)}, []string{"main.c"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestWriteReportContents(t *testing.T) {
	rep := figure2Report(t)
	var sb strings.Builder
	Write(&sb, rep)
	out := sb.String()

	for _, want := range []string{
		"SafeFlow report for figure2",
		"Shared-memory regions (2)",
		"feedback[32 bytes, noncore]",
		"Warnings — unmonitored non-core accesses (3)",
		"Error dependencies (1)",
		`critical data "output"`,
		"via data flow from",
		"Control-dependence reports",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "safe value flow verified") {
		t.Error("defective system reported clean")
	}
}

func TestWriteCleanReport(t *testing.T) {
	rep, err := core.AnalyzeSources(context.Background(), "clean", cpp.MapSource{"main.c": `
int main() { return 0; }
`}, []string{"main.c"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	Write(&sb, rep)
	if !strings.Contains(sb.String(), "safe value flow verified") {
		t.Errorf("clean system not reported clean:\n%s", sb.String())
	}
}

func TestTable1Rendering(t *testing.T) {
	rep := figure2Report(t)
	var sb strings.Builder
	WriteTable1(&sb, []*core.Report{rep})
	out := sb.String()
	if !strings.Contains(out, "System") || !strings.Contains(out, "figure2") {
		t.Errorf("table missing pieces:\n%s", out)
	}
	row := Table1Row(rep)
	fields := strings.Fields(row)
	// name, loc, annot, errors, warnings, falsepos
	if len(fields) != 6 {
		t.Fatalf("row fields = %v", fields)
	}
	if fields[3] != "1" || fields[4] != "3" {
		t.Errorf("row = %q, want 1 error / 3 warnings", row)
	}
}

func mustAnalyzeString(t *testing.T, src string) *core.Report {
	t.Helper()
	rep, err := core.AnalyzeSources(context.Background(), "t", cpp.MapSource{"main.c": src}, []string{"main.c"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}
