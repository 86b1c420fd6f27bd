package core_test

// Determinism under concurrency: the parallel pipeline (frontend workers,
// phase-3 SCC scheduling, replay from the stored state) must never change a
// report. Each corpus system is analyzed repeatedly at several worker
// counts, with the cache cold and warm, and every rendered report — text
// and JSON — must be byte-identical to the first.

import (
	"runtime"
	"strings"
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/report"
)

const determinismRuns = 8

func renderBoth(t *testing.T, rep *core.Report) (string, string) {
	t.Helper()
	var text, js strings.Builder
	report.Write(&text, rep)
	if err := report.WriteJSON(&js, rep); err != nil {
		t.Fatal(err)
	}
	return text.String(), js.String()
}

func TestDeterministicReports(t *testing.T) {
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, sys := range corpus.All() {
		t.Run(sys.Name, func(t *testing.T) {
			var wantText, wantJSON string
			run := 0
			for _, workers := range workerCounts {
				for i := 0; i < determinismRuns; i++ {
					// Odd runs disable the stored state so both the cold
					// and the replaying phase-3 paths are exercised; either way
					// the bytes must not move.
					rep, err := sys.Analyze(core.Options{
						Workers:      workers,
						DisableCache: i%2 == 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					text, js := renderBoth(t, rep)
					if run == 0 {
						wantText, wantJSON = text, js
						run++
						continue
					}
					run++
					if text != wantText {
						t.Fatalf("text report diverged (workers=%d run=%d):\n--- got ---\n%s\n--- want ---\n%s",
							workers, run, text, wantText)
					}
					if js != wantJSON {
						t.Fatalf("JSON report diverged (workers=%d run=%d):\n--- got ---\n%s\n--- want ---\n%s",
							workers, run, js, wantJSON)
					}
				}
			}
		})
	}
}

// TestDeterministicReportsWithMetrics covers the reports-with-metrics
// path: with Options.Stats the rendered JSON embeds the "metrics" key,
// whose volatile fields necessarily differ between runs — but after
// Canonicalize the full report, text and JSON, must be byte-identical
// across worker counts and cache temperatures, exactly like the plain
// determinism contract above.
func TestDeterministicReportsWithMetrics(t *testing.T) {
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, sys := range corpus.All() {
		t.Run(sys.Name, func(t *testing.T) {
			var wantText, wantJSON string
			run := 0
			for _, workers := range workerCounts {
				for i := 0; i < determinismRuns/2; i++ {
					rep, err := sys.Analyze(core.Options{
						Workers:      workers,
						Stats:        true,
						DisableCache: i%2 == 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					if rep.Metrics == nil {
						t.Fatal("Options.Stats set but Report.Metrics is nil")
					}
					rep.Metrics.Canonicalize()
					text, js := renderBoth(t, rep)
					if !strings.Contains(js, `"metrics"`) {
						t.Fatal("JSON report does not embed the metrics key")
					}
					if run == 0 {
						wantText, wantJSON = text, js
						run++
						continue
					}
					run++
					if text != wantText {
						t.Fatalf("text report diverged (workers=%d run=%d):\n--- got ---\n%s\n--- want ---\n%s",
							workers, run, text, wantText)
					}
					if js != wantJSON {
						t.Fatalf("JSON report diverged (workers=%d run=%d):\n--- got ---\n%s\n--- want ---\n%s",
							workers, run, js, wantJSON)
					}
				}
			}
		})
	}
}
