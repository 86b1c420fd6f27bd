package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"safeflow/internal/corpus"
	"safeflow/pkg/safeflow"
)

// buildBinaries builds this benchmark and the safeflow CLI.
func buildBinaries(t *testing.T) (bench, cli string) {
	t.Helper()
	dir := t.TempDir()
	bench, cli = filepath.Join(dir, "sfbench5"), filepath.Join(dir, "safeflow")
	for _, b := range []struct{ out, pkg, dir string }{{bench, ".", "."}, {cli, "./cmd/safeflow", ".."}} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", b.pkg, err, out)
		}
	}
	return bench, cli
}

// metricNames returns the names BENCHMARK.json defines for one kind of run.
func metricNames(t *testing.T, traced bool) []string {
	t.Helper()
	def, err := loadDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defs := def.EndToEnd
	if traced {
		defs = def.PerLayer
	}
	var names []string
	for _, m := range defs {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload for one second at two seeds, and every
// workload's traced run once, through the command-line contract: the
// last stdout line is the result, every operation succeeds, and the
// metrics are exactly those BENCHMARK.json names, with its units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bench, cli := buildBinaries(t)
	work := t.TempDir()
	for _, traced := range []bool{false, true} {
		want := strings.Join(metricNames(t, traced), ", ")
		seeds := []string{"1", "2"}
		if traced {
			seeds = seeds[:1]
		}
		for _, name := range workloadNames {
			for _, seed := range seeds {
				spans := filepath.Join(work, "spans-"+name+".json")
				args := []string{"-workload", name, "-seed", seed, "-seconds", "1", "-cli", cli,
					"-workdir", work, "-bench", "../BENCHMARK.json"}
				if traced {
					args = append(args, "-trace", "1", "-layers", spans)
				}
				out, err := exec.Command(bench, args...).Output()
				if err != nil {
					t.Fatalf("%s seed %s traced=%v: %v", name, seed, traced, err)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("%s: last line is not a result: %v", name, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("%s seed %s traced=%v: correct=%v attempted=%d failed=%d",
						name, seed, traced, res.Correct, res.Attempted, res.Failed)
				}
				var got []string
				for k, m := range res.Metrics {
					got = append(got, k+" "+m.Unit)
				}
				sort.Strings(got)
				if g := strings.Join(got, ", "); g != want {
					t.Errorf("%s traced=%v metrics:\n got %s\nwant %s", name, traced, g, want)
				}
				if traced {
					checkSpans(t, name, spans)
				}
			}
		}
	}
}

// checkSpans checks that every span's self time is non-negative.
func checkSpans(t *testing.T, name, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Spans) == 0 {
		t.Fatalf("%s: no spans", name)
	}
	tr := &tracer{spans: f.Spans}
	for op, selfs := range tr.selfTimes() {
		for layer, ns := range selfs {
			if ns < 0 {
				t.Errorf("%s op %d: %s self time %dns < 0", name, op, layer, ns)
			}
		}
	}
}

// TestInputsFollowSeed checks that a seed fixes every generated input
// and that another seed changes them.
func TestInputsFollowSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("sets every workload up")
	}
	work := t.TempDir()
	digest := func(name string, seed int64) string {
		w, err := newWorkload(name, &env{seed: seed, workdir: work})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.setup(); err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		defer w.close()
		return w.digest()
	}
	for _, name := range workloadNames {
		a, b, c := digest(name, 1), digest(name, 1), digest(name, 2)
		if a != b {
			t.Errorf("%s: seed 1 generated different inputs twice", name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", name)
		}
	}
}

// TestKillCheckFires checks the generator-construction verdict on seeds
// 1..20 in both generated shapes, and that it is exercised: some of the
// systems carry the kill() defect.
func TestKillCheckFires(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes 40 systems")
	}
	withKill := 0
	for seed := int64(1); seed <= 20; seed++ {
		for _, sys := range []system{split(corpus.Generate(seed, scaleConfig)), generated(corpus.Generate(seed, smallConfig))} {
			rep, err := safeflow.Analyze(sys.name, sys.sources, sys.cFiles, safeflow.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.checkKill(rep); err != nil {
				t.Error(err)
			}
			if sys.killLine() > 0 {
				withKill++
			}
		}
	}
	if withKill == 0 {
		t.Fatal("no generated system carries a kill() defect; the check never fired")
	}
	// A report without the kill() error must fail the check.
	sys := split(corpus.Generate(4, scaleConfig))
	if sys.killLine() == 0 {
		t.Fatal("seed 4 lost its kill() defect")
	}
	if err := sys.checkKill(&safeflow.Report{}); err == nil {
		t.Fatal("an empty report passed the kill() check")
	}
}

// TestNonceKeepsReportBytes checks the premise of every cold operation:
// a nonce makes every cache miss but leaves the report byte-identical.
func TestNonceKeepsReportBytes(t *testing.T) {
	for _, cs := range corpus.All() {
		src, err := cs.SourceMap()
		if err != nil {
			t.Fatal(err)
		}
		sys := system{name: cs.Name, sources: src, cFiles: cs.CFiles}
		a, err := safeflow.Analyze(sys.name, sys.sources, sys.cFiles, safeflow.Options{Stats: true})
		if err != nil {
			t.Fatal(err)
		}
		n := sys.withNonce(uint64(time.Now().UnixNano()))
		b, err := safeflow.Analyze(n.name, n.sources, n.cFiles, safeflow.Options{Stats: true})
		if err != nil {
			t.Fatal(err)
		}
		if m := b.Metrics; m.FrontendCacheHits != 0 || m.CacheHits != 0 {
			t.Errorf("%s: nonce'd run hit the caches: %+v", cs.Name, m)
		}
		a.Metrics, b.Metrics = nil, nil
		if err := sameBytes(cs.Name, renderJSON(b), renderJSON(a)); err != nil {
			t.Error(err)
		}
	}
}
