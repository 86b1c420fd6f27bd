// Command sfbench5 is SafeFlow's benchmark: four seeded workloads, each
// run in its own process, that print every metric by name and unit and
// check every verdict the program under test gives.
//
//	bash bench/run.sh -workload scale-130tu -seed 1 -seconds 25 -trace 0
//	bash bench/run.sh -workload all -seed 1 -runs 5 -out set.json
//	bash bench/run.sh -compare old.json new.json
//
// bench/run.sh builds this program and the safeflow CLI from the
// checkout it is run in, then runs it from the root of that checkout.
// A run prints one JSON result as its last line: the end-to-end metrics,
// or with -trace 1 the per-layer metrics of a separate traced run.
// bench/README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sfbench5", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run ("+strings.Join(workloadNames, ", ")+"), or all")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 0, "measured seconds per run (0: run_seconds of BENCHMARK.json)")
	traced := fs.Int("trace", 0, "1: run the traced run and print the per-layer metrics")
	layersOut := fs.String("layers", "", "traced run: also write every span to this file")
	out := fs.String("out", "", "write the run record (one workload) or the run set (all) here")
	runs := fs.Int("runs", 1, "with -workload all: how many times to run every workload")
	compare := fs.String("compare", "", "compare the run set in this file with the one named by the argument")
	benchFile := fs.String("bench", "BENCHMARK.json", "benchmark definition: metric units and bounds")
	cli := fs.String("cli", ".bench_build/safeflow", "the safeflow binary")
	workdir := fs.String("workdir", ".bench_build/work", "directory for the temp dirs runs make")
	replayDir := fs.String("replay-dir", "", "internal: analyze this directory as the CLI does (paper-cli traced run)")
	replayName := fs.String("replay-name", "", "internal: system name for -replay-dir")
	replayCache := fs.String("replay-cache", "", "internal: disk cache dir for -replay-dir")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *replayDir != "":
		return runReplay(*replayDir, *replayName, *replayCache)
	case *compare != "":
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: sfbench5 -compare old.json new.json")
			return 2
		}
		def, err := loadDef(*benchFile)
		if err != nil {
			fmt.Fprintln(stderr, "sfbench5:", err)
			return 2
		}
		return runCompare(def, *compare, fs.Arg(0), stdout, stderr)
	}

	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "sfbench5:", err)
		return 2
	}
	if *seconds <= 0 {
		def, err := loadDef(*benchFile)
		if err != nil {
			fmt.Fprintln(stderr, "sfbench5: -seconds not given:", err)
			return 2
		}
		*seconds = def.RunSeconds
	}
	e := &env{seed: *seed, cli: *cli, workdir: *workdir, self: self}
	if abs, err := filepath.Abs(e.workdir); err == nil {
		e.workdir = abs
	}
	if *name == "all" {
		return runAll(e, *seconds, *traced == 1, *runs, *out, *layersOut, stdout, stderr)
	}

	w, err := newWorkload(*name, e)
	if err != nil {
		fmt.Fprintln(stderr, "sfbench5:", err)
		return 2
	}
	if _, err := os.Stat(e.cli); err != nil {
		fmt.Fprintln(stderr, "sfbench5: -cli:", err)
		return 2
	}
	var rec *runRecord
	if *traced == 1 {
		rec, err = tracedRun(w, *name, *seconds, e, *layersOut)
	} else {
		rec, err = timedRun(w, *name, *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "sfbench5:", err)
		return 1
	}
	rec.Seed, rec.GoVersion, rec.GOMAXPROCS = *seed, runtime.Version(), runtime.GOMAXPROCS(0)
	if *out != "" {
		if err := writeJSON(*out, rec); err != nil {
			fmt.Fprintln(stderr, "sfbench5:", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.result())
	if err != nil {
		fmt.Fprintln(stderr, "sfbench5:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runAll runs every workload, runs times over, each in a fresh child
// process so every workload starts with empty process-global caches and
// its own peak RSS.
func runAll(e *env, seconds int, traced bool, runs int, out, layersOut string, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "sfbench5:", err)
		return 2
	}
	set := runSet{SchemaVersion: schemaVersion}
	status := 0
	for r := 0; r < runs; r++ {
		for _, name := range workloadNames {
			recPath := filepath.Join(e.workdir, "run-"+name+".json")
			args := []string{"-workload", name, "-seed", fmt.Sprint(e.seed), "-seconds", fmt.Sprint(seconds),
				"-cli", e.cli, "-workdir", e.workdir, "-out", recPath}
			if traced {
				args = append(args, "-trace", "1")
				if layersOut != "" {
					args = append(args, "-layers", strings.TrimSuffix(layersOut, ".json")+"-"+name+".json")
				}
			}
			cmd := exec.Command(e.self, args...)
			cmd.Stdout, cmd.Stderr = io.Discard, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "sfbench5: %s: %v\n", name, err)
				status = 1
				continue
			}
			data, err := os.ReadFile(recPath)
			removeAll(recPath)
			var rec runRecord
			if err == nil {
				err = json.Unmarshal(data, &rec)
			}
			if err != nil {
				fmt.Fprintf(stderr, "sfbench5: %s: %v\n", name, err)
				status = 1
				continue
			}
			if !rec.Correct {
				status = 1
			}
			set.Runs = append(set.Runs, rec)
			fmt.Fprintf(stdout, "%-13s seed %d  correct=%v attempted=%d failed=%d  %s\n",
				name, e.seed, rec.Correct, rec.Attempted, rec.Failed, summary(rec.Metrics))
		}
	}
	if out != "" {
		if err := writeJSON(out, set); err != nil {
			fmt.Fprintln(stderr, "sfbench5:", err)
			return 1
		}
	}
	return status
}

// summary prints a run's end-to-end metrics on one line.
func summary(m map[string]metricRecord) string {
	var parts []string
	for _, k := range []string{"setup_s", "cold_p50_ms", "cold_p90_ms", "warm_p50_ms", "warm_p90_ms", "ops_per_s", "peak_rss_mb"} {
		if r, ok := m[k]; ok {
			parts = append(parts, fmt.Sprintf("%s=%.4g", k, r.Value))
		}
	}
	if len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d per-layer metrics", len(m)))
	}
	return strings.Join(parts, " ")
}
