// Command sfbench regenerates the paper's evaluation artifacts:
//
//	sfbench -table1     Table 1 — SafeFlow applied to the three systems
//	sfbench -figure1    Figure 1 — closed-loop Simplex behavior summary
//	sfbench -ablation   phase-3 summary vs per-call-path cost comparison
//	sfbench -all        everything (default)
//
// Instrumentation flags: -stats collects run metrics during -table1 and
// prints each system's snapshot after the table; -cpuprofile f and
// -trace f capture a pprof CPU profile / runtime execution trace of the
// whole benchmark run. Performance is measured by the bench module
// (bench/run.sh), not here.
//
// Measured values are printed next to the paper's, so divergence in the
// environment-dependent columns (LoC of our reimplemented corpus) is
// visible while the behavioral columns (errors / warnings / false
// positives / annotation burden) reproduce exactly.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/report"
	"safeflow/pkg/safeflow"
	"safeflow/pkg/simplexrt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table1 := fs.Bool("table1", false, "regenerate Table 1")
	figure1 := fs.Bool("figure1", false, "regenerate the Figure 1 behavior summary")
	ablation := fs.Bool("ablation", false, "run the phase-3 cost ablation")
	all := fs.Bool("all", false, "run everything")
	stats := fs.Bool("stats", false, "collect and print per-system run metrics with Table 1")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	tracefile := fs.String("trace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !*table1 && !*figure1 && !*ablation {
		*all = true
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "sfbench: -cpuprofile: cannot create %s: %v\n", *cpuprofile, err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "sfbench: -cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *tracefile != "" {
		f, err := os.Create(*tracefile)
		if err != nil {
			fmt.Fprintf(stderr, "sfbench: -trace: cannot create %s: %v\n", *tracefile, err)
			return 2
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(stderr, "sfbench: -trace: %v\n", err)
			return 2
		}
		defer trace.Stop()
	}

	ok := true
	if *all || *table1 {
		ok = runTable1(stdout, *stats) && ok
	}
	if *all || *figure1 {
		ok = runFigure1(stdout) && ok
	}
	if *all || *ablation {
		ok = runAblation(stdout) && ok
	}
	if !ok {
		return 1
	}
	return 0
}

func runTable1(w io.Writer, stats bool) bool {
	fmt.Fprintln(w, "Table 1: Applying SafeFlow to Control Systems")
	fmt.Fprintln(w, strings.Repeat("=", 100))
	fmt.Fprintf(w, "%-17s | %-22s | %-13s | %-13s | %-13s | %-10s\n",
		"", "LOC core (paper/ours)", "Annot. lines", "Errors", "Warnings", "FalsePos")
	fmt.Fprintf(w, "%-17s | %-22s | %-13s | %-13s | %-13s | %-10s\n",
		"System", "", "paper = ours", "paper / ours", "paper / ours", "paper/ours")
	fmt.Fprintln(w, strings.Repeat("-", 100))

	systems := corpus.All()
	jobs := make([]safeflow.Job, 0, len(systems))
	for _, sys := range systems {
		src, err := sys.SourceMap()
		if err != nil {
			fmt.Fprintf(w, "%-17s | load failed: %v\n", sys.Name, err)
			return false
		}
		jobs = append(jobs, safeflow.Job{
			Name: sys.Name, Sources: src, CFiles: sys.CFiles,
			Options: safeflow.Options{Stats: stats},
		})
	}
	start := time.Now()
	results := safeflow.AnalyzeAll(jobs)
	elapsed := time.Since(start)

	allMatch := true
	for i, sys := range systems {
		if results[i].Err != nil {
			fmt.Fprintf(w, "%-17s | analysis failed: %v\n", sys.Name, results[i].Err)
			allMatch = false
			continue
		}
		rep := results[i].Report
		e := sys.Expected
		match := len(rep.ErrorsData) == e.Errors &&
			len(rep.Warnings) == e.Warnings &&
			len(rep.ErrorsControlOnly) == e.FalsePositives &&
			rep.AnnotationLines == e.AnnotLines
		mark := "OK"
		if !match {
			mark = "MISMATCH"
			allMatch = false
		}
		fmt.Fprintf(w, "%-17s | %8d / %-11d | %4d = %-6d | %5d / %-5d | %5d / %-5d | %3d / %-4d  %s\n",
			sys.Name, e.PaperLOCCore, rep.LinesOfCode,
			e.AnnotLines, rep.AnnotationLines,
			e.Errors, len(rep.ErrorsData),
			e.Warnings, len(rep.Warnings),
			e.FalsePositives, len(rep.ErrorsControlOnly),
			mark)
	}
	fmt.Fprintf(w, "(%d systems analyzed concurrently in %.0fms)\n",
		len(systems), float64(elapsed.Microseconds())/1000)
	if stats {
		for i, sys := range systems {
			if results[i].Err != nil || results[i].Report == nil {
				continue
			}
			fmt.Fprintf(w, "\n%s:", sys.Name)
			report.WriteStats(w, results[i].Report.Metrics)
		}
	}
	fmt.Fprintln(w)
	return allMatch
}

func runFigure1(w io.Writer) bool {
	fmt.Fprintln(w, "Figure 1: inverted-pendulum Simplex architecture, closed loop")
	fmt.Fprintln(w, strings.Repeat("=", 78))
	scenarios := []struct {
		name        string
		fault       simplexrt.FaultMode
		unmonitored bool
	}{
		{"healthy", simplexrt.FaultNone, false},
		{"sign-flip fault, monitored", simplexrt.FaultSignFlip, false},
		{"saturate fault, monitored", simplexrt.FaultSaturate, false},
		{"nan fault, monitored", simplexrt.FaultNaN, false},
		{"sign-flip fault, UNMONITORED", simplexrt.FaultSignFlip, true},
	}
	ok := true
	for i, sc := range scenarios {
		tr, err := simplexrt.Run(simplexrt.Config{
			Steps: 3000, Fault: sc.fault, FaultStep: 1500,
			Unmonitored: sc.unmonitored, ShmKey: 0x3000 + i,
		})
		if err != nil {
			fmt.Fprintf(w, "  %-30s error: %v\n", sc.name, err)
			ok = false
			continue
		}
		outcome := "balanced"
		if tr.Diverged {
			outcome = fmt.Sprintf("FELL at t=%.2fs", float64(tr.DivergedAt)/100)
		}
		fmt.Fprintf(w, "  %-30s complex=%5.1f%%  rejected=%4d  max|angle|=%.3f  %s\n",
			sc.name, 100*tr.FracNonCore(), tr.Rejected, tr.MaxAbsState[2], outcome)
		// The expected shape: monitored runs stay balanced; the
		// unmonitored faulty run must diverge.
		if sc.unmonitored && !tr.Diverged {
			ok = false
		}
		if !sc.unmonitored && tr.Diverged {
			ok = false
		}
	}
	fmt.Fprintln(w)
	return ok
}

func runAblation(w io.Writer) bool {
	fmt.Fprintln(w, "Ablation A-2: ESP-style summaries vs per-call-path re-analysis (phase 3)")
	fmt.Fprintln(w, strings.Repeat("=", 78))
	ok := true
	for _, sys := range corpus.All() {
		// No cache: the ablation compares the two algorithms' unit
		// solves; a stored verdict (e.g. after -table1 in the same
		// process) would solve nothing and understate the summary-mode count.
		fast, err := sys.Analyze(core.Options{})
		if err != nil {
			fmt.Fprintf(w, "  %-17s error: %v\n", sys.Name, err)
			ok = false
			continue
		}
		t0 := time.Now()
		slow, err := sys.Analyze(core.Options{Exponential: true})
		if err != nil {
			fmt.Fprintf(w, "  %-17s error: %v\n", sys.Name, err)
			ok = false
			continue
		}
		expElapsed := time.Since(t0)
		fmt.Fprintf(w, "  %-17s summary units=%4d   per-call-path units=%4d (%.1fx, %.0fms)\n",
			sys.Name, fast.UnitsAnalyzed, slow.UnitsAnalyzed,
			float64(slow.UnitsAnalyzed)/float64(max(1, fast.UnitsAnalyzed)),
			float64(expElapsed.Microseconds())/1000)
		if slow.UnitsAnalyzed < fast.UnitsAnalyzed {
			ok = false
		}
	}
	fmt.Fprintln(w)
	return ok
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
