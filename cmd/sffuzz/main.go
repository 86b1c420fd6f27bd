// Command sffuzz runs the coverage-guided mutation fuzzing campaign
// over the SafeFlow analyzer (internal/fuzzcamp): a persistent corpus
// of generated C systems is evolved by annotation/shape/callgraph
// mutators, prioritized by analysis-path coverage, and every execution
// checks worker-count determinism, dynamic-taint ⊆ static,
// degraded-verdict soundness, incremental equivalence and cache
// temperature. Violating inputs are delta-minimized and
// written to the crasher directory, where TestCrasherRegressions
// replays them in the tier-1 suite forever after.
//
// Usage:
//
//	sffuzz -budget 90s                  # time-bounded smoke
//	sffuzz -seed 7 -execs 500           # bit-reproducible campaign
//	sffuzz -replay testdata/crashers/dynamic-subset-static-ab12cd34ef56
//
// Exit codes: 0 = no crashers, 1 = usage or campaign error, 2 = at
// least one crasher found (or a replayed crasher still reproduces).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"safeflow/internal/corpus"
	"safeflow/internal/fuzzcamp"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		seed      = flag.Int64("seed", 1, "campaign seed (same seed + -execs replays the campaign exactly)")
		budget    = flag.Duration("budget", 0, "wall-clock budget (e.g. 90s, 30m); 0 = use -execs only")
		execs     = flag.Int("execs", 0, "execution budget (deterministic bound); 0 = use -budget only")
		corpusDir = flag.String("corpus", ".sffuzz", "campaign directory holding the persistent corpus")
		crashers  = flag.String("crashers", filepath.Join("testdata", "crashers"), "directory minimized crashers are written to")
		seedCount = flag.Int("seedcount", 8, "number of generator-derived seed systems")
		noTable1  = flag.Bool("notable1", false, "skip the embedded Table 1 systems as extra seeds")
		maxCrash  = flag.Int("maxcrashers", 0, "stop after this many distinct crashers (0 = run to budget)")
		minBudget = flag.Int("minbudget", 300, "executions spent delta-minimizing one crasher")
		plantFlag = flag.String("plant", "", "deliberately weaken an oracle for canary runs (testing only): drop-main-errors or stale-hit")
		replay    = flag.String("replay", "", "replay one crasher directory instead of fuzzing")
		verbose   = flag.Bool("v", false, "log every new-coverage event and crasher")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "sffuzz: unexpected arguments; see -h")
		return 1
	}
	plant, err := fuzzcamp.ParsePlant(*plantFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sffuzz: %v\n", err)
		return 1
	}
	exec := fuzzcamp.Executor{Plant: plant}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *replay != "" {
		return replayOne(ctx, *replay, exec)
	}
	if *budget <= 0 && *execs <= 0 {
		fmt.Fprintln(os.Stderr, "sffuzz: need -budget and/or -execs")
		return 1
	}

	cfg := fuzzcamp.Config{
		Seed:           *seed,
		CorpusDir:      *corpusDir,
		CrasherDir:     *crashers,
		Budget:         *budget,
		MaxExecs:       *execs,
		SeedCount:      *seedCount,
		MaxCrashers:    *maxCrash,
		MinimizeBudget: *minBudget,
		Exec:           exec,
	}
	if *verbose {
		cfg.Log = os.Stderr
	}
	if !*noTable1 {
		for _, sys := range corpus.All() {
			src, err := sys.SourceMap()
			if err != nil {
				fmt.Fprintf(os.Stderr, "sffuzz: embedded corpus: %v\n", err)
				return 1
			}
			cfg.ExtraSeeds = append(cfg.ExtraSeeds,
				fuzzcamp.Input{Name: sys.Name, Sources: src, CFiles: sys.CFiles})
		}
	}

	stats, err := fuzzcamp.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sffuzz: %v\n", err)
		return 1
	}
	fmt.Printf("sffuzz: seed %d: %d seed inputs, %d execs in %s\n",
		*seed, stats.SeedInputs, stats.Execs, stats.Elapsed.Round(time.Millisecond))
	fmt.Printf("sffuzz: coverage: %d signatures, corpus %d (+%d from mutants)\n",
		stats.Signatures, stats.CorpusSize, stats.NewCov)
	if stats.Crashers == 0 {
		fmt.Println("sffuzz: no oracle violations")
		return 0
	}
	fmt.Printf("sffuzz: %d crasher(s) written to %s:\n", stats.Crashers, *crashers)
	for _, id := range stats.CrasherIDs {
		fmt.Printf("  %s\n", id)
	}
	fmt.Println("sffuzz: each replays with -replay and via TestCrasherRegressions")
	return 2
}

// replayOne re-executes a single archived crasher under the (possibly
// planted) oracles and reports whether it still reproduces.
func replayOne(ctx context.Context, dir string, exec fuzzcamp.Executor) int {
	all, err := fuzzcamp.LoadCrashers(filepath.Dir(dir))
	if err != nil {
		fmt.Fprintf(os.Stderr, "sffuzz: %v\n", err)
		return 1
	}
	want := filepath.Base(filepath.Clean(dir))
	for _, c := range all {
		if c.Dir() != want {
			continue
		}
		v, err := fuzzcamp.Replay(ctx, c, exec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sffuzz: %v\n", err)
			return 1
		}
		if v != nil {
			fmt.Printf("sffuzz: %s REPRODUCES: %v\n", want, v)
			return 2
		}
		fmt.Printf("sffuzz: %s passes (originally: %s: %s)\n", want, c.Oracle, c.Detail)
		return 0
	}
	fmt.Fprintf(os.Stderr, "sffuzz: no crasher %q under %q\n", want, filepath.Dir(dir))
	return 1
}
