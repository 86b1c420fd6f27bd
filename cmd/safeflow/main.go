// Command safeflow analyzes the core component of an embedded control
// system for safe value flow: every non-core value communicated through
// shared memory must be run-time monitored before reaching critical data.
//
// Usage:
//
//	safeflow [flags] <dir>
//	safeflow [flags] <file.c> [file.c ...]
//
// Flags:
//
//	-name s        system name used in the report (default: the path)
//	-policy p      taint policy: a builtin name (simplex-shm,
//	               credential-leak, pii-to-log), a .safeflow-policy.json
//	               path, or "path#name" to pick one policy from a
//	               multi-policy file (default: simplex-shm)
//	-alias mode    alias analysis: subset (default) or unify
//	-exponential   use the unoptimized per-call-path phase 3
//	-root fn       analysis entry function (repeatable; default: callerless functions)
//	-quiet         print only the summary line
//	-stats         collect run metrics; printed after text reports,
//	               embedded under "metrics" in JSON reports
//	-strict        fail-stop on the first front-end error instead of
//	               skipping the failing translation unit
//	-timeout d     abort the analysis after d (e.g. 30s); exit status 2
//	-workers n     pipeline worker goroutines (0 = GOMAXPROCS)
//	-cpuprofile f  write a pprof CPU profile of the run to f
//	-trace f       write a runtime execution trace of the run to f
//	-cachedir d    persistent cache directory shared across runs and with
//	               safeflowd ("auto" = the per-user cache dir); parsed
//	               units are reused across process restarts, with every
//	               entry integrity-checked on read
//	-watch         keep the session open after the initial report and
//	               incrementally re-analyze on every source change,
//	               printing per-update latency and the findings delta
//	               (directory target only)
//	-interval d    poll interval for -watch (default 500ms)
//
// By default the front end recovers from per-unit failures: a translation
// unit that fails to preprocess, lex, parse, or type-check is skipped and
// reported as a diagnostic, and the surviving units are still analyzed
// (calls into skipped definitions are treated conservatively). -strict
// restores fail-stop behavior.
//
// Exit status: 0 when the system is clean, 1 when any warning, error
// dependency, or restriction violation is reported, 2 on usage or
// compilation errors (including a -timeout expiry), 3 when the analysis
// is degraded — one or more translation units were skipped, so the
// verdict covers only the surviving units — or when -strict is set and
// a safeflow:ignore directive references a rule id the active policy
// does not define (the report lists it as a structured suppression
// issue either way).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"safeflow/internal/corpus"
	"safeflow/internal/report"
	"safeflow/pkg/safeflow"
)

type stringList []string

func (s *stringList) String() string { return fmt.Sprint([]string(*s)) }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("safeflow", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name        = fs.String("name", "", "system name used in the report")
		aliasMode   = fs.String("alias", "subset", "alias analysis: subset or unify")
		exponential = fs.Bool("exponential", false, "use the unoptimized per-call-path phase 3")
		quiet       = fs.Bool("quiet", false, "print only the summary line")
		format      = fs.String("format", "text", "output format: text, json, or sarif")
		corpusName  = fs.String("corpus", "", "analyze an embedded evaluation system: IP, \"Generic Simplex\", or \"Double IP\"")
		stats       = fs.Bool("stats", false, "collect and print run metrics")
		strict      = fs.Bool("strict", false, "fail-stop on the first front-end error instead of skipping the unit")
		timeout     = fs.Duration("timeout", 0, "abort the analysis after this duration (0 = no limit)")
		workers     = fs.Int("workers", 0, "pipeline worker goroutines (0 = GOMAXPROCS)")
		cpuprofile  = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		tracefile   = fs.String("trace", "", "write a runtime execution trace to this file")
		cacheDir    = fs.String("cachedir", "", "persistent cache directory shared across runs (\"auto\" = the per-user cache dir; default: no disk cache)")
		watch       = fs.Bool("watch", false, "keep the session open and incrementally re-analyze on every source change (directory target only)")
		policyArg   = fs.String("policy", "", "taint policy: builtin name, .safeflow-policy.json path, or path#name (default: simplex-shm)")
		interval    = fs.Duration("interval", 500*time.Millisecond, "poll interval for -watch")
		roots       stringList
	)
	fs.Var(&roots, "root", "analysis entry function (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if fs.NArg() == 0 && *corpusName == "" {
		fmt.Fprintln(stderr, "usage: safeflow [flags] <dir | file.c ...>")
		fs.PrintDefaults()
		return 2
	}

	if *format != "text" && *format != "json" && *format != "sarif" {
		fmt.Fprintf(stderr, "safeflow: unknown format %q\n", *format)
		return 2
	}
	opts := safeflow.Options{
		Exponential: *exponential, Roots: roots, Stats: *stats, Workers: *workers,
		Recover: !*strict,
		// One cache per invocation: a process runs once, and every run in
		// one test binary starts as cold as a new process.
		Cache: safeflow.NewCache(),
	}
	if *policyArg != "" {
		pol, err := safeflow.LoadPolicy(*policyArg)
		if err != nil {
			fmt.Fprintf(stderr, "safeflow: -policy: %v\n", err)
			return 2
		}
		opts.Policy = pol
	}
	if *cacheDir != "" {
		dir := *cacheDir
		if dir == "auto" {
			var err error
			dir, err = safeflow.DefaultCacheDir()
			if err != nil {
				fmt.Fprintf(stderr, "safeflow: resolving -cachedir auto: %v\n", err)
				return 2
			}
		}
		dc, err := safeflow.OpenDiskCache(dir, 0)
		if err != nil {
			fmt.Fprintf(stderr, "safeflow: opening -cachedir: %v\n", err)
			return 2
		}
		opts.DiskCache = dc
	}
	switch *aliasMode {
	case "subset":
		opts.PointsTo = safeflow.ModeSubset
	case "unify":
		opts.PointsTo = safeflow.ModeUnify
	default:
		fmt.Fprintf(stderr, "safeflow: unknown alias mode %q\n", *aliasMode)
		return 2
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "safeflow: -cpuprofile: cannot create %s: %v\n", *cpuprofile, err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "safeflow: -cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *tracefile != "" {
		f, err := os.Create(*tracefile)
		if err != nil {
			fmt.Fprintf(stderr, "safeflow: -trace: cannot create %s: %v\n", *tracefile, err)
			return 2
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(stderr, "safeflow: -trace: %v\n", err)
			return 2
		}
		defer trace.Stop()
	}

	if *watch {
		if *corpusName != "" || *format != "text" {
			fmt.Fprintln(stderr, "safeflow: -watch is incompatible with -corpus and non-text formats")
			return 2
		}
		target := fs.Arg(0)
		info, statErr := os.Stat(target)
		if statErr != nil || !info.IsDir() {
			fmt.Fprintln(stderr, "safeflow: -watch requires a directory target")
			return 2
		}
		sysName := *name
		if sysName == "" {
			sysName = target
		}
		return runWatch(ctx, sysName, dirLoader(target), opts, *interval, 0, stdout, stderr)
	}

	var rep *safeflow.Report
	var err error
	if *corpusName != "" {
		rep, err = analyzeCorpus(ctx, *corpusName, opts)
	} else {
		target := fs.Arg(0)
		sysName := *name
		if sysName == "" {
			sysName = target
		}
		if info, statErr := os.Stat(target); statErr == nil && info.IsDir() {
			rep, err = safeflow.AnalyzeDirContext(ctx, sysName, target, opts)
		} else {
			rep, err = safeflow.AnalyzeFilesContext(ctx, sysName, fs.Args(), opts)
		}
	}
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(stderr, "safeflow: analysis aborted after %v: %v\n", *timeout, err)
			return 2
		}
		fmt.Fprintf(stderr, "safeflow: %v\n", err)
		return 2
	}

	switch {
	case *format == "json":
		if err := safeflow.WriteReportJSON(stdout, rep); err != nil {
			fmt.Fprintf(stderr, "safeflow: %v\n", err)
			return 2
		}
	case *format == "sarif":
		if err := safeflow.WriteReportSARIF(stdout, rep); err != nil {
			fmt.Fprintf(stderr, "safeflow: %v\n", err)
			return 2
		}
	case *quiet:
		fmt.Fprintf(stdout, "%s: %d warnings, %d error dependencies, %d control-dependence reports, %d violations\n",
			rep.Name, len(rep.Warnings), len(rep.ErrorsData), len(rep.ErrorsControlOnly), len(rep.Violations))
		report.WriteStats(stdout, rep.Metrics)
	default:
		safeflow.WriteReport(stdout, rep)
		report.WriteStats(stdout, rep.Metrics)
	}
	switch {
	case rep.Degraded:
		return 3
	case *strict && len(rep.SuppressionIssues) > 0:
		// A directive naming an unknown rule id suppresses nothing; under
		// -strict that is a hard configuration error, not a finding.
		return 3
	case rep.Clean():
		return 0
	}
	return 1
}

// analyzeCorpus resolves one of the embedded Table 1 evaluation systems.
func analyzeCorpus(ctx context.Context, name string, opts safeflow.Options) (*safeflow.Report, error) {
	for _, sys := range corpus.All() {
		if sys.Name == name {
			return sys.AnalyzeContext(ctx, opts)
		}
	}
	return nil, fmt.Errorf("unknown corpus system %q (have: IP, Generic Simplex, Double IP)", name)
}
