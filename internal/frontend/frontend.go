// Package frontend chains SafeFlow's C front end: preprocess, lex, parse,
// type-check, lower to IR, and promote to SSA. It is the single entry
// point used by the analysis pipeline, the CLI, and tests.
//
// Translation units are independent until the type checker merges them, so
// Compile preprocesses, lexes and parses them concurrently on a bounded
// worker pool (Options.Workers, default GOMAXPROCS). Results are merged in
// the caller's file order and the first error — in that same stable order,
// not in completion order — is the one reported, so compilation output is
// identical at every worker count.
//
// CompileContext additionally honors cancellation between translation
// units, and every unit is panic-isolated: a crash while compiling one
// file surfaces as a guard.InternalError for that file while the other
// units finish normally.
//
// CompileRecover is the graceful-degradation entry point: instead of
// failing the whole system on the first broken translation unit it skips
// the units that cannot be compiled, records one structured
// diag.Diagnostic per failure, and builds the module from the survivors.
// Type checking runs a drop-and-retry loop — errors are attributed to the
// unit whose declarations produced them, that unit is dropped with its
// diagnostics, and the remaining units are re-checked — so one broken
// file (or a cascade it causes) never hides the verdicts of the rest.
package frontend

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"safeflow/internal/cast"
	"safeflow/internal/clex"
	"safeflow/internal/cparse"
	"safeflow/internal/cpp"
	"safeflow/internal/csema"
	"safeflow/internal/diag"
	"safeflow/internal/diskcache"
	"safeflow/internal/guard"
	"safeflow/internal/irgen"
	"safeflow/internal/metrics"
)

// Options configure compilation.
type Options struct {
	// Defines predefines object-like macros (as with -D).
	Defines map[string]string
	// SkipPromote leaves the IR in pre-mem2reg form (used by tests that
	// inspect the unpromoted program).
	SkipPromote bool
	// Workers bounds the number of translation units compiled concurrently.
	// 0 means runtime.GOMAXPROCS(0); 1 compiles sequentially.
	Workers int
	// DisableParseCache turns off the content-keyed parse cache, forcing
	// every translation unit through lex + parse (cold-run benchmarks,
	// memory-constrained batch runs).
	DisableParseCache bool
	// DiskCache, when non-nil, adds a persistent tier below the in-memory
	// parse cache: on a memory miss the unit's AST is loaded from the
	// content-addressed store, and freshly parsed units are written back,
	// so unchanged units survive process restarts. Integrity-checked on
	// read; a damaged entry degrades to a miss (cache_corrupt_evictions).
	DiskCache diskcache.CacheBackend
	// Metrics, when non-nil, receives goroutine observations from the
	// worker pool (peak-concurrency instrumentation) and parse-cache
	// hit/miss counts. Nil-safe.
	Metrics *metrics.Collector
}

// workerCount resolves the effective pool size for n independent tasks.
func workerCount(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// unitOutcome is one translation unit's front-half (preprocess, lex,
// parse) result.
type unitOutcome struct {
	file *cast.File // non-nil iff the unit compiled cleanly
	// partial is the best-effort AST of a failed unit (the recovering
	// parser returns what it could resynchronize); used only to harvest
	// the names of functions whose definitions are now unavailable.
	partial *cast.File
	diags   []diag.Diagnostic
}

// compileUnitDiags runs the per-TU front half: preprocess, lex, parse,
// sharing included headers with the compile's other units through ic.
// Every failure is recorded as a structured diagnostic — all lexer
// errors, all parser errors after resynchronization — never just the
// first one.
func compileUnitDiags(sources cpp.Source, cf string, opts Options, ic *includeCache) unitOutcome {
	pp := newPreprocessor(sources, opts, ic)
	text, err := pp.Expand(cf)
	if err != nil {
		return unitOutcome{diags: []diag.Diagnostic{{
			Unit: cf, Phase: diag.PhasePreprocess, Msg: err.Error(),
		}}}
	}
	var key [32]byte
	if !opts.DisableParseCache {
		key = parseCacheKey(cf, text)
		if f := parseCacheGet(key, opts.Metrics); f != nil {
			opts.Metrics.AddFrontendCache(1, 0)
			return unitOutcome{file: f}
		}
		if opts.DiskCache != nil {
			if f := parseDiskGet(opts.DiskCache, key, cf, opts.Metrics); f != nil {
				// Promote to the in-memory tier so siblings in this run
				// (and later runs in this process) share the decoded AST.
				parseCachePut(key, f)
				opts.Metrics.AddFrontendCache(1, 0)
				return unitOutcome{file: f}
			}
		}
	}
	toks, errs := ic.lex(cf, text, pp.Segments())
	if len(errs) > 0 {
		out := unitOutcome{}
		for _, e := range errs {
			var le *clex.Error
			if errors.As(e, &le) {
				out.diags = append(out.diags, diag.Diagnostic{
					Unit: cf, Pos: le.Pos, Phase: diag.PhaseLex, Msg: le.Msg,
				})
			} else {
				out.diags = append(out.diags, diag.Diagnostic{
					Unit: cf, Phase: diag.PhaseLex, Msg: e.Error(),
				})
			}
		}
		// Parse the (partially bogus) token stream anyway: the recovering
		// parser's best-effort AST tells us which function definitions the
		// skipped unit would have provided.
		out.partial, _ = cparse.New(cf, toks).ParseFile()
		return out
	}
	p := cparse.New(cf, toks)
	f, err := p.ParseFile()
	if err != nil {
		out := unitOutcome{partial: f}
		var el cparse.ErrorList
		if errors.As(err, &el) {
			for _, e := range el {
				out.diags = append(out.diags, diag.Diagnostic{
					Unit: cf, Pos: e.Pos, Phase: diag.PhaseParse, Msg: e.Msg,
				})
			}
		} else {
			out.diags = append(out.diags, diag.Diagnostic{
				Unit: cf, Phase: diag.PhaseParse, Msg: err.Error(),
			})
		}
		return out
	}
	if !opts.DisableParseCache {
		// Only fully parsed units are stored, so a failed, cancelled or
		// panicking compilation never publishes a partial entry.
		parseCachePut(key, f)
		if opts.DiskCache != nil {
			parseDiskPut(opts.DiskCache, key, f)
		}
		opts.Metrics.AddFrontendCache(0, 1)
	}
	return unitOutcome{file: f}
}

// compileUnit is the fail-stop wrapper: any diagnostic fails the unit
// with an error carrying every recorded failure (not just the first).
func compileUnit(sources cpp.Source, cf string, opts Options, ic *includeCache) (*cast.File, error) {
	out := compileUnitDiags(sources, cf, opts, ic)
	if len(out.diags) > 0 {
		return nil, diagsError(cf, out.diags)
	}
	return out.file, nil
}

// diagsError folds a unit's diagnostics into one error in the classic
// fail-stop format ("lex file.c: ..."), joining every message.
func diagsError(cf string, ds []diag.Diagnostic) error {
	msgs := make([]string, len(ds))
	for i, d := range ds {
		if d.Pos.IsValid() {
			msgs[i] = fmt.Sprintf("%s: %s", d.Pos, d.Msg)
		} else {
			msgs[i] = d.Msg
		}
	}
	return fmt.Errorf("%s %s: %s", ds[0].Phase, cf, strings.Join(msgs, "\n\t"))
}

// compileUnitSafe isolates one translation unit: a panic anywhere in its
// preprocess/lex/parse chain becomes that unit's error, not a process
// crash, so the other units of the batch still complete.
func compileUnitSafe(sources cpp.Source, cf string, opts Options, ic *includeCache) (f *cast.File, err error) {
	err = guard.Run("frontend", cf, func() error {
		var uerr error
		f, uerr = compileUnit(sources, cf, opts, ic)
		return uerr
	})
	return f, err
}

// compileUnitRecover isolates one unit in recovering mode: a panic is
// recorded as an "internal" diagnostic for the unit instead of an error,
// so the unit is skipped like any other broken one.
func compileUnitRecover(sources cpp.Source, cf string, opts Options, ic *includeCache) (out unitOutcome) {
	err := guard.Run("frontend", cf, func() error {
		out = compileUnitDiags(sources, cf, opts, ic)
		return nil
	})
	if err != nil {
		out = unitOutcome{diags: []diag.Diagnostic{{
			Unit: cf, Phase: diag.PhaseInternal, Msg: err.Error(),
		}}}
	}
	return out
}

// runUnitPool compiles the n translation units through work(i) on a
// bounded worker pool, honoring cancellation between units. work is
// called at most once per index; indices skipped due to cancellation are
// reported through the returned cancelled slice.
func runUnitPool(ctx context.Context, n int, opts Options, work func(i int)) {
	workers := workerCount(opts.Workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			work(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					continue // drain so the feeder never blocks
				}
				opts.Metrics.ObserveGoroutines()
				work(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
}

// Compile builds the translation units named by cFiles (each preprocessed
// independently against sources) into one typed, SSA-promoted module.
func Compile(name string, sources cpp.Source, cFiles []string, opts Options) (*irgen.Result, error) {
	return CompileContext(context.Background(), name, sources, cFiles, opts)
}

// CompileContext is Compile with cancellation: a cancelled context stops
// the worker pool between translation units (never mid-unit) and returns
// ctx.Err() promptly with no goroutines left behind.
func CompileContext(ctx context.Context, name string, sources cpp.Source, cFiles []string, opts Options) (*irgen.Result, error) {
	files := make([]*cast.File, len(cFiles))
	errs := make([]error, len(cFiles))
	ic := newIncludeCache()
	runUnitPool(ctx, len(cFiles), opts, func(i int) {
		files[i], errs[i] = compileUnitSafe(sources, cFiles[i], opts, ic)
	})
	ic.report(opts.Metrics)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	// First error in stable file order, regardless of completion order.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	prog, err := csema.Analyze(files)
	if err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	res := irgen.Build(name, prog)
	if len(res.Errors) > 0 {
		return res, fmt.Errorf("lower: %w", res.Errors[0])
	}
	if !opts.SkipPromote {
		irgen.Promote(res.Module)
	}
	return res, nil
}

// RecoverResult is the output of the graceful-degradation compile path.
type RecoverResult struct {
	// Res is the module built from the translation units that survived.
	Res *irgen.Result
	// Diags records every failure, sorted by (unit, phase, position,
	// message); empty means the compile was not degraded.
	Diags []diag.Diagnostic
	// MissingDefs names the functions whose definitions are unavailable
	// in the degraded module: functions defined in (or declared by) a
	// skipped unit, plus every declared-but-undefined non-builtin
	// function once any unit was skipped. The value-flow analysis treats
	// calls to them as unknown-taint sources. Nil when nothing was
	// skipped.
	MissingDefs map[string]bool
}

// Degraded reports whether any translation unit was skipped.
func (r *RecoverResult) Degraded() bool { return len(r.Diags) > 0 }

// CompileRecover is Compile with graceful degradation: translation units
// that fail to preprocess, lex, parse, or type-check are skipped with
// structured diagnostics instead of failing the whole system, and the
// module is built from the survivors.
func CompileRecover(name string, sources cpp.Source, cFiles []string, opts Options) (*RecoverResult, error) {
	return CompileRecoverContext(context.Background(), name, sources, cFiles, opts)
}

// CompileRecoverContext is CompileRecover with cancellation. The result
// is deterministic at every worker count: diagnostics carry a total sort
// order and units are dropped in stable file order.
func CompileRecoverContext(ctx context.Context, name string, sources cpp.Source, cFiles []string, opts Options) (*RecoverResult, error) {
	outs := make([]unitOutcome, len(cFiles))
	ic := newIncludeCache()
	runUnitPool(ctx, len(cFiles), opts, func(i int) {
		outs[i] = compileUnitRecover(sources, cFiles[i], opts, ic)
	})
	ic.report(opts.Metrics)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	type tu struct {
		name string
		file *cast.File
	}
	var (
		diags       []diag.Diagnostic
		live        []tu
		skippedDefs = make(map[string]bool)
	)
	for i, o := range outs {
		diags = append(diags, o.diags...)
		if o.file != nil {
			live = append(live, tu{cFiles[i], o.file})
		} else {
			harvestDefs(o.partial, skippedDefs)
		}
	}

	// Multi-diagnostic recovery loop: type-check the surviving units,
	// attribute every error to the unit whose declarations produced it,
	// drop the culprits, and retry with the rest. Each iteration drops at
	// least one unit (or finishes), so the loop terminates; cascades —
	// a unit failing only because a dropped unit's typedefs are gone —
	// resolve in later iterations.
	var prog *csema.Program
	for {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		files := make([]*cast.File, len(live))
		for i, u := range live {
			files[i] = u.file
		}
		p, perFile := csema.AnalyzeUnits(files)
		var next []tu
		dropped := false
		for i, errs := range perFile {
			if len(errs) == 0 {
				next = append(next, live[i])
				continue
			}
			dropped = true
			for _, e := range errs {
				diags = append(diags, diag.Diagnostic{
					Unit: live[i].name, Pos: e.Pos, Phase: diag.PhaseTypecheck, Msg: e.Msg,
				})
			}
			harvestDefs(live[i].file, skippedDefs)
		}
		live = next
		if !dropped {
			prog = p
			break
		}
	}

	// Lowering: annotation errors are attributed to units by position and
	// resolved with the same drop-and-retry scheme. An error that cannot
	// be attributed to a surviving unit (e.g. a malformed annotation in a
	// shared header) is unrecoverable.
	var res *irgen.Result
	for {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		res = irgen.Build(name, prog)
		if len(res.Errors) == 0 {
			break
		}
		drop := make(map[string]bool)
		for _, e := range res.Errors {
			unit := ""
			for _, u := range live {
				if strings.HasPrefix(e.Error(), u.name+":") {
					unit = u.name
					break
				}
			}
			if unit == "" {
				return nil, fmt.Errorf("lower: %w", e)
			}
			drop[unit] = true
			diags = append(diags, diag.Diagnostic{
				Unit: unit, Phase: diag.PhaseLower, Msg: e.Error(),
			})
		}
		var next []tu
		for _, u := range live {
			if drop[u.name] {
				harvestDefs(u.file, skippedDefs)
			} else {
				next = append(next, u)
			}
		}
		live = next
		// Re-run the type-check loop over the reduced unit set.
		for {
			files := make([]*cast.File, len(live))
			for i, u := range live {
				files[i] = u.file
			}
			p, perFile := csema.AnalyzeUnits(files)
			var nxt []tu
			dropped := false
			for i, errs := range perFile {
				if len(errs) == 0 {
					nxt = append(nxt, live[i])
					continue
				}
				dropped = true
				for _, e := range errs {
					diags = append(diags, diag.Diagnostic{
						Unit: live[i].name, Pos: e.Pos, Phase: diag.PhaseTypecheck, Msg: e.Msg,
					})
				}
				harvestDefs(live[i].file, skippedDefs)
			}
			live = nxt
			if !dropped {
				prog = p
				break
			}
		}
	}
	if !opts.SkipPromote {
		irgen.Promote(res.Module)
	}

	out := &RecoverResult{Res: res}
	diag.Sort(diags)
	out.Diags = diags
	if len(diags) > 0 {
		missing := make(map[string]bool)
		for fname := range skippedDefs {
			if fn := prog.FuncByName[fname]; fn == nil || !fn.IsDefined {
				missing[fname] = true
			}
		}
		// Once any unit is gone we no longer know which prototypes it
		// would have defined: treat every declared-but-undefined
		// non-builtin function as missing too.
		for fname, fn := range prog.FuncByName {
			if !fn.IsDefined && !fn.IsBuiltin {
				missing[fname] = true
			}
		}
		out.MissingDefs = missing
	}
	return out, nil
}

// harvestDefs records the function definitions a skipped unit's
// (possibly partial) AST would have provided.
func harvestDefs(f *cast.File, into map[string]bool) {
	if f == nil {
		return
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*cast.FuncDecl); ok && fd.Body != nil {
			into[fd.Name] = true
		}
	}
}

// CompileString is a convenience for single-buffer programs (tests,
// quickstart examples).
func CompileString(name, src string, opts Options) (*irgen.Result, error) {
	return Compile(name, cpp.MapSource{"main.c": src}, []string{"main.c"}, opts)
}
