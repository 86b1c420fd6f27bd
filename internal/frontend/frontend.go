// Package frontend chains SafeFlow's C front end: preprocess, lex, parse,
// type-check, lower to IR, and promote to SSA. It is the single entry
// point used by the analysis pipeline, the CLI, and tests.
//
// Translation units are independent until the type checker merges them, so
// the front half (preprocess, lex, parse) runs concurrently on a bounded
// worker pool (Options.Workers, default GOMAXPROCS), honoring cancellation
// between units. Every unit is panic-isolated: a crash while compiling one
// file surfaces as a guard.InternalError for that file while the other
// units finish normally. Results are merged in the caller's file order,
// so compilation output is identical at every worker count.
//
// One driver serves both entry points. CompileRecover is the graceful-
// degradation path: it skips the units that cannot be compiled, records
// one structured diag.Diagnostic per failure, and builds the module from
// the survivors. Type checking and lowering run a drop-and-retry loop —
// errors are attributed to the unit whose declarations produced them,
// that unit is dropped with its diagnostics, and the remaining units are
// re-checked — so one broken file (or a cascade it causes) never hides
// the verdicts of the rest. Compile is fail-stop on top of the same
// driver: the first failing stage is fatal, and the first failure in
// file order is the error reported.
//
// With a module tier (Options.Modules, modulecache.go) a compile whose
// units all preprocess and parse to the parse keys of an earlier clean
// compile of the same system returns that compile's module, skipping
// type checking, lowering and mem2reg.
//
// FragmentCompiler (incr.go) compiles units one by one for incremental
// sessions and links them; it shares the per-unit parse step with the
// driver.
package frontend

import (
	"context"
	"crypto/sha256"
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
	// Workers bounds the number of translation units compiled concurrently.
	// 0 means runtime.GOMAXPROCS(0); 1 compiles sequentially.
	Workers int
	// Cache, when non-nil, is the in-memory parse tier: a unit whose
	// preprocessed text is unchanged from a prior compile through the
	// same Cache reuses its parsed AST. Nil compiles every unit through
	// lex + parse and ignores DiskCache.
	Cache *ParseCache
	// DiskCache, when non-nil, adds a persistent tier below the in-memory
	// parse tier: on a memory miss the unit's AST is loaded from the
	// content-addressed store, and freshly parsed units are written back,
	// so unchanged units survive process restarts. Integrity-checked on
	// read; a damaged entry degrades to a miss (cache_corrupt_evictions).
	DiskCache diskcache.CacheBackend
	// Modules, when non-nil, is the in-memory module tier: a compile
	// whose every unit preprocessed and parsed cleanly to the same parse
	// keys as a prior clean compile of the same system name through the
	// same ModuleCache returns that compile's module, skipping type
	// checking, lowering and mem2reg. The module is shared, so callers
	// must only read it.
	Modules *ModuleCache
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
	// key is the unit's parse key, set when the compile has a parse or a
	// module tier and the unit preprocessed.
	key [sha256.Size]byte
	// partial is the best-effort AST of a failed unit (the recovering
	// parser returns what it could resynchronize); used only to harvest
	// the names of functions whose definitions are now unavailable.
	partial *cast.File
	diags   []diag.Diagnostic
	// internal is the *guard.InternalError of a unit whose front half
	// panicked (diags then holds its "internal" diagnostic).
	internal error
}

// compileUnitDiags runs one unit's front half — preprocess, then the
// shared parse step — sharing included headers with the compile's other
// units through ic. It is panic-isolated: a crash becomes the unit's
// internal error and "internal" diagnostic, so the other units of the
// batch still complete.
func compileUnitDiags(sources cpp.Source, cf string, opts Options, ic *includeCache) (out unitOutcome) {
	err := guard.Run("frontend", cf, func() error {
		pp := newPreprocessor(sources, opts, ic)
		text, err := pp.Expand(cf)
		if err != nil {
			out.diags = []diag.Diagnostic{{Unit: cf, Phase: diag.PhasePreprocess, Msg: err.Error()}}
			return nil
		}
		var key [sha256.Size]byte
		if opts.Cache != nil || opts.Modules != nil {
			key = parseCacheKey(cf, text)
		}
		out = parseUnit(cf, text, pp.Segments(), key, opts, ic)
		out.key = key
		return nil
	})
	if err != nil {
		out = unitOutcome{internal: err, diags: []diag.Diagnostic{{
			Unit: cf, Phase: diag.PhaseInternal, Msg: err.Error(),
		}}}
	}
	return out
}

// parseUnit is the per-unit parse step of every compile path: memory
// parse tier, then the disk tier, then a piecewise parse that shares the
// compile's parsed headers (includes.go), else a whole-buffer lex and
// parse, storing a fully parsed unit in both tiers. key is
// parseCacheKey(cf, text); it is unused when opts.Cache is nil.
// Every failure is recorded as a structured diagnostic — all lexer
// errors, all parser errors after resynchronization — never just the
// first one.
func parseUnit(cf, text string, segs []cpp.Segment, key [sha256.Size]byte, opts Options, ic *includeCache) unitOutcome {
	pc := opts.Cache
	if pc != nil {
		f, ok, corrupt := pc.Get(key, 0)
		if corrupt {
			opts.Metrics.AddCacheCorruptEvictions(1)
		}
		if !ok && opts.DiskCache != nil {
			if f = parseDiskGet(opts.DiskCache, key, cf, opts.Metrics); f != nil {
				// Promote to the in-memory tier so siblings in this run
				// (and later runs through this Cache) share the decoded AST.
				pc.Put(key, 0, f)
				ok = true
			}
		}
		if ok {
			opts.Metrics.AddFrontendCache(1, 0)
			return unitOutcome{file: f}
		}
	}
	f, ok := ic.parsePieces(cf, text, segs)
	if !ok {
		out := parseWhole(cf, text)
		if out.file == nil {
			return out
		}
		f = out.file
	}
	if pc != nil {
		// Only fully parsed units are stored, so a failed, cancelled or
		// panicking compilation never publishes a partial entry.
		pc.Put(key, 0, f)
		if opts.DiskCache != nil {
			parseDiskPut(opts.DiskCache, key, f)
		}
		opts.Metrics.AddFrontendCache(0, 1)
	}
	return unitOutcome{file: f}
}

// parseWhole lexes and parses one unit's whole expanded text. A failed
// unit's outcome holds every lexer error, every parser error after
// resynchronization, and the best-effort partial AST.
func parseWhole(cf, text string) unitOutcome {
	lx := clex.New(cf, text)
	toks := lx.All()
	if errs := lx.Errors(); len(errs) > 0 {
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
	f, err := cparse.New(cf, toks).ParseFile()
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
	return unitOutcome{file: f}
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

// runUnitPool compiles the n translation units through work(i) on a
// bounded worker pool, honoring cancellation between units: work is
// called at most once per index, and not at all once ctx is done.
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
// It is fail-stop: the first failing stage is fatal. That is the first
// unit in cFiles order with a diagnostic (or its *guard.InternalError if
// it panicked), else the first type-check pass ("typecheck: ..."), else
// the first lowering error ("lower: ..."). A cancelled context stops the
// worker pool between translation units (never mid-unit) and returns
// ctx.Err() promptly with no goroutines left behind.
func Compile(ctx context.Context, name string, sources cpp.Source, cFiles []string, opts Options) (*irgen.Result, error) {
	rr, err := CompileWith(ctx, name, sources, cFiles, opts, true)
	if err != nil {
		return nil, err
	}
	return rr.Res, nil
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
	// Entry is the module tier entry of Res.Module: the one the compile
	// hit, or the one it stored. Nil when the compile had no module tier
	// or was degraded.
	Entry *CompiledModule
}

// Degraded reports whether any translation unit was skipped.
func (r *RecoverResult) Degraded() bool { return len(r.Diags) > 0 }

// CompileRecover is Compile with graceful degradation: translation units
// that fail to preprocess, lex, parse, or type-check are skipped with
// structured diagnostics instead of failing the whole system, and the
// module is built from the survivors. The result is deterministic at
// every worker count: diagnostics carry a total sort order and units are
// dropped in stable file order.
func CompileRecover(ctx context.Context, name string, sources cpp.Source, cFiles []string, opts Options) (*RecoverResult, error) {
	return CompileWith(ctx, name, sources, cFiles, opts, false)
}

// CompileWith is the one front end behind Compile and
// CompileRecover, for callers that choose the mode per run or read the
// module tier entry. It always runs the recovering pipeline; failStop
// makes the first failure of each stage the compile's error instead of a
// skipped unit, as Compile does.
func CompileWith(ctx context.Context, name string, sources cpp.Source, cFiles []string, opts Options, failStop bool) (*RecoverResult, error) {
	outs := make([]unitOutcome, len(cFiles))
	ic := newIncludeCache()
	runUnitPool(ctx, len(cFiles), opts, func(i int) {
		outs[i] = compileUnitDiags(sources, cFiles[i], opts, ic)
	})
	ic.report(opts.Metrics)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	modKey, cached, ok := lookupModule(name, cFiles, outs, opts)
	if ok {
		return &RecoverResult{Res: &irgen.Result{Module: cached.Module, AssertVars: cached.AssertVars}, Entry: cached}, nil
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
	// Outcomes are read in stable file order, regardless of completion
	// order.
	for i, o := range outs {
		if failStop && o.internal != nil {
			return nil, o.internal
		}
		if failStop && len(o.diags) > 0 {
			return nil, diagsError(cFiles[i], o.diags)
		}
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
	// resolve in later iterations. Lowering errors are attributed to
	// units by position and resolved the same way: the culprits are
	// dropped and the reduced set is type-checked again. An error that
	// cannot be attributed to a surviving unit (e.g. a malformed
	// annotation in a shared header) is unrecoverable.
	var (
		prog *csema.Program
		res  *irgen.Result
	)
	for {
		for prog == nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			files := make([]*cast.File, len(live))
			for i, u := range live {
				files[i] = u.file
			}
			p, perFile := csema.AnalyzeUnits(files)
			var (
				next []tu
				all  csema.ErrorList
			)
			for i, errs := range perFile {
				if len(errs) == 0 {
					next = append(next, live[i])
					continue
				}
				all = append(all, errs...)
				for _, e := range errs {
					diags = append(diags, diag.Diagnostic{
						Unit: live[i].name, Pos: e.Pos, Phase: diag.PhaseTypecheck, Msg: e.Msg,
					})
				}
				harvestDefs(live[i].file, skippedDefs)
			}
			if len(all) == 0 {
				prog = p
			} else if failStop {
				return nil, fmt.Errorf("typecheck: %w", all)
			}
			live = next
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		res = irgen.Build(name, prog)
		if len(res.Errors) == 0 {
			break
		}
		if failStop {
			return nil, fmt.Errorf("lower: %w", res.Errors[0])
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
		live, prog = next, nil
	}
	irgen.Promote(res.Module)
	out := &RecoverResult{Res: res}
	if modKey != nil && len(diags) == 0 {
		out.Entry = &CompiledModule{Module: res.Module, AssertVars: res.AssertVars}
		opts.Modules.Put(*modKey, 0, out.Entry)
	}
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

// lookupModule looks the compile's module up in the module tier when
// every unit came out of the pool clean. key is the module key the
// compile stores its module under, nil when there is no tier or a unit
// failed.
func lookupModule(name string, cFiles []string, outs []unitOutcome, opts Options) (key *[sha256.Size]byte, cm *CompiledModule, ok bool) {
	if opts.Modules == nil {
		return nil, nil, false
	}
	for _, o := range outs {
		if o.file == nil {
			return nil, nil, false
		}
	}
	k := moduleKey(name, cFiles, outs)
	cm, ok, corrupt := opts.Modules.Get(k, 0)
	if corrupt {
		opts.Metrics.AddCacheCorruptEvictions(1)
	}
	return &k, cm, ok
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
