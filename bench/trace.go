package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os/exec"
	"runtime"
	"sync/atomic"
	"time"

	"safeflow/internal/callgraph"
	"safeflow/internal/cast"
	"safeflow/internal/clex"
	"safeflow/internal/cparse"
	"safeflow/internal/cpp"
	"safeflow/internal/csema"
	"safeflow/internal/ctoken"
	"safeflow/internal/irgen"
	"safeflow/internal/pointsto"
	"safeflow/internal/restrict"
	"safeflow/internal/shmflow"
	"safeflow/internal/vfg"
	"safeflow/pkg/safeflow"
)

// layers are the span names of one re-driven operation, in pipeline
// order; each reports <name>.self_ms.
var layers = []string{"cpp", "clex", "cparse", "csema", "irgen", "mem2reg",
	"callgraph", "shmflow", "restrict", "pointsto", "vfg"}

// span is one timed call into a layer. Times are ns since the run began.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory. It is used from one
// goroutine; a nil tracer runs the wrapped calls untimed.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	stack []int
}

func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	id, parent := len(t.spans), -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	f()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// selfTimes returns, per operation, each span name's self time in ns:
// its duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[int]map[string]int64 {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[int]map[string]int64{}
	for i, s := range t.spans {
		m := out[s.Op]
		if m == nil {
			m = map[string]int64{}
			out[s.Op] = m
		}
		m[s.Name] += s.End - s.Start - covered[i]
	}
	return out
}

// layerCounts is the work one re-driven operation did, per layer.
type layerCounts struct {
	cppBytes, tokens, decls, instrs, sccs, regions, violations, units, rounds int
	warnings, errors                                                          int
}

// redrive runs the pipeline one layer at a time through each layer's
// public function, in one goroutine and without any cache, wrapping
// every call in a span of t.
func redrive(t *tracer, s system) (layerCounts, error) {
	var c layerCounts
	var err error
	t.do("op", func() {
		src := cpp.MapSource(s.sources)
		files := make([]*cast.File, 0, len(s.cFiles))
		for _, cf := range s.cFiles {
			var text string
			t.do("cpp", func() { text, err = cpp.New(src).Expand(cf) })
			if err != nil {
				return
			}
			var toks []ctoken.Token
			var lexErrs []error
			t.do("clex", func() {
				lx := clex.New(cf, text)
				toks, lexErrs = lx.All(), lx.Errors()
			})
			if len(lexErrs) > 0 {
				err = lexErrs[0]
				return
			}
			var f *cast.File
			t.do("cparse", func() { f, err = cparse.New(cf, toks).ParseFile() })
			if err != nil {
				return
			}
			c.cppBytes += len(text)
			c.tokens += len(toks)
			c.decls += len(f.Decls)
			files = append(files, f)
		}
		var prog *csema.Program
		t.do("csema", func() { prog, err = csema.Analyze(files) })
		if err != nil {
			return
		}
		var res *irgen.Result
		t.do("irgen", func() { res = irgen.Build(s.name, prog) })
		if len(res.Errors) > 0 {
			err = res.Errors[0]
			return
		}
		m := res.Module
		t.do("mem2reg", func() { irgen.Promote(m) })
		var cg *callgraph.Graph
		var sf *shmflow.Result
		var pts *pointsto.Result
		var v *vfg.Result
		t.do("callgraph", func() { cg = callgraph.New(m) })
		t.do("shmflow", func() { sf = shmflow.Analyze(m, cg) })
		t.do("restrict", func() { c.violations = len(restrict.Check(m, sf)) })
		t.do("pointsto", func() { pts = pointsto.Analyze(m, pointsto.ModeSubset) })
		t.do("vfg", func() {
			v = vfg.Run(vfg.Config{Module: m, CG: cg, SF: sf, PTS: pts, AssertVars: res.AssertVars, Workers: 1})
		})
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				c.instrs += len(b.Instrs)
			}
		}
		c.sccs, c.regions = len(cg.BottomUp()), len(sf.Regions)
		c.units, c.rounds = v.UnitsAnalyzed, v.Rounds
		c.warnings, c.errors = len(v.Warnings), len(v.Errors)
	})
	return c, err
}

// layerRun accumulates one traced run.
type layerRun struct {
	tr *tracer
	// Per re-driven operation, in ms: the untraced one-worker Analyze,
	// the re-drive without spans, and the re-drive with spans.
	untraced, bare, traced []float64
	sum                    layerCounts
	jsonBytes              int
	ops                    int
	tier                   tierStats
	exec                   []float64 // cli.exec_ms samples
	attempted, failed      int
	errs                   []string
}

func newLayerRun() *layerRun { return &layerRun{tr: &tracer{t0: time.Now()}} }

// check counts one checked outcome.
func (lr *layerRun) check(err error) bool {
	lr.attempted++
	if err != nil {
		lr.failed++
		if len(lr.errs) < 5 {
			lr.errs = append(lr.errs, err.Error())
		}
	}
	return err == nil
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// layerOp times one operation three ways, in a rotating order: the
// untraced pipeline with one worker, the bare re-drive and the traced
// re-drive. s must carry a fresh nonce so the untraced run misses every
// cache, as the re-drive does. want, when set, is the reference report
// the untraced run must render.
func (lr *layerRun) layerOp(s system, want []byte) {
	mark := len(lr.tr.spans)
	var rep *safeflow.Report
	var got layerCounts
	var u, b, t float64
	var errU, errB, errT error
	runs := []func(){
		func() {
			t0 := time.Now()
			rep, errU = safeflow.Analyze(s.name, s.sources, s.cFiles, safeflow.Options{Workers: 1})
			u = msSince(t0)
		},
		func() {
			t0 := time.Now()
			_, errB = redrive(nil, s)
			b = msSince(t0)
		},
		func() {
			lr.tr.op = lr.ops
			t0 := time.Now()
			got, errT = redrive(lr.tr, s)
			t = msSince(t0)
		},
	}
	for i := range runs {
		runs[(lr.ops+i)%len(runs)]()
	}
	if !lr.check(errors.Join(errU, errB, errT)) {
		lr.tr.spans = lr.tr.spans[:mark]
		return
	}
	var js []byte
	lr.tr.op = lr.ops
	lr.tr.do("render.json", func() { js = renderJSON(rep) })
	lr.tr.do("render.sarif", func() { renderSARIF(rep) })
	err := s.checkKill(rep)
	if err == nil && (got.warnings != len(rep.Warnings) || got.errors != len(rep.ErrorsData)+len(rep.ErrorsControlOnly)) {
		err = fmt.Errorf("%s: re-drive found %d warnings and %d errors, Analyze %d and %d", s.name,
			got.warnings, got.errors, len(rep.Warnings), len(rep.ErrorsData)+len(rep.ErrorsControlOnly))
	}
	if err == nil && want != nil {
		err = sameBytes(s.name, js, want)
	}
	if !lr.check(err) {
		lr.tr.spans = lr.tr.spans[:mark]
		return
	}
	lr.untraced = append(lr.untraced, u)
	lr.bare = append(lr.bare, b)
	lr.traced = append(lr.traced, t)
	lr.sum.add(got)
	lr.jsonBytes += len(js)
	lr.ops++
}

func (c *layerCounts) add(o layerCounts) {
	c.cppBytes += o.cppBytes
	c.tokens += o.tokens
	c.decls += o.decls
	c.instrs += o.instrs
	c.sccs += o.sccs
	c.regions += o.regions
	c.violations += o.violations
	c.units += o.units
	c.rounds += o.rounds
}

// cliExec times a safeflow usage-error exit: process start-up and flag
// parsing, the floor of every CLI run.
func (lr *layerRun) cliExec(cli string) {
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		err := exec.Command(cli).Run()
		d := msSince(t0)
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			lr.check(fmt.Errorf("safeflow without arguments: want exit 2, got %v", err))
			continue
		}
		lr.exec = append(lr.exec, d)
	}
}

// diskCounters are the timing decorator's totals.
type diskCounters struct {
	Gets     int64 `json:"gets"`
	Hits     int64 `json:"hits"`
	GetNS    int64 `json:"get_ns"`
	GetBytes int64 `json:"get_bytes"`
	Puts     int64 `json:"puts"`
	PutNS    int64 `json:"put_ns"`
}

func (d *diskCounters) add(o diskCounters) {
	d.Gets += o.Gets
	d.Hits += o.Hits
	d.GetNS += o.GetNS
	d.GetBytes += o.GetBytes
	d.Puts += o.Puts
	d.PutNS += o.PutNS
}

// timedCache times every call into a cache backend. The front end calls
// it from several workers at once.
type timedCache struct {
	next                                     safeflow.CacheBackend
	gets, hits, getNS, getBytes, puts, putNS atomic.Int64
}

func (c *timedCache) Get(ns string, version uint32, key [sha256.Size]byte) ([]byte, bool, bool) {
	t0 := time.Now()
	data, ok, corrupt := c.next.Get(ns, version, key)
	c.getNS.Add(time.Since(t0).Nanoseconds())
	c.gets.Add(1)
	if ok {
		c.hits.Add(1)
		c.getBytes.Add(int64(len(data)))
	}
	return data, ok, corrupt
}

func (c *timedCache) Put(ns string, version uint32, key [sha256.Size]byte, data []byte) {
	t0 := time.Now()
	c.next.Put(ns, version, key, data)
	c.putNS.Add(time.Since(t0).Nanoseconds())
	c.puts.Add(1)
}

func (c *timedCache) counters() diskCounters {
	return diskCounters{Gets: c.gets.Load(), Hits: c.hits.Load(), GetNS: c.getNS.Load(),
		GetBytes: c.getBytes.Load(), Puts: c.puts.Load(), PutNS: c.putNS.Load()}
}

// memCounters are runtime allocation and GC totals.
type memCounters struct {
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	NumGC      uint64 `json:"num_gc"`
	PauseNS    uint64 `json:"pause_ns"`
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{AllocBytes: m.TotalAlloc, Mallocs: m.Mallocs, NumGC: uint64(m.NumGC), PauseNS: m.PauseTotalNs}
}

func (m memCounters) sub(o memCounters) memCounters {
	return memCounters{m.AllocBytes - o.AllocBytes, m.Mallocs - o.Mallocs, m.NumGC - o.NumGC, m.PauseNS - o.PauseNS}
}

func (m *memCounters) add(o memCounters) {
	m.AllocBytes += o.AllocBytes
	m.Mallocs += o.Mallocs
	m.NumGC += o.NumGC
	m.PauseNS += o.PauseNS
}

// tierStats accumulates the tier pass: the workload's own operations
// with run metrics on and the disk tier timed, read through the counters
// the program emits (RunMetrics, UpdateStats, /metricsz).
type tierStats struct {
	ops int
	// wallNS is operation latency as the caller sees it, analysisNS the
	// pipeline's own wall time (RunMetrics.WallNS).
	wallNS, analysisNS int64

	feHits, feMisses, sumHits, sumMisses, corrupt int

	// The disk and runtime counters carry their own operation counts:
	// daemon-mixed times its disk tier in a replay beside the HTTP pass.
	disk    diskCounters
	diskOps int
	mem     memCounters
	memOps  int

	updates, invalidated, reused, replayed, solved, restarts, fallbacks int

	rejected, dedup int64
}

func (ts *tierStats) addDisk(c diskCounters, ops int) {
	ts.disk.add(c)
	ts.diskOps += ops
}

func (ts *tierStats) addMem(m memCounters, ops int) {
	ts.mem.add(m)
	ts.memOps += ops
}

func (ts *tierStats) addRun(wall time.Duration, m *safeflow.RunMetrics) {
	ts.ops++
	ts.wallNS += wall.Nanoseconds()
	if m == nil {
		return
	}
	ts.analysisNS += m.WallNS
	ts.feHits += m.FrontendCacheHits
	ts.feMisses += m.FrontendCacheMisses
	ts.sumHits += m.CacheHits
	ts.sumMisses += m.CacheMisses
	ts.corrupt += m.CacheCorruptEvictions
}

func (ts *tierStats) addUpdate(st safeflow.UpdateStats) {
	ts.updates++
	ts.invalidated += st.FuncsInvalidated
	ts.reused += st.FuncsReused
	ts.replayed += st.UnitsReplayed
	ts.solved += st.UnitsSolved
	ts.restarts += st.Restarts
	if !st.Incremental {
		ts.fallbacks++
	}
}

// analyze is one in-process tier-pass operation: Analyze with run
// metrics on, checked against the reference report.
func (lr *layerRun) analyze(s system, ref []byte, opts safeflow.Options) {
	opts.Stats = true
	t0 := time.Now()
	rep, err := safeflow.Analyze(s.name, s.sources, s.cFiles, opts)
	d := time.Since(t0)
	if err == nil {
		lr.tier.addRun(d, rep.Metrics)
		rep.Metrics = nil
		err = sameBytes(s.name, renderJSON(rep), ref)
	}
	lr.check(err)
}

// openTimedCache opens a fresh disk cache under the work dir behind the
// timing decorator.
func openTimedCache(e *env) (*timedCache, string, error) {
	dir, err := e.tempDir("tier-")
	if err != nil {
		return nil, "", err
	}
	store, err := safeflow.OpenDiskCache(dir, 0)
	if err != nil {
		removeAll(dir)
		return nil, "", err
	}
	return &timedCache{next: store}, dir, nil
}

// metrics computes every per-layer metric of the run.
func (lr *layerRun) metrics() map[string]metricRecord {
	out := map[string]metricRecord{}
	n := float64(max(lr.ops, 1))
	selfs := lr.tr.selfTimes()
	perOp := func(name string) []float64 {
		xs := make([]float64, 0, lr.ops)
		for op := 0; op < lr.ops; op++ {
			xs = append(xs, ms(selfs[op][name]))
		}
		return xs
	}
	var selfSum float64
	for _, l := range layers {
		d := distribution(perOp(l), 50, "ms")
		out[l+".self_ms"] = d
		selfSum += d.Value
	}
	out["render.json_ms"] = distribution(perOp("render.json"), 50, "ms")
	out["render.sarif_ms"] = distribution(perOp("render.sarif"), 50, "ms")
	u, b, t := median(lr.untraced), median(lr.bare), median(lr.traced)
	residual := u - b
	out["core.residual_ms"] = metricRecord{Value: residual, Unit: "ms", Samples: lr.ops}
	out["trace.overhead_ms"] = metricRecord{Value: t - b, Unit: "ms", Samples: lr.ops}
	out["trace.coverage"] = metricRecord{Value: ratio(selfSum+residual, u), Unit: "ratio", Samples: lr.ops}

	c := lr.sum
	for name, v := range map[string]float64{
		"cpp.out_kb":          float64(c.cppBytes) / 1024,
		"clex.tokens":         float64(c.tokens),
		"cparse.decls":        float64(c.decls),
		"ir.instrs":           float64(c.instrs),
		"callgraph.sccs":      float64(c.sccs),
		"shmflow.regions":     float64(c.regions),
		"restrict.violations": float64(c.violations),
		"vfg.units_solved":    float64(c.units),
		"vfg.rounds":          float64(c.rounds),
		"render.json_kb":      float64(lr.jsonBytes) / 1024,
	} {
		unit := "count"
		if name == "cpp.out_kb" || name == "render.json_kb" {
			unit = "KB"
		}
		out[name] = metricRecord{Value: v / n, Unit: unit, Samples: lr.ops}
	}

	ts := &lr.tier
	ops := float64(max(ts.ops, 1))
	upd := float64(max(ts.updates, 1))
	fe, sum := float64(ts.feHits+ts.feMisses), float64(ts.sumHits+ts.sumMisses)
	set := func(name string, v float64, unit string, samples int) {
		out[name] = metricRecord{Value: v, Unit: unit, Samples: samples}
	}
	set("op.analysis_ms", ms(ts.analysisNS)/ops, "ms", ts.ops)
	set("op.overhead_ms", ms(ts.wallNS-ts.analysisNS)/ops, "ms", ts.ops)
	set("cache.parse_hit_ratio", ratio(float64(ts.feHits), fe), "ratio", ts.ops)
	set("cache.parse_gets_per_op", fe/ops, "count", ts.ops)
	set("cache.summary_hit_ratio", ratio(float64(ts.sumHits), sum), "ratio", ts.ops)
	set("cache.corrupt_evictions", float64(ts.corrupt), "count", ts.ops)
	dops, mops := float64(max(ts.diskOps, 1)), float64(max(ts.memOps, 1))
	set("diskcache.get_ms", ms(ts.disk.GetNS)/dops, "ms", ts.diskOps)
	set("diskcache.put_ms", ms(ts.disk.PutNS)/dops, "ms", ts.diskOps)
	set("diskcache.get_kb", float64(ts.disk.GetBytes)/1024/dops, "KB", ts.diskOps)
	set("diskcache.hit_ratio", ratio(float64(ts.disk.Hits), float64(ts.disk.Gets)), "ratio", ts.diskOps)
	set("diskcache.puts_per_op", float64(ts.disk.Puts)/dops, "count", ts.diskOps)
	set("session.funcs_invalidated", float64(ts.invalidated)/upd, "count", ts.updates)
	set("session.funcs_reused", float64(ts.reused)/upd, "count", ts.updates)
	set("session.reuse_ratio", ratio(float64(ts.reused), float64(ts.reused+ts.invalidated)), "ratio", ts.updates)
	set("session.units_replayed", float64(ts.replayed)/upd, "count", ts.updates)
	set("session.units_solved", float64(ts.solved)/upd, "count", ts.updates)
	set("session.restarts", float64(ts.restarts), "count", ts.updates)
	set("session.fallbacks", float64(ts.fallbacks), "count", ts.updates)
	set("daemon.rejected", float64(ts.rejected), "count", ts.ops)
	set("daemon.dedup_hits", float64(ts.dedup), "count", ts.ops)
	set("runtime.alloc_mb_per_op", float64(ts.mem.AllocBytes)/(1<<20)/mops, "MB", ts.memOps)
	set("runtime.allocs_per_op", float64(ts.mem.Mallocs)/mops, "count", ts.memOps)
	set("runtime.gc_cycles_per_op", float64(ts.mem.NumGC)/mops, "count", ts.memOps)
	set("runtime.gc_pause_ms", ms(int64(ts.mem.PauseNS))/mops, "ms", ts.memOps)
	out["cli.exec_ms"] = distribution(lr.exec, 50, "ms")
	return out
}

// writeSpans writes every span of the run with each layer's median self
// time.
func (lr *layerRun) writeSpans(path, name string, seed int64) error {
	m := lr.metrics()
	self := map[string]float64{
		"render.json":  m["render.json_ms"].Value,
		"render.sarif": m["render.sarif_ms"].Value,
	}
	for _, l := range layers {
		self[l] = m[l+".self_ms"].Value
	}
	return writeJSON(path, struct {
		Workload   string             `json:"workload"`
		Seed       int64              `json:"seed"`
		Ops        int                `json:"ops"`
		SelfMedian map[string]float64 `json:"self_ms_median"`
		Spans      []span             `json:"spans"`
	}{name, seed, lr.ops, self, lr.tr.spans})
}
