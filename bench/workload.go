package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"paper-cli", "scale-130tu", "incr-edit", "daemon-mixed"}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the state of the last set-up is the one measured.
const setupReps = 3

// env is what every workload gets from the command line.
type env struct {
	seed    int64
	cli     string // the safeflow binary (paper-cli execs it; traced runs time its start-up)
	workdir string // every temp dir a workload makes lives under here
	self    string // this binary, for child processes
	nonces  atomic.Uint64
}

// rng returns the workload's random source: the seed picks every
// generated system, edit, request and nonce, and nothing else does.
func (e *env) rng() *rand.Rand { return rand.New(rand.NewSource(e.seed)) }

// nonce returns a cache-busting nonce no other operation of the run
// has used; the n-th call of a run at a seed always returns the same one.
func (e *env) nonce() uint64 { return uint64(e.seed)<<32 | e.nonces.Add(1) }

// tempDir makes a fresh directory under the work dir.
func (e *env) tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.workdir, pattern)
}

// A workload is one seeded input set and the closed loop that drives it.
type workload interface {
	// setup generates the inputs and builds the state the loop needs,
	// replacing whatever an earlier call built.
	setup() error
	// measure drives operations one after another (daemon-mixed: from
	// two clients) until the deadline.
	measure(until time.Time, rec *recorder)
	// trace re-drives the workload's operations for the per-layer
	// metrics until the deadline.
	trace(until time.Time, lr *layerRun)
	// digest hashes every generated input.
	digest() string
	// close releases what setup built: servers, sessions, temp dirs.
	close()
}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "paper-cli":
		return &paperCLI{env: e}, nil
	case "scale-130tu":
		return &scale{env: e}, nil
	case "incr-edit":
		return &incrEdit{env: e}, nil
	case "daemon-mixed":
		return &daemonMixed{env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// recorder collects one run's operation outcomes. A failed operation
// (an error, a non-200 response or a wrong verdict) is counted and its
// latency dropped.
type recorder struct {
	mu        sync.Mutex
	cold      []float64 // ms
	warm      []float64 // ms
	attempted int
	failed    int
	errs      []string
	// excluded is run time spent outside any operation (incr-edit opening
	// its next session), left out of ops_per_s.
	excluded time.Duration
	// childKB is the largest peak RSS of a child process an operation ran.
	childKB int64
}

// child records the peak RSS of a child process an operation ran.
func (r *recorder) child(ps *os.ProcessState) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.childKB = max(r.childKB, ru.Maxrss)
}

func (r *recorder) exclude(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.excluded += d
}

func (r *recorder) add(cold bool, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
		return
	}
	v := float64(d.Nanoseconds()) / 1e6
	if cold {
		r.cold = append(r.cold, v)
	} else {
		r.warm = append(r.warm, v)
	}
}

// timedRun sets the workload up setupReps times, then measures it.
func timedRun(w workload, name string, seconds int) (*runRecord, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	runtime.GC()

	rec := &recorder{}
	start := time.Now()
	w.measure(start.Add(time.Duration(seconds)*time.Second), rec)
	elapsed := (time.Since(start) - rec.excluded).Seconds()
	for _, e := range rec.errs {
		fmt.Fprintf(os.Stderr, "sfbench5: %s: %s\n", name, e)
	}

	done := float64(rec.attempted - rec.failed)
	return &runRecord{
		Workload:  name,
		Seconds:   seconds,
		Correct:   rec.failed == 0 && rec.attempted > 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics: map[string]metricRecord{
			"setup_s":     distribution(setups, 50, "s"),
			"cold_p50_ms": distribution(rec.cold, 50, "ms"),
			"cold_p90_ms": distribution(rec.cold, 90, "ms"),
			"warm_p50_ms": distribution(rec.warm, 50, "ms"),
			"warm_p90_ms": distribution(rec.warm, 90, "ms"),
			"ops_per_s":   {Value: done / elapsed, Unit: "1/s", Samples: int(done)},
			"peak_rss_mb": {Value: peakRSSMB() + float64(rec.childKB)/1024, Unit: "MB"},
		},
	}, nil
}

// tracedRun sets the workload up once and re-drives it through the
// layers.
func tracedRun(w workload, name string, seconds int, e *env, spansPath string) (*runRecord, error) {
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	defer w.close()
	runtime.GC()
	lr := newLayerRun()
	w.trace(time.Now().Add(time.Duration(seconds)*time.Second), lr)
	lr.cliExec(e.cli)
	for _, err := range lr.errs {
		fmt.Fprintf(os.Stderr, "sfbench5: %s: %s\n", name, err)
	}
	if spansPath != "" {
		if err := lr.writeSpans(spansPath, name, e.seed); err != nil {
			return nil, err
		}
	}
	return &runRecord{
		Workload:  name,
		Seconds:   seconds,
		Trace:     true,
		Correct:   lr.failed == 0 && lr.attempted > 0,
		Attempted: lr.attempted,
		Failed:    lr.failed,
		Metrics:   lr.metrics(),
	}, nil
}

// peakRSSMB is the process's peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// removeAll deletes a temp dir a workload made; a leftover dir under the
// work dir is harmless, so failures only warn.
func removeAll(dir string) {
	if dir == "" {
		return
	}
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "sfbench5: removing %s: %v\n", filepath.Base(dir), err)
	}
}
