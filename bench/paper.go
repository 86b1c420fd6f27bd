package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"safeflow/internal/corpus"
	"safeflow/pkg/safeflow"
)

// paperCLI runs the safeflow CLI on the three Table 1 systems, one
// process at a time, alternating a fresh empty cache dir (cold) with the
// same dir again (disk-warm): what a CI job pays on every run.
type paperCLI struct {
	*env
	root    string
	systems []paperSystem
}

type paperSystem struct {
	system
	dir string
	ref []byte // library-rendered JSON report, the CLI's expected stdout
}

func (p *paperCLI) setup() error {
	p.close()
	root, err := p.tempDir("paper-cli-")
	if err != nil {
		return err
	}
	p.root = root
	for i, cs := range corpus.All() {
		src, err := cs.SourceMap()
		if err != nil {
			return err
		}
		dir := filepath.Join(root, fmt.Sprintf("sys%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		s := paperSystem{system: system{name: cs.Name, sources: src}, dir: dir}
		for name, text := range src {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
				return err
			}
			if strings.HasSuffix(name, ".c") {
				s.cFiles = append(s.cFiles, name)
			}
		}
		sort.Strings(s.cFiles) // the order the CLI reads a directory in
		cold := s.withNonce(p.nonce())
		rep, err := safeflow.Analyze(cold.name, cold.sources, cold.cFiles, safeflow.Options{Recover: true})
		if err != nil {
			return err
		}
		e := cs.Expected
		if len(rep.ErrorsData) != e.Errors || len(rep.Warnings) != e.Warnings ||
			len(rep.ErrorsControlOnly) != e.FalsePositives || rep.AnnotationLines != e.AnnotLines {
			return fmt.Errorf("%s: report differs from Table 1 (errors %d/%d, warnings %d/%d, control-only %d/%d, annotations %d/%d)",
				cs.Name, len(rep.ErrorsData), e.Errors, len(rep.Warnings), e.Warnings,
				len(rep.ErrorsControlOnly), e.FalsePositives, rep.AnnotationLines, e.AnnotLines)
		}
		s.ref = renderJSON(rep)
		p.systems = append(p.systems, s)
	}
	return nil
}

// each runs op on every system in a seeded order, first with a fresh
// cache dir and then with the same dir again, until the deadline.
func (p *paperCLI) each(until time.Time, op func(s paperSystem, cache string, cold bool)) {
	r := p.rng()
	for time.Now().Before(until) {
		for _, i := range r.Perm(len(p.systems)) {
			cache, err := os.MkdirTemp(p.root, "cache-")
			if err != nil {
				fmt.Fprintln(os.Stderr, "sfbench5: paper-cli:", err)
				return
			}
			op(p.systems[i], cache, true)
			op(p.systems[i], cache, false)
			removeAll(cache)
		}
	}
}

func (p *paperCLI) measure(until time.Time, rec *recorder) {
	p.each(until, func(s paperSystem, cache string, cold bool) {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(p.cli, "-format=json", "-name", s.name, "-cachedir", cache, s.dir)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		t0 := time.Now()
		err := cmd.Run()
		d := time.Since(t0)
		if cmd.ProcessState != nil {
			rec.child(cmd.ProcessState)
		}
		rec.add(cold, d, checkExit(s, err, stdout.Bytes(), stderr.String()))
	})
}

// checkExit checks one CLI-shaped run: exit 1 (findings) and the
// reference report on stdout.
func checkExit(s paperSystem, err error, stdout []byte, stderr string) error {
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		return fmt.Errorf("%s: want exit 1 (findings), got %v: %s", s.name, err, stderr)
	}
	return sameBytes(s.name, stdout, s.ref)
}

func (p *paperCLI) trace(until time.Time, lr *layerRun) {
	half := time.Now().Add(time.Until(until) / 2)
	for i := 0; time.Now().Before(half); i++ {
		s := p.systems[i%len(p.systems)]
		lr.layerOp(s.withNonce(p.nonce()), s.ref)
	}
	// The tier pass replays each operation in a child process of this
	// binary, so the process-global caches start empty as they do for
	// the CLI, with the disk tier timed.
	p.each(until, func(s paperSystem, cache string, cold bool) {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(p.self, "-replay-dir", s.dir, "-replay-name", s.name, "-replay-cache", cache)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		t0 := time.Now()
		err := cmd.Run()
		d := time.Since(t0)
		if !lr.check(checkExit(s, err, stdout.Bytes(), stderr.String())) {
			return
		}
		var st replayStats
		if !lr.check(json.Unmarshal(stderr.Bytes(), &st)) {
			return
		}
		lr.tier.addRun(d, &st.Metrics)
		lr.tier.addDisk(st.Disk, 1)
		lr.tier.addMem(st.Mem, 1)
	})
}

// replayStats is what a replay child reports on stderr.
type replayStats struct {
	Metrics safeflow.RunMetrics `json:"metrics"`
	Disk    diskCounters        `json:"disk"`
	Mem     memCounters         `json:"mem"`
}

// runReplay is the child side of the paper-cli tier pass: the CLI's
// analysis of one directory, with run metrics on and the disk tier
// timed. It prints the report on stdout and its counters on stderr, and
// exits as the CLI does.
func runReplay(dir, name, cacheDir string) int {
	store, err := safeflow.OpenDiskCache(cacheDir, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	tc := &timedCache{next: store}
	rep, err := safeflow.AnalyzeDir(name, dir, safeflow.Options{Recover: true, Stats: true, DiskCache: tc})
	if err != nil || rep.Metrics == nil {
		fmt.Fprintln(os.Stderr, "analysis failed:", err)
		return 2
	}
	st := replayStats{Metrics: *rep.Metrics, Disk: tc.counters()}
	rep.Metrics = nil
	if err := safeflow.WriteReportJSON(os.Stdout, rep); err != nil {
		return 2
	}
	st.Mem = readMem()
	if err := json.NewEncoder(os.Stderr).Encode(st); err != nil {
		return 2
	}
	if rep.Clean() {
		return 0
	}
	return 1
}

// digest covers the systems and the seeded order they run in.
func (p *paperCLI) digest() string {
	systems := make([]system, len(p.systems))
	for i, s := range p.systems {
		systems[i] = s.system
	}
	r := p.rng()
	var order []string
	for i := 0; i < 64; i++ {
		order = append(order, fmt.Sprint(r.Perm(len(p.systems))))
	}
	return digestSystems(systems, order...)
}

func (p *paperCLI) close() {
	removeAll(p.root)
	p.root, p.systems = "", nil
}
