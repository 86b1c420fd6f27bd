package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchDef is the part of BENCHMARK.json the benchmark reads.
type benchDef struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func loadDef(path string) (*benchDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// Comparison verdicts.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictMissing    = "MISSING" // an end-to-end metric the new set lacks: its run crashed
	verdictInfo       = "info"    // a per-layer metric: no bound, no verdict
)

// side is one run set's values of one metric on one workload.
type side struct {
	values    []float64
	q1, m, q3 float64
}

func newSide(values []float64) side {
	s := side{values: values}
	s.q1, s.m, s.q3 = quartiles(values)
	return s
}

// comparison is one (workload, metric) row of -compare.
type comparison struct {
	workload, metric string
	old, new         side
	// worse is the median's relative change, signed so that positive is
	// worse whichever direction the metric prefers.
	worse   float64
	verdict string
}

// judge applies the regression rule: a regression is a median worse by
// more than the bound that also lies outside the parent's interquartile
// range; when the parent's own spread is wider than the bound the change
// cannot be resolved, unless every new run beats every old one.
func judge(def *metricDef, old, new side) (worse float64, verdict string) {
	if old.m != 0 {
		worse = (new.m - old.m) / old.m
	}
	if def == nil || def.Bound == 0 {
		return worse, verdictInfo
	}
	if def.Better == "higher" {
		worse = -worse
	}
	outside := new.m < old.q1 || new.m > old.q3
	switch {
	case old.m == 0 || (old.q3-old.q1)/old.m > def.Bound:
		if allBetter(def, old.values, new.values) {
			return worse, verdictBetter
		}
		return worse, verdictUnresolved
	case worse > def.Bound && outside:
		return worse, verdictRegression
	case -worse > def.Bound && outside:
		return worse, verdictBetter
	}
	return worse, verdictOK
}

// allBetter reports whether every new value beats every old one.
func allBetter(def *metricDef, old, new []float64) bool {
	if len(old) == 0 || len(new) == 0 {
		return false
	}
	for _, o := range old {
		for _, n := range new {
			if (def.Better == "higher") != (n > o) || n == o {
				return false
			}
		}
	}
	return true
}

// compareSets compares every (workload, metric) pair the old set has. An
// end-to-end metric the new set lacks reads MISSING: a run that crashes
// writes no record. It also returns what else fails the new set: a run
// that was not correct, or a workload whose share of failed operations
// rose.
func compareSets(def *benchDef, old, new *runSet) ([]comparison, []string) {
	defs := map[string]*metricDef{}
	for i := range def.EndToEnd {
		defs[def.EndToEnd[i].Name] = &def.EndToEnd[i]
	}
	type key struct{ workload, metric string }
	collect := func(set *runSet) (map[key][]float64, map[string][2]int) {
		vals, fails := map[key][]float64{}, map[string][2]int{}
		for _, r := range set.Runs {
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				vals[k] = append(vals[k], m.Value)
			}
			f := fails[r.Workload]
			fails[r.Workload] = [2]int{f[0] + r.Failed, f[1] + r.Attempted}
		}
		return vals, fails
	}
	oldVals, oldFails := collect(old)
	newVals, newFails := collect(new)

	var rows []comparison
	for k, ov := range oldVals {
		c := comparison{workload: k.workload, metric: k.metric, old: newSide(ov)}
		nv, ok := newVals[k]
		switch {
		case ok:
			c.new = newSide(nv)
			c.worse, c.verdict = judge(defs[k.metric], c.old, c.new)
		case defs[k.metric] != nil:
			c.verdict = verdictMissing
		default:
			continue
		}
		rows = append(rows, c)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].workload != rows[j].workload {
			return rows[i].workload < rows[j].workload
		}
		return rows[i].metric < rows[j].metric
	})

	var failures []string
	for i, r := range new.Runs {
		if !r.Correct {
			failures = append(failures, fmt.Sprintf("%s: run %d of the new set was not correct", r.Workload, i+1))
		}
	}
	for w, nf := range newFails {
		of := oldFails[w]
		if ratio(float64(nf[0]), float64(nf[1])) > ratio(float64(of[0]), float64(of[1])) {
			failures = append(failures, w+": the share of failed operations rose")
		}
	}
	sort.Strings(failures)
	return rows, failures
}

// runCompare prints the comparison and exits 1 on any regression, any
// missing end-to-end metric, any run that was not correct, or any rise in
// the share of failed operations.
func runCompare(def *benchDef, oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readRunSet(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "sfbench5:", err)
		return 2
	}
	new, err := readRunSet(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "sfbench5:", err)
		return 2
	}
	rows, failures := compareSets(def, old, new)
	fmt.Fprintf(stdout, "%-13s %-26s %32s %32s %8s  %s\n", "workload", "metric",
		"old median [q1, q3]", "new median [q1, q3]", "worse", "verdict")
	status := 0
	for _, c := range rows {
		newCol := "missing"
		if c.verdict != verdictMissing {
			newCol = fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", c.new.m, c.new.q1, c.new.q3, len(c.new.values))
		}
		fmt.Fprintf(stdout, "%-13s %-26s %32s %32s %+7.1f%%  %s\n", c.workload, c.metric,
			fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", c.old.m, c.old.q1, c.old.q3, len(c.old.values)),
			newCol, 100*c.worse, c.verdict)
		if c.verdict == verdictRegression || c.verdict == verdictMissing {
			status = 1
		}
	}
	for _, f := range failures {
		fmt.Fprintln(stdout, f)
		status = 1
	}
	return status
}
