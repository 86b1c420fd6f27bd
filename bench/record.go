package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// schemaVersion is the version of the run and set records written by
// -out and read by -compare.
const schemaVersion = 5

// metric is one named measurement as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricRecord is a metric with the distribution it was read from: the
// sample count and the 10th and 90th percentiles of the samples.
type metricRecord struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	P10     float64 `json:"p10,omitempty"`
	P90     float64 `json:"p90,omitempty"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one run of one workload, as -out writes it.
type runRecord struct {
	Workload   string                  `json:"workload"`
	Seed       int64                   `json:"seed"`
	Seconds    int                     `json:"seconds"`
	Trace      bool                    `json:"trace"`
	GoVersion  string                  `json:"go_version"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	Correct    bool                    `json:"correct"`
	Attempted  int                     `json:"attempted"`
	Failed     int                     `json:"failed"`
	Metrics    map[string]metricRecord `json:"metrics"`
}

// runSet is a set of runs, the unit -compare reads.
type runSet struct {
	SchemaVersion int         `json:"schema_version"`
	Note          string      `json:"note,omitempty"`
	Runs          []runRecord `json:"runs"`
}

func (r *runRecord) result() result {
	out := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for k, m := range r.Metrics {
		out.Metrics[k] = metric{Value: m.Value, Unit: m.Unit}
	}
	return out
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readRunSet reads a run set file.
func readRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if set.SchemaVersion != schemaVersion {
		return nil, fmt.Errorf("%s: schema version %d, want %d", path, set.SchemaVersion, schemaVersion)
	}
	return &set, nil
}

// percentile reads p (0..100) from the samples by linear interpolation
// between closest ranks. It sorts xs in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method), so spreads read the same from either tool.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	n, m := 4, len(d)+1
	q := make([]float64, 3)
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(d)-1))
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return q[0], q[1], q[2]
}

// distribution reads percentile p of the samples, with the sample count
// and the samples' p10 and p90.
func distribution(xs []float64, p float64, unit string) metricRecord {
	s := append([]float64(nil), xs...)
	return metricRecord{
		Value:   percentile(s, p),
		Unit:    unit,
		Samples: len(s),
		P10:     percentile(s, 10),
		P90:     percentile(s, 90),
	}
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// ratio returns a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
