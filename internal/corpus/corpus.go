// Package corpus embeds the three prototype control systems of the
// paper's evaluation (Table 1) — the inverted-pendulum (IP) Simplex
// controller, the generic Simplex implementation, and the double
// inverted-pendulum controller — reimplemented in SafeFlow's C subset
// with the same seeded defects the paper reports finding:
//
//   - in every system, a kill() whose pid argument comes from an
//     unmonitored non-core shared-memory read (one real error each);
//   - in the generic Simplex, the feedback-rigging defect: the core
//     writes sensor feedback to shared memory and later reads it back
//     into the safety computation (a second real error);
//   - in the double IP, an unmonitored tuning value assumed not to reach
//     critical data but that propagates into the control output (a second
//     real error);
//   - plus the control-dependence flows (mode/ready/config gating) that
//     the paper's manual inspection classified as false positives.
package corpus

import (
	"context"
	"embed"
	"fmt"
	"io/fs"
	"strings"

	"safeflow/internal/core"
	"safeflow/internal/cpp"
)

//go:embed src
var srcFS embed.FS

// Expectation records the Table 1 row the system must reproduce.
type Expectation struct {
	Errors         int // real error dependencies (data-flow)
	Warnings       int // unmonitored non-core accesses
	FalsePositives int // control-dependence-only reports
	AnnotLines     int // SafeFlow annotation lines
	// Paper columns, for the EXPERIMENTS.md comparison.
	PaperLOCTotal int
	PaperLOCCore  int
}

// System is one corpus system.
type System struct {
	Name     string
	Dir      string
	CFiles   []string
	Expected Expectation
}

// IP returns the inverted-pendulum Simplex controller.
func IP() System {
	return System{
		Name:   "IP",
		Dir:    "src/ip",
		CFiles: []string{"init.c", "estimator.c", "control.c", "main.c"},
		Expected: Expectation{
			Errors: 1, Warnings: 7, FalsePositives: 2, AnnotLines: 11,
			PaperLOCTotal: 7079, PaperLOCCore: 820,
		},
	}
}

// GenericSimplex returns the generic (configurable-plant) Simplex system.
func GenericSimplex() System {
	return System{
		Name:   "Generic Simplex",
		Dir:    "src/gsx",
		CFiles: []string{"init.c", "plantlib.c", "channels.c", "main.c"},
		Expected: Expectation{
			Errors: 2, Warnings: 7, FalsePositives: 6, AnnotLines: 22,
			PaperLOCTotal: 8057, PaperLOCCore: 1020,
		},
	}
}

// DoubleIP returns the double inverted-pendulum controller.
func DoubleIP() System {
	return System{
		Name:   "Double IP",
		Dir:    "src/dip",
		CFiles: []string{"init.c", "estimator.c", "control.c", "main.c"},
		Expected: Expectation{
			Errors: 2, Warnings: 8, FalsePositives: 2, AnnotLines: 23,
			PaperLOCTotal: 7188, PaperLOCCore: 929,
		},
	}
}

// All returns the three systems in the paper's Table 1 order.
func All() []System {
	return []System{IP(), GenericSimplex(), DoubleIP()}
}

// Sources returns the system's file tree as a preprocessor source.
func (s System) Sources() (cpp.Source, error) {
	m := cpp.MapSource{}
	err := fs.WalkDir(srcFS, s.Dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := srcFS.ReadFile(path)
		if err != nil {
			return err
		}
		m[strings.TrimPrefix(path, s.Dir+"/")] = string(data)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("corpus: load %s: %w", s.Name, err)
	}
	return m, nil
}

// SourceMap returns the system's file tree as a plain map — the form the
// public batch API (safeflow.AnalyzeAll) takes.
func (s System) SourceMap() (map[string]string, error) {
	src, err := s.Sources()
	if err != nil {
		return nil, err
	}
	return src.(cpp.MapSource), nil
}

// Analyze runs the full SafeFlow pipeline on the system.
func (s System) Analyze(opts core.Options) (*core.Report, error) {
	return s.AnalyzeContext(context.Background(), opts)
}

// AnalyzeContext is Analyze with deadline/cancellation support.
func (s System) AnalyzeContext(ctx context.Context, opts core.Options) (*core.Report, error) {
	src, err := s.Sources()
	if err != nil {
		return nil, err
	}
	return core.AnalyzeSources(ctx, s.Name, src, s.CFiles, opts)
}
