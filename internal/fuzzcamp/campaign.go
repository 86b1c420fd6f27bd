// The campaign loop: seed, choose, mutate, execute, triage. One
// sequential loop — the analyzer itself parallelizes inside an
// execution, and a sequential scheduler is what makes the whole
// campaign a pure function of (seed, executions), which the
// determinism acceptance test pins.

package fuzzcamp

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"safeflow/internal/core"
)

// Config shapes one campaign.
type Config struct {
	// Seed drives every random choice in the campaign (default 1).
	Seed int64
	// CorpusDir persists the evolving corpus across campaigns
	// ("" = memory only).
	CorpusDir string
	// CrasherDir receives minimized oracle-violating inputs
	// ("" = crashers are only counted, not persisted).
	CrasherDir string
	// Budget bounds wall-clock time (0 = unbounded). Wall-clock cutoffs
	// are inherently timing-dependent; use MaxExecs for bit-exact
	// reproducibility.
	Budget time.Duration
	// MaxExecs bounds the number of mutant executions (0 = unbounded;
	// at least one of Budget/MaxExecs must bound the run).
	MaxExecs int
	// SeedCount is the number of generator-derived seed inputs
	// (default 8). Extra seed systems (e.g. the embedded Table 1
	// corpus) can be appended via ExtraSeeds.
	SeedCount  int
	ExtraSeeds []Input
	// MinimizeBudget bounds executions spent shrinking one crasher
	// (default 300).
	MinimizeBudget int
	// MaxCrashers stops the campaign once this many distinct crashers
	// have been triaged (0 = keep going to the budget).
	MaxCrashers int
	// Exec configures the executor (worker counts, interpreter step
	// budget, canary plant).
	Exec Executor
	// Log, when non-nil, receives one-line progress events.
	Log io.Writer
}

// Stats is one campaign's summary. For a given (Seed, MaxExecs) pair
// every field is deterministic.
type Stats struct {
	Execs      int           `json:"execs"`        // mutant executions (seed executions excluded)
	SeedInputs int           `json:"seed_inputs"`  // inputs the queue started from
	CorpusSize int           `json:"corpus_size"`  // live corpus entries at exit
	Signatures int           `json:"signatures"`   // distinct coverage signatures reached
	NewCov     int           `json:"new_coverage"` // mutants that reached a new signature
	Crashers   int           `json:"crashers"`     // oracle violations found (after dedup)
	CrasherIDs []string      `json:"crasher_ids,omitempty"`
	Elapsed    time.Duration `json:"elapsed"` // wall clock (not deterministic)
}

// Run executes one campaign to its budget and returns its stats. Bugs
// found are persisted to Config.CrasherDir; the campaign itself only
// fails on environmental errors (I/O, cancellation).
func Run(ctx context.Context, cfg Config) (*Stats, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Budget <= 0 && cfg.MaxExecs <= 0 {
		return nil, fmt.Errorf("fuzzcamp: campaign needs a -budget or -execs bound")
	}
	start := time.Now()
	deadline := time.Time{}
	if cfg.Budget > 0 {
		deadline = start.Add(cfg.Budget)
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}

	if cfg.Exec.Cache == nil {
		// One Cache for the campaign: the cache-temperature oracle sees
		// every input after every earlier one.
		cfg.Exec.Cache = core.NewCache()
	}
	store, err := OpenCorpus(cfg.CorpusDir)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	queue := NewQueue(r)
	mut := NewMutator(r)
	cov := NewCoverage()
	stats := &Stats{}

	// Seed the queue: persisted corpus first (hash-sorted), then the
	// generator seeds, then any extra systems. Every seed is executed
	// once so the coverage frontier and the crash oracles see it.
	persisted, err := store.Load()
	if err != nil {
		return nil, err
	}
	seeds := persisted
	seeds = append(seeds, SeedInputs(cfg.Seed, cfg.SeedCount)...)
	seeds = append(seeds, cfg.ExtraSeeds...)
	crasherSeen := map[string]bool{}
	for _, in := range seeds {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		res, err := cfg.Exec.Execute(ctx, in)
		if err != nil {
			return nil, err
		}
		stats.SeedInputs++
		if cov.Add(res.Sig) {
			queue.Add(in)
			if err := store.Save(in); err != nil {
				return nil, err
			}
		}
		if res.Violation != nil {
			if err := triage(ctx, cfg, in, res.Violation, stats, crasherSeen, logf); err != nil {
				return nil, err
			}
			if cfg.MaxCrashers > 0 && stats.Crashers >= cfg.MaxCrashers {
				break
			}
		}
	}
	logf("seeded: %d inputs, %d signatures, corpus %d", stats.SeedInputs, cov.Len(), queue.Len())

	// The mutation loop.
	for {
		if ctx.Err() != nil {
			break
		}
		if cfg.MaxExecs > 0 && stats.Execs >= cfg.MaxExecs {
			break
		}
		if cfg.MaxCrashers > 0 && stats.Crashers >= cfg.MaxCrashers {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		base := queue.Choose()
		if base.Sources == nil {
			break // every seed was rejected outright; nothing to mutate
		}
		splice, _ := queue.Splice()
		mutant := mut.Mutate(base, splice)
		res, err := cfg.Exec.Execute(ctx, mutant)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			return nil, err
		}
		stats.Execs++
		if cov.Add(res.Sig) {
			stats.NewCov++
			queue.Add(mutant)
			if err := store.Save(mutant); err != nil {
				return nil, err
			}
			logf("exec %d: new signature %q (corpus %d)", stats.Execs, res.Sig, queue.Len())
		}
		if res.Violation != nil {
			if err := triage(ctx, cfg, mutant, res.Violation, stats, crasherSeen, logf); err != nil {
				return nil, err
			}
			if cfg.MaxCrashers > 0 && stats.Crashers >= cfg.MaxCrashers {
				break
			}
		}
	}

	stats.CorpusSize = queue.Len()
	stats.Signatures = cov.Len()
	stats.Elapsed = time.Since(start)
	return stats, nil
}

// triage minimizes a violating input, deduplicates it against crashers
// already found this campaign, and persists it.
func triage(ctx context.Context, cfg Config, in Input, v *Violation, stats *Stats,
	seen map[string]bool, logf func(string, ...any)) error {
	small := Minimize(ctx, in, v.Oracle, cfg.MinimizeBudget,
		func(ctx context.Context, cand Input) (*Violation, error) {
			res, err := cfg.Exec.Execute(ctx, cand)
			if err != nil {
				return nil, err
			}
			return res.Violation, nil
		})
	c := Crasher{Input: small, Oracle: v.Oracle, Detail: v.Detail, CampaignSeed: cfg.Seed}
	c.Name = fmt.Sprintf("crasher-%s", c.ShortHash())
	if seen[c.Dir()] {
		return nil
	}
	seen[c.Dir()] = true
	stats.Crashers++
	stats.CrasherIDs = append(stats.CrasherIDs, c.Dir())
	logf("CRASHER %s: %s", c.Dir(), v)
	if cfg.CrasherDir == "" {
		return nil
	}
	path, err := WriteCrasher(cfg.CrasherDir, c)
	if err != nil {
		return err
	}
	logf("  minimized input written to %s", path)
	return nil
}

// Replay re-executes one crasher under an honest executor and returns
// the violation if it still reproduces (nil = fixed / holding). The
// regression test and the CLI -replay path share this.
func Replay(ctx context.Context, c Crasher, exec Executor) (*Violation, error) {
	res, err := exec.Execute(ctx, c.Input)
	if err != nil {
		return nil, err
	}
	return res.Violation, nil
}
