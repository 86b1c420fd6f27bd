// Disk-cache corruption injector: the persistent-store counterpart of
// the source-level fault classes. A fault here is the concrete failure
// an on-disk cache actually suffers — flipped payload bytes from a bad
// sector or a torn write that the atomic-rename discipline cannot rule
// out once the file is at rest — planted directly into a live store
// between two runs of the same analysis. The invariant under test is
// the self-healing cache contract (DESIGN.md §7): corrupted entries are
// evicted and recomputed, surfaced as cache_corrupt_evictions, and the
// report bytes never change.

package faultinject

import (
	"context"
	"fmt"
	"strings"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	"safeflow/internal/diskcache"
	"safeflow/internal/frontend"
	"safeflow/internal/report"
	"safeflow/internal/vfg"
)

// DiskScenario is one seeded disk-corruption run over a generated
// system: analyze cold through a disk store, damage entries, then
// re-analyze from the damaged store alone.
type DiskScenario struct {
	Seed    int64            // drives the system generator
	Gen     corpus.GenConfig // generated-system shape (zero = defaults)
	Parse   int              // parse-namespace entries to corrupt (clamped)
	Workers int              // pipeline worker count (0 = GOMAXPROCS)
}

// DiskResult is one disk-corruption scenario's outcome.
type DiskResult struct {
	System     *corpus.Generated
	Corrupted  int          // entries actually damaged
	Cold       *core.Report // the pristine first run
	Healed     *core.Report // the run that hit the damaged store
	ColdJSON   string
	HealedJSON string
}

// RunDisk generates the scenario's system, analyzes it cold through
// store, corrupts the requested number of entries per namespace, resets
// the in-memory cache tiers (simulating a process restart, so the next
// run can only start from disk), and re-analyzes. The JSON strings are
// rendered with metrics canonicalized so callers can compare bytes
// directly; the live counters — including the healed run's
// cache_corrupt_evictions — stay intact on Cold.Metrics and
// Healed.Metrics.
func RunDisk(ctx context.Context, sc DiskScenario, store *diskcache.Store) (*DiskResult, error) {
	gen := corpus.Generate(sc.Seed, sc.Gen)
	opts := core.Options{
		Recover:   true,
		Workers:   sc.Workers,
		Stats:     true,
		DiskCache: store,
	}

	frontend.ResetParseCache()
	vfg.ResetStateStore()
	cold, err := core.AnalyzeSources(ctx, gen.Name, cpp.MapSource(gen.Sources), gen.CFiles, opts)
	if err != nil {
		return nil, fmt.Errorf("cold run: %w", err)
	}
	if store.Len("parse") == 0 {
		return nil, fmt.Errorf("cold run left no parse entries in the store")
	}

	corrupted := store.Corrupt("parse", sc.Parse)

	// "Restart": only the (damaged) disk tier survives.
	frontend.ResetParseCache()
	vfg.ResetStateStore()
	healed, err := core.AnalyzeSources(ctx, gen.Name, cpp.MapSource(gen.Sources), gen.CFiles, opts)
	if err != nil {
		return nil, fmt.Errorf("healed run: %w", err)
	}

	res := &DiskResult{System: &gen, Corrupted: corrupted, Cold: cold, Healed: healed}
	if res.ColdJSON, err = canonicalJSON(cold); err != nil {
		return nil, err
	}
	if res.HealedJSON, err = canonicalJSON(healed); err != nil {
		return nil, err
	}
	return res, nil
}

// canonicalJSON renders a report with execution-dependent metrics
// zeroed, without mutating the caller's snapshot.
func canonicalJSON(rep *core.Report) (string, error) {
	r := *rep
	if r.Metrics != nil {
		m := *r.Metrics
		m.Canonicalize()
		r.Metrics = &m
	}
	var js strings.Builder
	if err := report.WriteJSON(&js, &r); err != nil {
		return "", err
	}
	return js.String(), nil
}
