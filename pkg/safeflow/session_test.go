package safeflow_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"safeflow/internal/corpus"
	"safeflow/pkg/safeflow"
)

// renderSession renders the forms whose byte-identity a session
// guarantees: the text report plus the JSON report with
// execution-dependent metrics canonicalized away.
func renderSession(t *testing.T, rep *safeflow.Report) string {
	t.Helper()
	var buf bytes.Buffer
	safeflow.WriteReport(&buf, rep)
	rep.Metrics.Canonicalize()
	if err := safeflow.WriteReportJSON(&buf, rep); err != nil {
		t.Fatalf("WriteReportJSON: %v", err)
	}
	return buf.String()
}

// TestSessionPublicLifecycle drives a seeded edit script — including
// call-graph-changing rewrites — through the exported Open/Update API
// and checks every patched report is byte-identical to Analyze of the
// same sources, and that Last/CFiles track the session state.
func TestSessionPublicLifecycle(t *testing.T) {
	g := corpus.Generate(13, corpus.GenConfig{Regions: 3, Monitors: 3, Stages: 6})
	script := corpus.GenerateEdits(g, 29, 10)
	rewrites := 0
	for _, e := range script {
		if e.Kind == corpus.EditRewrite {
			rewrites++
		}
	}
	if rewrites == 0 {
		t.Fatalf("edit script has no call-graph-changing rewrite; reseed the script")
	}

	opts := safeflow.Options{Workers: 2, Stats: true, DisableCache: true}
	sess, rep, err := safeflow.OpenContext(context.Background(), g.Name, g.Sources, g.CFiles, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if got := sess.CFiles(); len(got) != len(g.CFiles) {
		t.Fatalf("CFiles() = %v, want %v", got, g.CFiles)
	}
	cur := map[string]string{}
	for k, v := range g.Sources {
		cur[k] = v
	}
	fresh, err := safeflow.AnalyzeContext(context.Background(), g.Name, cur, g.CFiles, opts)
	if err != nil {
		t.Fatalf("fresh analyze: %v", err)
	}
	if got, want := renderSession(t, rep), renderSession(t, fresh); got != want {
		t.Fatalf("open report differs from Analyze:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	for i, e := range script {
		text, ok := e.Apply(cur)
		if !ok {
			t.Fatalf("edit %d (%s) does not anchor", i, e.Desc)
		}
		cur[e.File] = text
		rep, stats, err := sess.UpdateContext(context.Background(), map[string]string{e.File: text})
		if err != nil {
			t.Fatalf("update %d (%s): %v", i, e.Desc, err)
		}
		fresh, err := safeflow.AnalyzeContext(context.Background(), g.Name, cur, g.CFiles, opts)
		if err != nil {
			t.Fatalf("fresh analyze %d: %v", i, err)
		}
		if got, want := renderSession(t, rep), renderSession(t, fresh); got != want {
			t.Fatalf("update %d (%s): report differs from Analyze\n--- got ---\n%s\n--- want ---\n%s",
				i, e.Desc, got, want)
		}
		if !stats.Incremental {
			t.Errorf("update %d (%s): fell back to from-scratch analysis", i, e.Desc)
		}
		lastRep, lastStats := sess.Last()
		if lastRep != rep {
			t.Errorf("update %d: Last() report is not the report Update returned", i)
		}
		if lastStats != stats {
			t.Errorf("update %d: Last() stats = %+v, want %+v", i, lastStats, stats)
		}
	}
}

// TestSessionConcurrentReaders streams updates through a session while
// other goroutines hammer Last and CFiles — the documented
// safe-for-concurrent-use contract, meant to run under -race.
func TestSessionConcurrentReaders(t *testing.T) {
	g := corpus.Generate(17, corpus.GenConfig{Regions: 2, Monitors: 2, Stages: 4})
	opts := safeflow.Options{Workers: 2, DisableCache: true}
	sess, _, err := safeflow.OpenContext(context.Background(), g.Name, g.Sources, g.CFiles, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if rep, _ := sess.Last(); rep == nil {
					t.Error("Last() returned a nil report")
					return
				}
				if len(sess.CFiles()) == 0 {
					t.Error("CFiles() returned an empty unit list")
					return
				}
			}
		}()
	}

	target := g.CFiles[0]
	text := g.Sources[target]
	for i := 0; i < 6; i++ {
		text += fmt.Sprintf("\n/* concurrent update %d */\n", i)
		if _, _, err := sess.UpdateContext(context.Background(), map[string]string{target: text}); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
}
