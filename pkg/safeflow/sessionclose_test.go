package safeflow_test

// Close semantics at the public API: Close waits for the in-flight
// update, further updates fail with ErrSessionClosed, Last keeps
// answering from the final state, and closing twice is a no-op.

import (
	"context"
	"errors"
	"testing"

	"safeflow/internal/corpus"
	"safeflow/pkg/safeflow"
)

func TestSessionClose(t *testing.T) {
	g := corpus.Generate(41, corpus.GenConfig{Regions: 1, Monitors: 2, Stages: 3})
	sess, rep, err := safeflow.OpenContext(context.Background(), g.Name, g.Sources, g.CFiles, safeflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("nil open report")
	}

	sess.Close()
	sess.Close() // idempotent

	file := g.CFiles[0]
	if _, _, err := sess.UpdateContext(context.Background(), map[string]string{file: g.Sources[file] + "\n"}); !errors.Is(err, safeflow.ErrSessionClosed) {
		t.Fatalf("Update after Close: err = %v, want ErrSessionClosed", err)
	}

	// Last still answers from the final state.
	last, _ := sess.Last()
	if last == nil {
		t.Fatal("Last returned nil after Close")
	}
}
