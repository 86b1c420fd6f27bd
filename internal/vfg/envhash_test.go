package vfg_test

import (
	"context"
	"testing"

	"safeflow/internal/callgraph"
	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	"safeflow/internal/frontend"
	"safeflow/internal/pointsto"
	"safeflow/internal/shmflow"
	"safeflow/internal/vfg"
)

// fingerprintsOf compiles a system and fingerprints its functions.
func fingerprintsOf(t *testing.T, sources map[string]string, cFiles []string) map[string]vfg.Fingerprint {
	t.Helper()
	res, err := frontend.Compile(context.Background(), "fp", cpp.MapSource(sources), cFiles, frontend.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := vfg.Config{Module: res.Module, AssertVars: res.AssertVars}
	cfg.CG = callgraph.New(res.Module)
	cfg.SF = shmflow.Analyze(res.Module, cfg.CG)
	cfg.PTS = pointsto.Analyze(res.Module, pointsto.ModeSubset)
	return vfg.Fingerprints(&cfg)
}

// Environment hashes name points-to objects, never by object id, and
// read each set unordered: two compiles of one system fingerprint every
// function identically.
func TestEnvHashStableAcrossCompiles(t *testing.T) {
	g := corpus.Split(corpus.Generate(1, corpus.MaxShape))
	first := fingerprintsOf(t, g.Sources, g.CFiles)
	second := fingerprintsOf(t, g.Sources, g.CFiles)
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("%d and %d functions fingerprinted", len(first), len(second))
	}
	for name, fp := range first {
		if second[name] != fp {
			t.Errorf("%s: fingerprint %+v, then %+v", name, fp, second[name])
		}
	}
}

// A function whose body is unchanged but whose load reads through a
// pointer that may now reference one more object changes its
// environment hash, and only that.
func TestEnvHashSeesPointsToChange(t *testing.T) {
	const base = `
double a;
double b;
double *p;

double reader(void)
{
    return *p;
}

void pointA(void)
{
    p = &a;
}
`
	const pointB = `
void pointB(void)
{
    p = &b;
}
`
	before := fingerprintsOf(t, map[string]string{"main.c": base}, []string{"main.c"})
	after := fingerprintsOf(t, map[string]string{"main.c": base + pointB}, []string{"main.c"})
	was, now := before["reader"], after["reader"]
	if was.Body != now.Body {
		t.Fatalf("reader's body hash changed; the test edits only another function")
	}
	if was.Env == now.Env {
		t.Errorf("reader's environment hash did not change when *p gained a target")
	}
	if before["pointA"] != after["pointA"] {
		t.Errorf("pointA's fingerprint changed though nothing it reads did")
	}
}
