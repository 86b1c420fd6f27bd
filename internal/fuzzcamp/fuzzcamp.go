// Package fuzzcamp is the coverage-guided mutation fuzzing campaign
// over the whole SafeFlow analyzer. It grows the one-shot seeded
// generator (internal/corpus) and fault-injection harness
// (internal/faultinject) into a syzkaller-style loop: a persistent
// corpus of generated C systems is evolved by splice/mutate operators
// over annotations, shared-memory shapes, call structure, and raw
// source text; mutants are prioritized by cheap coverage signals the
// analyzer already exports (internal/metrics phase counters plus report
// shape), and every execution checks the standing correctness oracles:
//
//   - worker-count byte determinism of the rendered reports,
//   - dynamic taint ⊆ static errors (via internal/interp's tracker),
//   - degraded-verdict soundness under internal/faultinject faults,
//   - no internal panic, incremental equivalence of session updates,
//   - cache temperature: runs that fill and hit the campaign's Cache,
//     and a mutated sibling run through it, render as cold runs do.
//
// An input that violates an oracle is delta-minimized and written to a
// crasher directory (testdata/crashers in this repository), where
// TestCrasherRegressions replays it forever after.
//
// Everything in the package is deterministic given a campaign seed:
// the same seed and execution count reproduce the same corpus
// evolution, coverage counters, and crashers, at any GOMAXPROCS.
package fuzzcamp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"safeflow/internal/corpus"
)

// Input is one fuzzing input: a complete multi-file C system in the
// form the analysis pipeline takes.
type Input struct {
	Name    string            `json:"name"`
	Sources map[string]string `json:"sources"`
	CFiles  []string          `json:"cfiles"`
}

// Clone deep-copies the input so mutators can edit freely.
func (in Input) Clone() Input {
	out := Input{Name: in.Name, Sources: make(map[string]string, len(in.Sources))}
	for k, v := range in.Sources {
		out.Sources[k] = v
	}
	out.CFiles = append([]string(nil), in.CFiles...)
	return out
}

// Files returns the input's file names sorted, so every iteration over
// the source map in the engine is deterministic.
func (in Input) Files() []string {
	names := make([]string, 0, len(in.Sources))
	for name := range in.Sources {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Hash is the input's content fingerprint: a deterministic digest over
// the sorted file set, the file contents, and the compile list. The
// corpus store keys entries on it, so two byte-identical systems are
// one corpus entry regardless of how they were produced.
func (in Input) Hash() string {
	h := sha256.New()
	for _, name := range in.Files() {
		fmt.Fprintf(h, "%d:%s;%d:", len(name), name, len(in.Sources[name]))
		h.Write([]byte(in.Sources[name]))
	}
	fmt.Fprintf(h, "|%s", strings.Join(in.CFiles, ","))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// ShortHash is the 12-hex-digit prefix used in file and crasher names.
func (in Input) ShortHash() string { return in.Hash()[:12] }

// hashSeed derives a deterministic int64 (for seeding per-input
// injectors) from the content hash.
func (in Input) hashSeed() int64 {
	sum := sha256.Sum256([]byte(in.Hash()))
	return int64(binary.LittleEndian.Uint64(sum[:8]) &^ (1 << 63))
}

// FromGenerated adapts a corpus-generator system.
func FromGenerated(g corpus.Generated) Input {
	return Input{Name: g.Name, Sources: g.Sources, CFiles: g.CFiles}
}

// SeedInputs builds the campaign's deterministic seed set: n systems
// from the seeded corpus generator, with shapes cycling through small
// configurations so the initial coverage frontier is already diverse.
// The native Go fuzz targets (FuzzCompile, FuzzParseRecovery,
// FuzzAnnotationParse) seed from the same set, so `go test -fuzz` and
// sffuzz explore from a shared frontier.
func SeedInputs(seed int64, n int) []Input {
	if n <= 0 {
		n = 8
	}
	shapes := []corpus.GenConfig{
		{},
		{Regions: 1, Monitors: 1, Stages: 1, Depth: 1},
		{Regions: 3, Monitors: 2, Stages: 4, Depth: 2},
		{Regions: 2, Monitors: 4, Stages: 2, Depth: 3},
	}
	inputs := make([]Input, 0, n)
	for i := 0; i < n; i++ {
		g := corpus.Generate(seed+int64(i), shapes[i%len(shapes)])
		in := FromGenerated(g)
		in.Name = fmt.Sprintf("seed-%d", seed+int64(i))
		inputs = append(inputs, in)
	}
	return inputs
}

// AnnotationBodies extracts every SafeFlow annotation body from the
// input's sources (the text between the annotation marker and the
// closing comment), for seeding the annotation-parser fuzz target.
func AnnotationBodies(in Input) []string {
	var bodies []string
	for _, name := range in.Files() {
		for _, line := range strings.Split(in.Sources[name], "\n") {
			i := strings.Index(line, "SafeFlow Annotation")
			if i < 0 {
				continue
			}
			body := line[i+len("SafeFlow Annotation"):]
			if j := strings.Index(body, "/***"); j >= 0 {
				body = body[:j]
			}
			body = strings.TrimSpace(body)
			if body != "" {
				bodies = append(bodies, body)
			}
		}
	}
	return bodies
}
