package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"

	"safeflow/internal/corpus"
	"safeflow/pkg/safeflow"
)

// system is one analyzable source tree.
type system struct {
	name    string
	sources map[string]string
	cFiles  []string
}

// scaleConfig is the largest shape the generator builds: split one
// function per unit it gives init.c, 64 monitor units, 64 stage units
// and main.c, 130 translation units in all.
var scaleConfig = corpus.GenConfig{Regions: 64, Monitors: 64, Stages: 64, Depth: 6}

// split moves every monitor and stage function of a generated system
// into a translation unit of its own (monitor000.c holds monitor0,
// stage000.c holds stage0, and so on).
func split(g corpus.Generated) system {
	sys := system{
		name: g.Name,
		sources: map[string]string{
			"gen.h":  g.Sources["gen.h"],
			"init.c": g.Sources["init.c"],
			"main.c": g.Sources["main.c"],
		},
		cFiles: []string{"init.c"},
	}
	for _, file := range []string{"monitors.c", "stages.c"} {
		prefix := strings.TrimSuffix(file, "s.c")
		body := strings.TrimPrefix(g.Sources[file], "#include \"gen.h\"\n")
		// Top-level closers sit in column zero, so "\n}\n" splits exactly
		// at function boundaries.
		n := 0
		for _, chunk := range strings.SplitAfter(body, "\n}\n") {
			if strings.TrimSpace(chunk) == "" {
				continue
			}
			unit := fmt.Sprintf("%s%03d.c", prefix, n)
			n++
			sys.sources[unit] = "#include \"gen.h\"\n" + chunk
			sys.cFiles = append(sys.cFiles, unit)
		}
	}
	sys.cFiles = append(sys.cFiles, "main.c")
	return sys
}

// generated wraps one unsplit generator output.
func generated(g corpus.Generated) system {
	return system{name: g.Name, sources: g.Sources, cFiles: g.CFiles}
}

// withNonce returns the system with a comment carrying n appended to the
// last line of every translation unit. Every cache key the pipeline
// derives from source text changes, so no tier can hold the answer,
// while line numbers, line counts and therefore the rendered report stay
// byte-identical.
func (s system) withNonce(n uint64) system {
	out := s.clone()
	tag := fmt.Sprintf(" /* sfbench nonce %x */", n)
	for _, cf := range s.cFiles {
		t := out.sources[cf]
		if strings.HasSuffix(t, "\n") {
			out.sources[cf] = t[:len(t)-1] + tag + "\n"
		} else {
			out.sources[cf] = t + tag
		}
	}
	return out
}

// clone copies the source map, so edits to the copy leave s alone.
func (s system) clone() system {
	out := system{name: s.name, sources: make(map[string]string, len(s.sources)), cFiles: s.cFiles}
	for k, v := range s.sources {
		out.sources[k] = v
	}
	return out
}

// killLine is the line of main.c holding the generator's seeded kill()
// defect, or 0 when this system has none.
func (s system) killLine() int {
	for i, line := range strings.Split(s.sources["main.c"], "\n") {
		if strings.Contains(line, "kill(reg") {
			return i + 1
		}
	}
	return 0
}

// checkKill verifies the generator's construction: the kill() pid comes
// from an unmonitored non-core read, so it must be reported as a
// data-flow error on its own line.
func (s system) checkKill(rep *safeflow.Report) error {
	line := s.killLine()
	if line == 0 {
		return nil
	}
	for _, e := range rep.ErrorsData {
		if e.Pos.File == "main.c" && e.Pos.Line == line {
			return nil
		}
	}
	return fmt.Errorf("%s: no data-flow error on the kill() at main.c:%d", s.name, line)
}

// digest hashes the system's files in name order.
func (s system) digest(h io.Writer) {
	names := make([]string, 0, len(s.sources))
	for k := range s.sources {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(h, "%s\x00%s\x00", s.name, strings.Join(s.cFiles, ","))
	for _, k := range names {
		fmt.Fprintf(h, "%s\x00%d\x00%s", k, len(s.sources[k]), s.sources[k])
	}
}

func digestSystems(systems []system, extra ...string) string {
	h := sha256.New()
	for _, s := range systems {
		s.digest(h)
	}
	for _, e := range extra {
		fmt.Fprintf(h, "%d\x00%s", len(e), e)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// renderJSON renders the report as safeflow -format=json does. A render
// error gives nil, which equals no reference.
func renderJSON(rep *safeflow.Report) []byte {
	var buf bytes.Buffer
	if err := safeflow.WriteReportJSON(&buf, rep); err != nil {
		return nil
	}
	return buf.Bytes()
}

// renderSARIF renders the report as safeflow -format=sarif does, nil on
// error.
func renderSARIF(rep *safeflow.Report) []byte {
	var buf bytes.Buffer
	if err := safeflow.WriteReportSARIF(&buf, rep); err != nil {
		return nil
	}
	return buf.Bytes()
}

// sameBytes reports a byte mismatch between a result and its reference.
func sameBytes(what string, got, want []byte) error {
	if got == nil || !bytes.Equal(got, want) {
		return fmt.Errorf("%s: %d bytes differ from the %d-byte reference", what, len(got), len(want))
	}
	return nil
}
