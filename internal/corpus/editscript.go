// Edit-script generation for incremental-analysis testing: seeded,
// deterministic single-function edits over generated systems. Each edit
// is expressed as a one-occurrence string replacement in one file, so a
// script can be replayed against a source map (or shipped to a session
// as a changed-file batch) and always lands on the function it targeted.

package corpus

import (
	"fmt"
	"math/rand"
	"strings"
)

// EditKind classifies one generated edit.
type EditKind int

const (
	// EditNoop appends a comment after the last function of the file:
	// the preprocessed text changes (the frontend must recompile the
	// unit) but no function body moves, so an incremental analysis
	// should invalidate nothing.
	EditNoop EditKind = iota
	// EditBodyTweak changes one arithmetic constant inside a single
	// monitor body — a local, semantics-visible edit.
	EditBodyTweak
	// EditAnnotationFlip removes (or restores) one monitor's
	// assume(core(...)) annotation, turning the monitored access
	// unmonitored and back.
	EditAnnotationFlip
	// EditRewrite replaces one stage's body with freshly generated
	// statements under the same signature; the set of callees may
	// change, so the callgraph does too.
	EditRewrite
)

func (k EditKind) String() string {
	switch k {
	case EditNoop:
		return "noop"
	case EditBodyTweak:
		return "body-tweak"
	case EditAnnotationFlip:
		return "annotation-flip"
	case EditRewrite:
		return "rewrite"
	default:
		return fmt.Sprintf("EditKind(%d)", int(k))
	}
}

// Edit is one source edit: replace the first occurrence of Old in File
// with New. Old is anchored on the unique function header emitted by the
// generator, so the replacement cannot land on a different function.
type Edit struct {
	Kind EditKind
	File string
	Desc string
	Old  string
	New  string
}

// Apply returns the edited contents of e.File (the map is not mutated).
// ok is false when the anchor no longer exists — a script replayed
// against sources it was not generated for.
func (e Edit) Apply(sources map[string]string) (string, bool) {
	text, found := sources[e.File]
	if !found || !strings.Contains(text, e.Old) {
		return "", false
	}
	return strings.Replace(text, e.Old, e.New, 1), true
}

// EditScript is a sequence of edits generated against — and meant to be
// applied in order to — one system's sources.
type EditScript []Edit

// ApplyAll applies the script in order to a copy of sources and returns
// the edited tree; ok is false if any edit fails to anchor.
func (s EditScript) ApplyAll(sources map[string]string) (map[string]string, bool) {
	cur := make(map[string]string, len(sources))
	for k, v := range sources {
		cur[k] = v
	}
	for _, e := range s {
		text, ok := e.Apply(cur)
		if !ok {
			return nil, false
		}
		cur[e.File] = text
	}
	return cur, true
}

// GenerateEdits produces a deterministic n-edit script for a generated
// system: identical (g, seed, n) inputs yield identical scripts. Each
// edit is generated against the sources as left by the previous one, so
// the script applies cleanly in sequence. g must be an unsplit system:
// the edits target monitors.c and stages.c, which Split removes, so it
// panics on a split one (edit the unsplit system, then Split it).
func GenerateEdits(g Generated, seed int64, n int) EditScript {
	for _, f := range []string{"monitors.c", "stages.c"} {
		if _, ok := g.Sources[f]; !ok {
			panic(fmt.Sprintf("corpus.GenerateEdits: %s has no %s (a Split system?): edit the unsplit system, then Split it", g.Name, f))
		}
	}
	r := rand.New(rand.NewSource(seed))
	cfg := GenConfig{}.Normalize() // the generator's shape defaults
	// Recover the real shape from the header (counts are derivable from
	// the declared prototypes, which Generate always emits).
	cfg.Monitors = strings.Count(g.Sources["gen.h"], "double monitor")
	cfg.Stages = strings.Count(g.Sources["gen.h"], "double stage")
	cfg.Regions = strings.Count(g.Sources["gen.h"], "extern GenRegion")

	cur := make(map[string]string, len(g.Sources))
	for k, v := range g.Sources {
		cur[k] = v
	}
	var script EditScript
	for i := 0; i < n; i++ {
		var e Edit
		switch EditKind(r.Intn(4)) {
		case EditNoop:
			// Anchored on the whole current file so repeated noops stack.
			text := cur["monitors.c"]
			e = Edit{Kind: EditNoop, File: "monitors.c",
				Desc: fmt.Sprintf("touch comment %d", i),
				Old:  text, New: text + fmt.Sprintf("/* touch %d */\n", i)}
		case EditBodyTweak:
			j := r.Intn(cfg.Monitors)
			anchor := fmt.Sprintf("double monitor%d(double x)", j)
			chunk := functionChunk(cur["monitors.c"], anchor)
			if chunk == "" {
				continue
			}
			tweaked := strings.Replace(chunk, "return t + x;",
				fmt.Sprintf("return t + x + %d.0;", r.Intn(5)), 1)
			if tweaked == chunk {
				continue
			}
			e = Edit{Kind: EditBodyTweak, File: "monitors.c",
				Desc: fmt.Sprintf("tweak monitor%d", j), Old: chunk, New: tweaked}
		case EditAnnotationFlip:
			j := r.Intn(cfg.Monitors)
			anchor := fmt.Sprintf("double monitor%d(double x)", j)
			chunk := functionChunk(cur["monitors.c"], anchor)
			if chunk == "" {
				continue
			}
			k := j % cfg.Regions
			annot := fmt.Sprintf("/***SafeFlow Annotation assume(core(reg%d, 0, sizeof(GenRegion))) /***/\n", k)
			var flipped string
			if strings.Contains(chunk, annot) {
				flipped = strings.Replace(chunk, annot, "", 1)
			} else {
				flipped = strings.Replace(chunk, anchor+"\n", anchor+"\n"+annot, 1)
			}
			if flipped == chunk {
				continue
			}
			e = Edit{Kind: EditAnnotationFlip, File: "monitors.c",
				Desc: fmt.Sprintf("flip core annotation on monitor%d", j), Old: chunk, New: flipped}
		case EditRewrite:
			j := r.Intn(cfg.Stages)
			anchor := fmt.Sprintf("double stage%d(double x)", j)
			chunk := functionChunk(cur["stages.c"], anchor)
			if chunk == "" {
				continue
			}
			sg := &sysGen{r: rand.New(rand.NewSource(seed ^ int64(i+1)<<8)), cfg: cfg}
			body := indent(sg.stmts(cfg.Depth, j, []string{"t", "s", "x"}), "    ")
			rewritten := fmt.Sprintf(
				"%s\n{\n    double t;\n    double s;\n\n    t = x;\n    s = 0.0;\n%s    return t + s;\n}\n",
				anchor, body)
			if rewritten == chunk {
				continue
			}
			e = Edit{Kind: EditRewrite, File: "stages.c",
				Desc: fmt.Sprintf("rewrite stage%d", j), Old: chunk, New: rewritten}
		}
		if e.Old == "" {
			continue
		}
		text, ok := e.Apply(cur)
		if !ok {
			continue
		}
		cur[e.File] = text
		script = append(script, e)
	}
	return script
}

// functionChunk extracts the text of one generated function: from its
// (unique) header line through the first unindented closing brace.
func functionChunk(text, header string) string {
	start := strings.Index(text, header)
	if start < 0 {
		return ""
	}
	end := strings.Index(text[start:], "\n}\n")
	if end < 0 {
		return ""
	}
	return text[start : start+end+len("\n}\n")]
}
