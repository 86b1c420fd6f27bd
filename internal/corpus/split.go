package corpus

import (
	"fmt"
	"strings"
)

// MaxShape is the largest shape the generator builds. Split, it gives
// init.c, 64 monitor units, 64 stage units and main.c: 130 translation
// units, each including gen.h.
var MaxShape = GenConfig{Regions: 64, Monitors: 64, Stages: 64, Depth: 6}

// Split moves every monitor and stage function of a generated system
// into a translation unit of its own: monitor000.c holds monitor0,
// stage000.c holds stage0, and so on. The analyzed program is the same;
// only its division into units changes.
func Split(g Generated) Generated {
	out := Generated{
		Name: g.Name,
		Sources: map[string]string{
			"gen.h":  g.Sources["gen.h"],
			"init.c": g.Sources["init.c"],
			"main.c": g.Sources["main.c"],
		},
		CFiles: []string{"init.c"},
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
			out.Sources[unit] = "#include \"gen.h\"\n" + chunk
			out.CFiles = append(out.CFiles, unit)
		}
	}
	out.CFiles = append(out.CFiles, "main.c")
	return out
}
