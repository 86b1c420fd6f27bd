package corpus

import (
	"strings"
	"testing"
)

// GenerateEdits edits monitors.c and stages.c, which Split removes: on a
// split system it must refuse loudly instead of returning a script that
// edits nothing.
func TestGenerateEditsPanicsOnSplitSystem(t *testing.T) {
	g := Generate(1, GenConfig{})
	if len(GenerateEdits(g, 1, 4)) == 0 {
		t.Fatal("unsplit system: empty edit script")
	}
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "monitors.c") {
			t.Fatalf("split system: recovered %v, want a panic naming monitors.c", r)
		}
	}()
	GenerateEdits(Split(g), 1, 4)
	t.Fatal("split system: GenerateEdits returned")
}
