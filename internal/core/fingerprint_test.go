package core

import (
	"os"
	"path/filepath"
	"testing"

	"safeflow/internal/cpp"
)

// The summary-cache key is persisted on disk and on the remote tier, so
// its bytes must not drift when the source walk behind it is refactored.
// The values below were recorded before the walk was shared.
func TestFingerprintSourcesPinned(t *testing.T) {
	ip := cpp.MapSource{}
	for _, f := range []string{"init.c", "estimator.c", "control.c", "main.c", "shared.h"} {
		data, err := os.ReadFile(filepath.Join("..", "corpus", "src", "ip", f))
		if err != nil {
			t.Fatal(err)
		}
		ip[f] = string(data)
	}
	// b.c reaches the x.h/y.h cycle twice and names a header that does
	// not exist (hashed as "<unreadable>").
	cyclic := cpp.MapSource{
		"a.c": "#include \"x.h\"\nint a;\n  #include \"missing.h\"\n",
		"b.c": "#include \"y.h\"\n#include <stdio.h>\nint b;\n",
		"x.h": "#include \"y.h\"\nint x;\n",
		"y.h": "#include \"x.h\" /* cycle */\nint y;\n",
	}
	tests := []struct {
		name    string
		sources cpp.Source
		cFiles  []string
		opts    Options
		want    string
	}{
		{"IP", ip, []string{"init.c", "estimator.c", "control.c", "main.c"}, Options{},
			"1ef1d8aa9d9cd89de6f2beb2a1810a9effc0291b27eb9c0d81c4169517a9712e"},
		{"cyclic", cyclic, []string{"b.c", "a.c"},
			Options{Defines: map[string]string{"N": "4", "A": "1"}, Roots: []string{"main"}},
			"1b478e6d23045048bc95265f19ad3d13ee6dc7c1769c1a339497e6858cdc74bd"},
	}
	for _, tc := range tests {
		if got := fingerprintSources(tc.name, tc.sources, tc.cFiles, tc.opts); got != tc.want {
			t.Errorf("%s: fingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}
