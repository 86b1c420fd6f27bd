package policy

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBuiltins(t *testing.T) {
	names := BuiltinNames()
	want := []string{"credential-leak", "pii-to-log", "simplex-shm"}
	if len(names) != len(want) {
		t.Fatalf("BuiltinNames() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("BuiltinNames() = %v, want %v", names, want)
		}
	}
	if Default().Name != "simplex-shm" {
		t.Fatalf("Default().Name = %q", Default().Name)
	}
	if !Default().Shm {
		t.Fatal("default policy must enable shm rules")
	}
	if _, ok := Builtin("nope"); ok {
		t.Fatal("Builtin(nope) should miss")
	}
}

func TestCompileLookups(t *testing.T) {
	c, ok := Builtin("credential-leak")
	if !ok {
		t.Fatal("missing builtin")
	}
	if r, ok := c.SourceCall("getpass"); !ok || r.ID != "cred-source-getpass" {
		t.Fatalf("SourceCall(getpass) = %+v, %v", r, ok)
	}
	if _, ok := c.SourceCall("main"); ok {
		t.Fatal("SourceCall(main) should miss")
	}
	if r, ok := c.Sink("net_send"); !ok || len(r.Args) != 1 || r.Args[0] != 1 {
		t.Fatalf("Sink(send) = %+v, %v", r, ok)
	}
	if !c.IsSanitizer("redact") || c.IsSanitizer("net_send") {
		t.Fatal("sanitizer lookup wrong")
	}
	if !c.KnownRule("cred-leak-send") || !c.KnownRule(RuleAssertSafe) || c.KnownRule("bogus") {
		t.Fatal("KnownRule wrong")
	}
	// Engine rules lead, configured rules follow sorted by id.
	ids := make([]string, len(c.Rules))
	for i, r := range c.Rules {
		ids[i] = r.ID
	}
	wantIDs := []string{RuleAssertSafe, RuleSkippedDef, "cred-leak-log", "cred-leak-send", "cred-source-getpass", "cred-source-read-secret"}
	if strings.Join(ids, ",") != strings.Join(wantIDs, ",") {
		t.Fatalf("Rules order = %v, want %v", ids, wantIDs)
	}

	pii, _ := Builtin("pii-to-log")
	if rs := pii.ParamSources("handle_request"); len(rs) != 1 || rs[0].Param != 0 {
		t.Fatalf("ParamSources(handle_request) = %+v", rs)
	}
	if r, ok := pii.Propagator("copy_buf"); !ok || r.To != 0 || len(r.From) != 1 || r.From[0] != 1 {
		t.Fatalf("Propagator(copy_buf) = %+v, %v", r, ok)
	}
}

func TestCompileRejections(t *testing.T) {
	cases := []struct {
		name string
		pol  Policy
		want string
	}{
		{"no name", Policy{}, "no name"},
		{"dup rule id", Policy{Name: "p", Sources: []SourceRule{
			{ID: "r", Kind: "call", Function: "a"},
			{ID: "r", Kind: "call", Function: "b"},
		}}, `duplicate rule id "r"`},
		{"engine id collision", Policy{Name: "p", Sources: []SourceRule{
			{ID: RuleAssertSafe, Kind: "call", Function: "a"},
		}}, `duplicate rule id "assert-safe"`},
		{"bad kind", Policy{Name: "p", Sources: []SourceRule{
			{ID: "r", Kind: "ret", Function: "a"},
		}}, `unknown kind "ret"`},
		{"sanitizer and sink", Policy{Name: "p",
			Sinks:      []SinkRule{{ID: "s", Function: "f"}},
			Sanitizers: []SanitizerRule{{Function: "f"}},
		}, "both a sanitizer and a sink"},
		{"negative sink arg", Policy{Name: "p",
			Sinks: []SinkRule{{ID: "s", Function: "f", Args: []int{-1}}},
		}, "negative argument index"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.pol)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Compile = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestFingerprint(t *testing.T) {
	base := Policy{Name: "p", Sources: []SourceRule{{ID: "r", Kind: "call", Function: "f"}}}
	c1, err := Compile(base)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := Compile(base)
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
	if len(c1.Fingerprint()) != 64 {
		t.Fatalf("fingerprint %q is not hex sha256", c1.Fingerprint())
	}
	variants := []Policy{
		{Name: "q", Sources: base.Sources},
		{Name: "p", Shm: true, Sources: base.Sources},
		{Name: "p", Sources: []SourceRule{{ID: "r", Kind: "call", Function: "g"}}},
		{Name: "p", Sources: []SourceRule{{ID: "r2", Kind: "call", Function: "f"}}},
		{Name: "p", Sources: base.Sources, Sinks: []SinkRule{{ID: "s", Function: "h"}}},
		{Name: "p", Sources: base.Sources, Sanitizers: []SanitizerRule{{Function: "w"}}},
	}
	for i, v := range variants {
		cv, err := Compile(v)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if cv.Fingerprint() == c1.Fingerprint() {
			t.Fatalf("variant %d shares the base fingerprint", i)
		}
	}
	// Rule order within a section must not matter (canonical sort).
	two := Policy{Name: "p", Sanitizers: []SanitizerRule{{Function: "a"}, {Function: "b"}}}
	rev := Policy{Name: "p", Sanitizers: []SanitizerRule{{Function: "b"}, {Function: "a"}}}
	ct, _ := Compile(two)
	cr, _ := Compile(rev)
	if ct.Fingerprint() != cr.Fingerprint() {
		t.Fatal("fingerprint depends on declaration order")
	}
}

func TestParseValid(t *testing.T) {
	src := `{
  "version": 1,
  "policies": [
    {
      "name": "leak",
      "description": "d",
      "sources": [
        {"id": "s1", "kind": "call", "function": "getpass"},
        {"id": "s2", "kind": "param", "function": "handler", "param": 1, "message": "m"}
      ],
      "sinks": [{"id": "k1", "function": "send", "args": [1, 2]}],
      "sanitizers": [{"function": "redact"}],
      "propagators": [{"function": "cp", "from": [1], "to": 0}]
    },
    {"name": "shm-only", "shm": true}
  ]
}`
	f, err := Parse("p.json", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.Version != 1 || len(f.Policies) != 2 {
		t.Fatalf("parsed %+v", f)
	}
	p := f.Policies[0]
	if p.Name != "leak" || len(p.Sources) != 2 || p.Sources[1].Param != 1 ||
		len(p.Sinks) != 1 || len(p.Sinks[0].Args) != 2 ||
		len(p.Sanitizers) != 1 || len(p.Propagators) != 1 {
		t.Fatalf("policy = %+v", p)
	}
	if !f.Policies[1].Shm {
		t.Fatal("shm flag lost")
	}
}

// TestParseRejections pins the schema rejection messages, positions
// included: precise line:col anchors are part of the contract.
func TestParseRejections(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"version type", "{\n  \"version\": \"1\",\n  \"policies\": []\n}",
			`p.json:2:14: "version": expected number, got string "1"`},
		{"version value", "{\n  \"version\": 2,\n  \"policies\": [{\"name\": \"x\"}]\n}",
			`p.json:2:14: "version": unsupported config version 2 (this build supports 1)`},
		{"unknown top key", "{\n  \"version\": 1,\n  \"polices\": []\n}",
			`p.json:3:3: policy file: unknown key "polices"`},
		{"unknown policy key", "{\"version\": 1, \"policies\": [{\"name\": \"x\", \"sniks\": []}]}",
			`p.json:1:43: policy: unknown key "sniks"`},
		{"missing name", `{"version": 1, "policies": [{"shm": true}]}`,
			`missing required key "name"`},
		{"missing source id", `{"version": 1, "policies": [{"name": "x", "sources": [{"kind": "call", "function": "f"}]}]}`,
			`source rule: missing required key "id"`},
		{"bad kind", `{"version": 1, "policies": [{"name": "x", "sources": [{"id": "r", "kind": "ret", "function": "f"}]}]}`,
			`"kind": expected "call" or "param", got "ret"`},
		{"param without index", `{"version": 1, "policies": [{"name": "x", "sources": [{"id": "r", "kind": "param", "function": "f"}]}]}`,
			`kind "param" requires a "param" index`},
		{"negative sink arg", `{"version": 1, "policies": [{"name": "x", "sinks": [{"id": "r", "function": "f", "args": [-1]}]}]}`,
			`"args": must be non-negative argument indices`},
		{"dup policy name", `{"version": 1, "policies": [{"name": "x"}, {"name": "x"}]}`,
			`duplicate policy name "x"`},
		{"dup rule id", `{"version": 1, "policies": [{"name": "x", "sources": [{"id": "r", "kind": "call", "function": "f"}], "sinks": [{"id": "r", "function": "g"}]}]}`,
			`duplicate rule id "r"`},
		{"missing version", `{"policies": [{"name": "x"}]}`,
			`missing required key "version"`},
		{"empty policies", `{"version": 1, "policies": []}`,
			`missing or empty "policies"`},
		{"trailing garbage", "{\"version\": 1, \"policies\": [{\"name\": \"x\"}]}\n{}",
			`unexpected "{" after end of document`},
		{"array for object", `{"version": 1, "policies": [[]]}`,
			`policy: expected "{"`},
		{"propagator missing to", `{"version": 1, "policies": [{"name": "x", "propagators": [{"function": "f", "from": [0]}]}]}`,
			`propagator rule f: missing required key "to"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("p.json", []byte(tc.src))
			if err == nil {
				t.Fatalf("Parse accepted %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %q, want substring %q", err.Error(), tc.want)
			}
		})
	}
}

func TestParsePositionExact(t *testing.T) {
	src := "{\n  \"version\": 1,\n  \"policies\": [\n    {\"name\": 42}\n  ]\n}"
	_, err := Parse("cfg.json", []byte(src))
	se, ok := err.(*SchemaError)
	if !ok {
		t.Fatalf("err = %T %v, want *SchemaError", err, err)
	}
	if se.File != "cfg.json" || se.Line != 4 || se.Col != 14 {
		t.Fatalf("position = %s:%d:%d, want cfg.json:4:14", se.File, se.Line, se.Col)
	}
}

func TestSelectAndLoad(t *testing.T) {
	dir := t.TempDir()
	multi := filepath.Join(dir, "multi.json")
	os.WriteFile(multi, []byte(`{"version": 1, "policies": [{"name": "a"}, {"name": "b", "shm": true}]}`), 0o644)
	single := filepath.Join(dir, "single.json")
	os.WriteFile(single, []byte(`{"version": 1, "policies": [{"name": "only"}]}`), 0o644)

	if c, err := Load("credential-leak"); err != nil || c.Name != "credential-leak" {
		t.Fatalf("Load(builtin) = %v, %v", c, err)
	}
	if c, err := Load(single); err != nil || c.Name != "only" {
		t.Fatalf("Load(single) = %v, %v", c, err)
	}
	if _, err := Load(multi); err == nil || !strings.Contains(err.Error(), "select one by name") {
		t.Fatalf("Load(multi) = %v", err)
	}
	if c, err := Load(multi + "#b"); err != nil || c.Name != "b" || !c.Shm {
		t.Fatalf("Load(multi#b) = %v, %v", c, err)
	}
	if _, err := Load(multi + "#zzz"); err == nil || !strings.Contains(err.Error(), `no policy named "zzz"`) {
		t.Fatalf("Load(multi#zzz) = %v", err)
	}
	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil || !strings.Contains(err.Error(), "neither a built-in") {
		t.Fatalf("Load(absent) = %v", err)
	}
}

func TestScanSuppressions(t *testing.T) {
	src := strings.Join([]string{
		"int x;",
		"// safeflow:ignore assert-safe reviewed: monitored upstream",
		"int y = read();",
		"int z = read(); // safeflow:ignore shm-unmonitored-read ticket-123",
		"/* not a line comment safeflow:ignore nope */",
		"  // safeflow:ignore bad-rule",
		"int w;",
		"// safeflow:ignore",
	}, "\n")
	got := ScanSuppressions("a.c", src)
	want := []Suppression{
		{File: "a.c", Line: 3, CommentLine: 2, Rule: "assert-safe", Reason: "reviewed: monitored upstream"},
		{File: "a.c", Line: 4, CommentLine: 4, Rule: "shm-unmonitored-read", Reason: "ticket-123"},
		{File: "a.c", Line: 7, CommentLine: 6, Rule: "bad-rule", Reason: ""},
		{File: "a.c", Line: 9, CommentLine: 8, Rule: "", Reason: ""},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d suppressions %+v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("suppression %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestScanSuppressionsNoMarkerAllocFree: a file without the marker, the
// common case, scans with no allocation.
func TestScanSuppressionsNoMarkerAllocFree(t *testing.T) {
	src := strings.Repeat("int x; // a comment\n\n  double y = read(); /* safeflow */\n", 200)
	if allocs := testing.AllocsPerRun(100, func() {
		if ScanSuppressions("a.c", src) != nil {
			t.Fatal("found a directive in a file without the marker")
		}
	}); allocs != 0 {
		t.Errorf("%v allocations per scan, want 0", allocs)
	}
}
