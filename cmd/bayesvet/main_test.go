package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const seedGoMod = "module seed\n\ngo 1.22\n"

// mapOrderFixture is a one-finding maporder violation for
// internal/stream: the range over m on line 5 lets map order reach the
// returned slice.
const mapOrderFixture = `package stream

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`

// mapOrderTree writes a throwaway module holding only mapOrderFixture and
// returns the package pattern that covers it.
func mapOrderTree(t *testing.T) string {
	t.Helper()
	dir := writeTree(t, map[string]string{"go.mod": seedGoMod, "internal/stream/bad.go": mapOrderFixture})
	return filepath.Join(dir, "...")
}

// writeTree materializes a throwaway module for the driver to analyze.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runBayesvet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestSeededViolations seeds one violation of each rule into a scratch
// module and asserts the driver exits 1 naming that rule.
func TestSeededViolations(t *testing.T) {
	cases := []struct {
		rule, path, src string
	}{
		{"maporder", "internal/stream/bad.go", mapOrderFixture},
		{"kernelpurity", "internal/graph/bad.go", `package graph

import "time"

func stamp() time.Time { return time.Now() }
`},
		{"floateq", "pkg/bad.go", `package pkg

func eq(a, b float64) bool { return a == b }
`},
		{"hotalloc", "pkg/bad.go", `package pkg

//bayesperf:hotpath
func hot(n int) []int { return make([]int, n) }
`},
		{"nilrecv", "pkg/bad.go", `package pkg

//bayesvet:nilsafe
type C struct{ n int }

func (c *C) Add() { c.n++ }
`},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			dir := writeTree(t, map[string]string{"go.mod": seedGoMod, tc.path: tc.src})
			code, out, errOut := runBayesvet(t, filepath.Join(dir, "..."))
			if code != 1 {
				t.Fatalf("exit %d, want 1 (stdout %q, stderr %q)", code, out, errOut)
			}
			if !strings.Contains(out, tc.rule+": ") {
				t.Fatalf("stdout %q does not name rule %s", out, tc.rule)
			}
		})
	}
}

// TestScopedRulesIgnoreOutOfScopePackages: the same constructs that fire
// inside internal/stream and internal/graph are legal in a package outside
// the scoped directories.
func TestScopedRulesIgnoreOutOfScopePackages(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": seedGoMod,
		"pkg/free.go": `package pkg

import "time"

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func stamp() time.Time { return time.Now() }
`,
	})
	code, out, errOut := runBayesvet(t, filepath.Join(dir, "..."))
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stdout %q, stderr %q)", code, out, errOut)
	}
}

func TestRulesFlag(t *testing.T) {
	tree := mapOrderTree(t)
	if code, out, errOut := runBayesvet(t, "-rules", "floateq", tree); code != 0 {
		t.Fatalf("-rules floateq: exit %d, want 0 (stdout %q, stderr %q)", code, out, errOut)
	}
	if code, _, errOut := runBayesvet(t, "-rules", "bogus", tree); code != 2 {
		t.Fatalf("-rules bogus: exit %d, want 2 (stderr %q)", code, errOut)
	}
}

func TestFormatJSON(t *testing.T) {
	tree := mapOrderTree(t)
	code, out, errOut := runBayesvet(t, "-format", "json", tree)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errOut)
	}
	var findings []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Rule    string `json:"rule"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if len(findings) != 1 {
		t.Fatalf("%d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Rule != "maporder" || f.Line != 5 || !strings.HasSuffix(f.File, "bad.go") || f.Message == "" {
		t.Fatalf("unexpected finding %+v", f)
	}
}

func TestFormatJSONEmitsEmptyArrayWhenClean(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":      seedGoMod,
		"pkg/fine.go": "package pkg\n\nfunc fine() {}\n",
	})
	code, out, _ := runBayesvet(t, "-format", "json", filepath.Join(dir, "..."))
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Fatalf("clean json output %q, want []", out)
	}
}

func TestFormatGitHub(t *testing.T) {
	tree := mapOrderTree(t)
	code, out, _ := runBayesvet(t, "-format", "github", tree)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	line := strings.TrimSpace(out)
	if !strings.HasPrefix(line, "::error file=") {
		t.Fatalf("not a workflow annotation: %q", line)
	}
	for _, want := range []string{"line=5", "maporder", "bad.go"} {
		if !strings.Contains(line, want) {
			t.Fatalf("annotation %q missing %q", line, want)
		}
	}
}

func TestFormatUnknownIsUsageError(t *testing.T) {
	if code, _, _ := runBayesvet(t, "-format", "xml", "."); code != 2 {
		t.Fatalf("-format xml: exit %d, want 2", code)
	}
}

func TestStatsFlag(t *testing.T) {
	tree := mapOrderTree(t)
	code, out, errOut := runBayesvet(t, "-stats", tree)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(out, "maporder: ") {
		t.Fatalf("stdout lost the finding: %q", out)
	}
	// Stats go to stderr so stdout stays parseable.
	for _, want := range []string{"packages, load", "rule", "maporder", "nilrecv"} {
		if !strings.Contains(errOut, want) {
			t.Fatalf("stats output %q missing %q", errOut, want)
		}
	}
}

// TestRepoTreeIsClean runs the full suite over this repository — the same
// invocation CI gates on.
func TestRepoTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree")
	}
	code, out, errOut := runBayesvet(t, "../../...")
	if code != 0 {
		t.Fatalf("bayesvet over the repo tree: exit %d\nstdout:\n%sstderr:\n%s", code, out, errOut)
	}
}
