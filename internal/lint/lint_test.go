package lint_test

import (
	"path/filepath"
	"testing"

	"bayesperf/internal/lint"
)

// loadTestdata loads internal/lint/testdata/src/<name> through the real
// loader (so the testdata packages are parsed and type-checked exactly like
// production packages).
func loadTestdata(t *testing.T, name string) *lint.Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	loader, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader(%s): %v", dir, err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return pkg
}

// checkRule diffs one analyzer's findings on its testdata package against
// the package's // want comments.
func checkRule(t *testing.T, rule string) {
	t.Helper()
	pkg := loadTestdata(t, rule)
	analyzers, err := lint.ByName(rule)
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range lint.CheckExpectations(pkg, analyzers) {
		t.Error(problem)
	}
}

func TestMapOrder(t *testing.T)     { checkRule(t, "maporder") }
func TestKernelPurity(t *testing.T) { checkRule(t, "kernelpurity") }
func TestFloatEq(t *testing.T)      { checkRule(t, "floateq") }
func TestHotAlloc(t *testing.T)     { checkRule(t, "hotalloc") }
func TestNilRecv(t *testing.T)      { checkRule(t, "nilrecv") }

func TestByName(t *testing.T) {
	all, err := lint.ByName("")
	if err != nil || len(all) != 5 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 5, nil", len(all), err)
	}
	two, err := lint.ByName("maporder, floateq")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName subset = %d analyzers, err %v; want 2, nil", len(two), err)
	}
	if _, err := lint.ByName("nosuchrule"); err == nil {
		t.Fatal("ByName accepted an unknown rule")
	}
}
