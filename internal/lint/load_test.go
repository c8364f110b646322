package lint_test

import (
	"strings"
	"testing"

	"bayesperf/internal/lint"
)

// The loaderedge testdata packages exercise loader corners every rule
// depends on: files excluded by build constraints, _test.go siblings, and
// //line directives. The excluded files deliberately fail to type-check,
// so loading them at all breaks the load.

func TestLoaderSkipsBuildConstrainedFiles(t *testing.T) {
	pkg := loadTestdata(t, "loaderedge/buildtag")
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (skip.go is excluded by //go:build)", len(pkg.Files))
	}
	name := pkg.Fset.Position(pkg.Files[0].Pos()).Filename
	if !strings.HasSuffix(name, "keep.go") {
		t.Fatalf("loaded %s, want keep.go", name)
	}
}

func TestLoaderIgnoresTestSiblings(t *testing.T) {
	pkg := loadTestdata(t, "loaderedge/xtest")
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (_test.go siblings are excluded)", len(pkg.Files))
	}
	name := pkg.Fset.Position(pkg.Files[0].Pos()).Filename
	if !strings.HasSuffix(name, "code.go") {
		t.Fatalf("loaded %s, want code.go", name)
	}
}

func TestLoaderHonorsLineDirectives(t *testing.T) {
	pkg := loadTestdata(t, "loaderedge/linedir")
	analyzers, err := lint.ByName("maporder")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.RunAnalyzers(pkg, analyzers)
	if len(diags) == 0 {
		t.Fatal("maporder found nothing in the //line-directive package")
	}
	for _, d := range diags {
		if !strings.HasSuffix(d.Pos.Filename, "virtual.gen.go") {
			t.Fatalf("diagnostic at %s, want the //line-mapped virtual.gen.go", d.Pos)
		}
		if d.Pos.Line < 100 || d.Pos.Line > 110 {
			t.Fatalf("diagnostic at line %d, want the //line-mapped 100..110 range", d.Pos.Line)
		}
	}
}
