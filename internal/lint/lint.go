// Package lint is BayesPerf's in-tree static-analysis framework: a
// stdlib-only (go/parser, go/ast, go/types — no external modules) package
// loader plus a small Analyzer/Pass API, backing the cmd/bayesvet driver.
//
// The point of the suite is to turn the pipeline's *dynamic* guarantees —
// bitwise-deterministic posteriors, 0 allocs/op hot paths, nil-receiver
// no-op instruments — into *static* CI-gated rules that hold on every code
// path, not just the ones a test happens to exercise. Each analyzer in this
// package encodes one invariant the repo already promises:
//
//	maporder      map iteration order must not reach any output
//	kernelpurity  inference kernels are pure functions of their inputs
//	floateq       no tolerance-free float comparisons outside tests
//	hotalloc      //bayesperf:hotpath functions must not allocate
//	nilrecv       //bayesvet:nilsafe instruments guard nil receivers
//
// All five are AST pattern matchers. The sync sites (the obs and uarch
// registry mutexes, the stream engine's WaitGroups and typed atomics) are
// left to go vet's copylocks check, typed atomics and the -race tests.
//
// Analyzers are scope-agnostic: they analyze whatever package they are
// handed. The driver (cmd/bayesvet) decides which analyzers apply to which
// import paths, so the same analyzer can run against both the real tree and
// the self-contained testdata packages.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one lint rule: a name (stable, used in diagnostics and the
// driver's -rules filter), one-line documentation, and the Run hook.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Diagnostic is one finding, positioned inside the analyzed package.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Rule, d.Message)
}

// Pass is one analyzer's view of one loaded package, plus the sink for its
// findings.
type Pass struct {
	*Package
	rule  string
	diags *[]Diagnostic

	// directive lines per file, built lazily: for each directive string,
	// the set of lines in the file carrying a comment that contains it.
	dirCache map[*ast.File]map[string]map[int]bool
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// directiveLines returns the set of lines of file on which a comment
// containing the directive appears (the whole comment group counts, so a
// directive inside a doc comment marks every line of that group).
func (p *Pass) directiveLines(file *ast.File, directive string) map[int]bool {
	if p.dirCache == nil {
		p.dirCache = make(map[*ast.File]map[string]map[int]bool)
	}
	byDir, ok := p.dirCache[file]
	if !ok {
		byDir = make(map[string]map[int]bool)
		p.dirCache[file] = byDir
	}
	if lines, ok := byDir[directive]; ok {
		return lines
	}
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, directive) {
				lines[p.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	byDir[directive] = lines
	return lines
}

// Annotated reports whether pos's line, or the line directly above it, has a
// comment containing the directive — the convention every bayesvet escape
// hatch uses (trailing same-line comment or a comment line of its own).
func (p *Pass) Annotated(file *ast.File, pos token.Pos, directive string) bool {
	lines := p.directiveLines(file, directive)
	if len(lines) == 0 {
		return false
	}
	line := p.Fset.Position(pos).Line
	return lines[line] || lines[line-1]
}

// DocHasDirective reports whether a doc comment group contains the
// directive.
func DocHasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.Contains(c.Text, directive) {
			return true
		}
	}
	return false
}

// RunAnalyzers runs the analyzers over the loaded package and returns the
// findings sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Package: pkg, rule: a.Name, diags: &diags}
		a.Run(pass)
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders findings by file, line, column, then rule — the
// order every bayesvet surface (text, json, github) emits.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Rule < diags[j].Rule
	})
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		MapOrder, KernelPurity, FloatEq, HotAlloc, NilRecv,
	}
}

// ByName resolves a comma-separated rule list ("maporder,floateq") against
// the suite; an unknown name is an error.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (have %s)", n, ruleNames())
		}
		out = append(out, a)
	}
	return out, nil
}

func ruleNames() string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}
