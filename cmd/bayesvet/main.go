// Command bayesvet is BayesPerf's domain-specific static-analysis suite: it
// encodes the pipeline's determinism, purity, and hot-path invariants as
// lint rules and checks them on every code path of every package — the
// static counterpart of the reference goldens, lane-invariance tests, and
// 0-alloc bench gates, which can only catch a violation the moment a test
// happens to execute it.
//
// Usage:
//
//	go run ./cmd/bayesvet ./...
//	go run ./cmd/bayesvet -rules maporder,floateq ./internal/stream
//	go run ./cmd/bayesvet -format github -stats ./...
//
// Rules (see internal/lint for the full documentation of each):
//
//	maporder      numeric/output packages must not let map iteration order
//	              reach output (internal/graph, stream, measure, uarch,
//	              timeseries, obs)
//	kernelpurity  inference kernels (internal/graph) must be pure: no wall
//	              clock, no math/rand, no package-level writes, no map
//	              iteration
//	floateq       no ==/!= on floats outside _test.go files and lines
//	              annotated //bayesvet:bitwise
//	hotalloc      functions annotated //bayesperf:hotpath must not allocate
//	nilrecv       types annotated //bayesvet:nilsafe must nil-guard their
//	              exported pointer-receiver methods
//
// Output formats (-format): "text" (default) prints one finding per line;
// "json" prints a machine-readable array; "github" prints GitHub Actions
// ::error workflow annotations so CI findings land inline on PRs. -stats
// prints per-rule finding counts and analysis wall time to stderr.
//
// Exit status: 0 when the tree is clean, 1 when any rule fired, 2 on usage
// or load/type-check errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/build"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"

	"bayesperf/internal/lint"
)

// scope maps each path-scoped rule to the module-relative package
// directories it applies to; rules absent from the map (the
// annotation-driven hotalloc and nilrecv, plus the everywhere-on floateq)
// run on every package.
var scope = map[string][]string{
	"maporder": {
		"internal/graph", "internal/stream", "internal/measure",
		"internal/uarch", "internal/timeseries", "internal/obs",
	},
	"kernelpurity": {"internal/graph"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bayesvet", flag.ContinueOnError)
	fl.SetOutput(stderr)
	rules := fl.String("rules", "", "comma-separated subset of rules to run (default: all)")
	format := fl.String("format", "text", "output format: text, json, or github")
	stats := fl.Bool("stats", false, "print per-rule finding counts and wall time to stderr")
	fl.Usage = func() {
		fmt.Fprintf(stderr, "usage: bayesvet [-rules r1,r2] [-format text|json|github] [-stats] [packages]\n\npatterns are directories, with the go-style /... suffix for recursion\n(testdata directories are skipped); default is ./...\n")
		fl.PrintDefaults()
	}
	if err := fl.Parse(args); err != nil {
		return 2
	}
	switch *format {
	case "text", "json", "github":
	default:
		fmt.Fprintf(stderr, "bayesvet: unknown -format %q (have text, json, github)\n", *format)
		return 2
	}
	analyzers, err := lint.ByName(*rules)
	if err != nil {
		fmt.Fprintf(stderr, "bayesvet: %v\n", err)
		return 2
	}
	patterns := fl.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := expandPatterns(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "bayesvet: %v\n", err)
		return 2
	}
	if len(dirs) == 0 {
		fmt.Fprintf(stderr, "bayesvet: no Go packages matched %v\n", patterns)
		return 2
	}

	loaders := make(map[string]*lint.Loader) // by module root
	var (
		diags    []lint.Diagnostic
		loadTime time.Duration
		ruleTime = make(map[string]time.Duration)
		ruleHits = make(map[string]int)
	)
	for _, dir := range dirs {
		loadStart := time.Now()
		loader, err := loaderFor(loaders, dir)
		if err != nil {
			fmt.Fprintf(stderr, "bayesvet: %v\n", err)
			return 2
		}
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(stderr, "bayesvet: %v\n", err)
			return 2
		}
		loadTime += time.Since(loadStart)
		for _, a := range applicable(analyzers, pkg.Rel) {
			start := time.Now()
			found := lint.RunAnalyzers(pkg, []*lint.Analyzer{a})
			ruleTime[a.Name] += time.Since(start)
			ruleHits[a.Name] += len(found)
			diags = append(diags, found...)
		}
	}
	lint.SortDiagnostics(diags)

	if err := emit(stdout, *format, diags); err != nil {
		fmt.Fprintf(stderr, "bayesvet: %v\n", err)
		return 2
	}
	if *stats {
		emitStats(stderr, analyzers, len(dirs), loadTime, ruleTime, ruleHits)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// emit renders the sorted findings in the selected format. Text is the
// historical line format; json is a machine-readable array (emitted even
// when empty, so consumers can rely on valid JSON); github is the GitHub
// Actions workflow-annotation format, which CI surfaces inline on PRs.
func emit(stdout io.Writer, format string, diags []lint.Diagnostic) error {
	switch format {
	case "text":
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s: %s: %s\n", relPos(d), d.Rule, d.Message)
		}
	case "json":
		type finding struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Rule    string `json:"rule"`
			Message string `json:"message"`
		}
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{
				File:    relFile(d.Pos.Filename),
				Line:    d.Pos.Line,
				Col:     d.Pos.Column,
				Rule:    d.Rule,
				Message: d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	case "github":
		for _, d := range diags {
			// %s inside the message is free-form; GitHub only parses the
			// key=value properties before the double colon.
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=bayesvet %s::%s: %s\n",
				relFile(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Rule, d.Rule, d.Message)
		}
	}
	return nil
}

// emitStats prints the per-rule cost table CI uses to watch the suite's
// cost trend as the tree grows.
func emitStats(stderr io.Writer, analyzers []*lint.Analyzer, pkgs int, loadTime time.Duration, ruleTime map[string]time.Duration, ruleHits map[string]int) {
	var analysis time.Duration
	for _, d := range ruleTime {
		analysis += d
	}
	fmt.Fprintf(stderr, "bayesvet: %d packages, load %s, analysis %s\n",
		pkgs, loadTime.Round(time.Millisecond), analysis.Round(time.Millisecond))
	tw := tabwriter.NewWriter(stderr, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "\trule\tfindings\ttime\n")
	for _, a := range analyzers {
		fmt.Fprintf(tw, "\t%s\t%d\t%s\n", a.Name, ruleHits[a.Name], ruleTime[a.Name].Round(time.Millisecond))
	}
	tw.Flush()
}

// loaderFor returns the (cached) loader for the module containing dir.
func loaderFor(loaders map[string]*lint.Loader, dir string) (*lint.Loader, error) {
	probe, err := lint.NewLoader(dir)
	if err != nil {
		return nil, err
	}
	if cached, ok := loaders[probe.ModuleRoot]; ok {
		return cached, nil
	}
	loaders[probe.ModuleRoot] = probe
	return probe, nil
}

// applicable filters the requested analyzers down to those scoped to the
// package's module-relative directory.
func applicable(analyzers []*lint.Analyzer, rel string) []*lint.Analyzer {
	var out []*lint.Analyzer
	for _, a := range analyzers {
		dirs, scoped := scope[a.Name]
		if !scoped {
			out = append(out, a)
			continue
		}
		for _, d := range dirs {
			if rel == d || strings.HasPrefix(rel, d+"/") {
				out = append(out, a)
				break
			}
		}
	}
	return out
}

// expandPatterns resolves go-style package patterns (dir or dir/...) into
// the list of directories containing buildable Go files, skipping testdata
// and hidden/underscore directories.
func expandPatterns(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		clean := filepath.Clean(dir)
		if !seen[clean] {
			seen[clean] = true
			dirs = append(dirs, clean)
		}
	}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "/...")
		if base == "" || pat == "..." {
			base = "."
			recursive = recursive || pat == "..."
		}
		if !recursive {
			if !hasGoFiles(base) {
				return nil, fmt.Errorf("no buildable Go files in %s", base)
			}
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// hasGoFiles reports whether dir holds at least one buildable non-test Go
// file under the current build context.
func hasGoFiles(dir string) bool {
	bp, err := build.ImportDir(dir, 0)
	return err == nil && len(bp.GoFiles) > 0
}

// relFile renders a filename relative to the working directory when
// possible.
func relFile(name string) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
	}
	return name
}

// relPos renders a diagnostic position with the filename relative to the
// working directory when possible.
func relPos(d lint.Diagnostic) string {
	pos := d.Pos
	pos.Filename = relFile(pos.Filename)
	return pos.String()
}
