package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	ImportPath string // module-rooted import path (modulePath/rel)
	Rel        string // directory relative to the module root, "/"-separated
	Dir        string // absolute directory
	Fset       *token.FileSet
	Files      []*ast.File // build-constraint-filtered non-test files
	Types      *types.Package
	Info       *types.Info
}

// Loader parses and type-checks packages of one module using only the
// standard library: module-local imports are resolved by loading their
// directory recursively; everything else (the standard library) is read
// from the compiler's export data, which `go list -export` builds into the
// Go build cache and names. Loaded packages are memoized, so analyzing the
// whole tree type-checks each package once.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	std     types.ImporterFrom // export-data importer, made on the first non-module import
	exports map[string]string  // import path → export data file, from go list
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader finds the module containing start (walking up to go.mod) and
// returns a loader rooted there.
func NewLoader(start string) (*Loader, error) {
	root, err := filepath.Abs(start)
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(root); err != nil {
		return nil, err
	} else if !fi.IsDir() {
		root = filepath.Dir(root)
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", start)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		Fset:       token.NewFileSet(),
		ModuleRoot: root,
		ModulePath: modPath,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// stdImporter returns the importer for packages outside the module. The
// first call runs `go list -export -deps ./...` in the module root, which
// compiles what the module imports into the build cache where it is not
// there yet and names each package's export data file; the loader keeps
// the listing. A loader that imports nothing outside its module never runs
// it.
func (l *Loader) stdImporter() (types.ImporterFrom, error) {
	if l.std != nil {
		return l.std, nil
	}
	cmd := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}", "./...")
	cmd.Dir = l.ModuleRoot
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: %s (in %s): %v: %s", strings.Join(cmd.Args, " "), l.ModuleRoot, err, strings.TrimSpace(stderr.String()))
	}
	l.exports = make(map[string]string)
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			l.exports[path] = file
		}
	}
	std, ok := importer.ForCompiler(l.Fset, "gc", l.openExport).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: gc importer does not support ImportFrom")
	}
	l.std = std
	return std, nil
}

// openExport opens the export data go list named for path.
func (l *Loader) openExport(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("lint: go list -export -deps ./... in %s names no export data for %s", l.ModuleRoot, path)
	}
	return os.Open(file)
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// LoadDir loads the package in dir (absolute or relative to the process
// working directory). The directory must live inside the loader's module.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.ModuleRoot)
	}
	rel = filepath.ToSlash(rel)
	path := l.ModulePath
	if rel != "." {
		path += "/" + rel
	}
	return l.load(path)
}

// local reports whether path names a package inside the loader's module.
func (l *Loader) local(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// load parses and type-checks one module-local package by import path.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := "."
	if path != l.ModulePath {
		rel = strings.TrimPrefix(path, l.ModulePath+"/")
	}
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}
	pkg := &Package{
		ImportPath: path,
		Rel:        rel,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// loaderImporter adapts the Loader into the go/types importer interfaces:
// module-local paths load recursively, everything else is read from export
// data (see stdImporter).
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, (*Loader)(li).ModuleRoot, 0)
}

func (li *loaderImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if l.local(path) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	std, err := l.stdImporter()
	if err != nil {
		return nil, err
	}
	return std.ImportFrom(path, srcDir, 0)
}
