package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// listPackage is the slice of `go list -json` output the loader needs.
type listPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load resolves patterns (e.g. "./...") in dir to typechecked Targets.
//
// It shells out to `go list -e -deps -export -json`: the go command does
// the build-system work — pattern expansion, import resolution, and
// compiling export data into the build cache. The loader typechecks
// every non-standard package from source, in go list's
// dependencies-first order, and imports the standard library from the
// compiler's export files. All targets of one Load share one FileSet and
// one type universe: a type or function seen from any package is the
// same object everywhere, so checks that span packages compare them
// directly. Fully offline: export data comes from the local build cache,
// and this module has none but stdlib dependencies anyway.
//
// The patterns reach go list unchanged, so a leading "-test" also loads
// each package's test variant ("p [p.test]", its files plus its
// _test.go files) and external test package; a test variant's Target
// carries the plain import path. The synthesized test mains are skipped.
func Load(dir string, patterns []string) ([]*Target, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json=Dir,ImportPath,Name,Export,GoFiles,CgoFiles,ImportMap,Standard,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports := make(map[string]string) // import path -> export data file
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		pkgs = append(pkgs, &p)
	}

	fset := token.NewFileSet()
	std := exportImporter(fset, func(path string) (string, bool) {
		f, ok := exports[path]
		return f, ok
	})
	checked := make(map[string]*types.Package) // go list import path -> package typechecked from source
	var targets []*Target
	for _, p := range pkgs {
		if p.Standard || (p.Name == "main" && strings.HasSuffix(p.ImportPath, ".test")) {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("lint: %s: cgo packages are not supported", p.ImportPath)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		imp := importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := p.ImportMap[path]; ok {
				path = mapped
			}
			if pkg, ok := checked[path]; ok {
				return pkg, nil
			}
			return std.Import(path)
		})
		pkgPath, _, _ := strings.Cut(p.ImportPath, " [")
		t, err := check(fset, pkgPath, files, imp)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = t.Pkg
		if !p.DepOnly {
			targets = append(targets, t)
		}
	}
	return targets, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportImporter imports packages from the export-data files lookup
// resolves. It caches what it imports, so the packages it serves share
// one universe.
func exportImporter(fset *token.FileSet, lookup func(path string) (string, bool)) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := lookup(path)
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// typecheck parses files and typechecks them as package pkgPath,
// importing dependencies through export-data files resolved by lookup.
func typecheck(pkgPath string, files []string, lookup func(path string) (string, bool)) (*Target, error) {
	fset := token.NewFileSet()
	return check(fset, pkgPath, files, exportImporter(fset, lookup))
}

// check parses files into fset and typechecks them as package pkgPath.
//
// The gc export-data importer panics on some malformed inputs (a stale
// or truncated export file, a version skew) instead of returning an
// error; the recover turns that into a loader diagnostic so a broken
// build cache reads as "what went wrong", not a stack trace.
func check(fset *token.FileSet, pkgPath string, files []string, imp types.Importer) (target *Target, err error) {
	defer func() {
		if r := recover(); r != nil {
			target, err = nil, fmt.Errorf("lint: typechecking %s: importer panic: %v (is the build cache stale? try `go build ./...` first)", pkgPath, r)
		}
	}()
	var syntax []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		// Soft errors (unused variables in fixtures) must not abort
		// analysis; hard errors surface through the returned error.
		Error: func(error) {},
	}
	pkg, err := conf.Check(pkgPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typechecking %s: %v", pkgPath, err)
	}
	return &Target{PkgPath: pkgPath, Fset: fset, Files: syntax, Pkg: pkg, Info: info}, nil
}
