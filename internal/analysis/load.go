// The loader: a `go list -deps -test -export -json` driven package loader
// that parses target packages from source and type-checks them against the
// build cache's export data for dependencies. This is the same architecture
// as x/tools go/packages LoadAllSyntax for the roots / export data for deps,
// reimplemented on the standard library so the suite works with no module
// downloads. The gc importer reads dependency export data straight out of
// the artifacts `go list -export` compiled.
package analysis

import (
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
	"strings"
)

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath  string
	Dir         string
	Standard    bool
	DepOnly     bool
	ForTest     string
	GoFiles     []string
	CgoFiles    []string
	TestGoFiles []string
	Export      string
	ImportMap   map[string]string
	Error       *struct{ Err string }
}

// files returns the package's compilable sources. GoFiles is already
// complete for every variant go list emits: test variants ("pkg
// [pkg.test]", external "pkg_test [pkg.test]") fold their _test.go sources
// into GoFiles, so TestGoFiles is only the plain package's cross-reference
// and must not be re-appended.
func (p *listPackage) files() []string {
	return append(append([]string{}, p.GoFiles...), p.CgoFiles...)
}

// displayPath strips go list's test-variant suffix: "pkg [pkg.test]" → "pkg".
func displayPath(importPath string) string {
	if i := strings.IndexByte(importPath, ' '); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

// A Package is one loaded, type-checked analysis target.
type Package struct {
	Path  string // display import path
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// load lists, parses and type-checks every package of the module rooted at
// dir, test files included (in-package and external test packages). It
// returns one Package per analysis target; a package that fails to list or
// type-check yields an error instead (analysis needs sound types).
func load(dir string) ([]*Package, error) {
	cmd := exec.Command("go", "list", "-e", "-deps", "-export", "-json", "-test", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %w", err)
	}

	byPath := map[string]*listPackage{}
	var order []*listPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		q := p
		byPath[q.ImportPath] = &q
		order = append(order, &q)
	}

	// An in-package test variant supersedes its plain package: it carries
	// the same GoFiles plus the _test.go files, so analyzing both would
	// duplicate every diagnostic in the shared files.
	superseded := map[string]bool{}
	for _, p := range order {
		if p.ForTest != "" && displayPath(p.ImportPath) == p.ForTest {
			superseded[p.ForTest] = true
		}
	}

	var loadErrs []error
	var pkgs []*Package
	for _, p := range order {
		if p.Standard || p.DepOnly || superseded[p.ImportPath] {
			continue
		}
		// Skip the synthesized test-main packages ("pkg.test"): their one
		// generated file is toolchain output, not repo code.
		if strings.HasSuffix(p.ImportPath, ".test") && p.ForTest == "" {
			continue
		}
		if p.Error != nil {
			loadErrs = append(loadErrs, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err))
			continue
		}
		if len(p.files()) == 0 {
			continue
		}
		pkg, err := typecheck(p, byPath)
		if err != nil {
			loadErrs = append(loadErrs, err)
			continue
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, errors.Join(loadErrs...)
}

// typecheck parses one listed package and type-checks it, resolving imports
// through the export data go list compiled for the dependency graph.
func typecheck(p *listPackage, byPath map[string]*listPackage) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range p.files() {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(p.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.ImportPath, err)
		}
		files = append(files, f)
	}
	lookup := func(importPath string) (io.ReadCloser, error) {
		if mapped, ok := p.ImportMap[importPath]; ok {
			importPath = mapped
		}
		dep, ok := byPath[importPath]
		if !ok || dep.Export == "" {
			return nil, fmt.Errorf("no export data for %q", importPath)
		}
		return os.Open(dep.Export)
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg, err := conf.Check(p.ImportPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("%s: %w", p.ImportPath, errors.Join(typeErrs...))
	} else if err != nil {
		return nil, fmt.Errorf("%s: %w", p.ImportPath, err)
	}
	return &Package{
		Path:  displayPath(p.ImportPath),
		Fset:  fset,
		Files: files,
		Pkg:   pkg,
		Info:  info,
	}, nil
}

// Vet loads every package of the module rooted at dir, test files
// included, and runs every applicable analyzer of the suite (All),
// returning the surviving (non-allowlisted) diagnostics sorted by position.
// The returned error covers load/type-check failures only; diagnostics are
// data.
func Vet(dir string) ([]Diagnostic, error) {
	pkgs, err := load(dir)
	var out []Diagnostic
	for _, pkg := range pkgs {
		out = append(out, run(pkg, All())...)
	}
	sortDiagnostics(out)
	return dedupe(out), err
}

// RunPackage applies the analyzers to one already-loaded package: directive
// collection, scope filtering, suppression, reporting. It is the seam the
// atest harness drives with packages it type-checked itself.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	out := run(pkg, analyzers)
	sortDiagnostics(out)
	return dedupe(out)
}

// run applies the analyzers to one loaded package.
func run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	suppress := map[suppressKey]bool{}
	collectDirectives(pkg.Fset, pkg.Files, suppress, &out)
	for _, a := range analyzers {
		if !a.Applies(pkg.Path) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			Path:     pkg.Path,
			suppress: suppress,
			out:      &out,
		}
		a.Run(pass)
	}
	return out
}

// dedupe drops exact-duplicate findings (a file shared between a package
// and a sibling variant can surface the same diagnostic twice). ds must be
// sorted.
func dedupe(ds []Diagnostic) []Diagnostic {
	out := ds[:0]
	for i, d := range ds {
		if i > 0 && d == ds[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}
