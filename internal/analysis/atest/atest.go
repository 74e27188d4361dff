// Package atest is the test harness for the internal/analysis analyzers, in the
// shape of golang.org/x/tools/go/analysis/analysistest: testdata packages
// live in a GOPATH-style tree (testdata/src/<importpath>/*.go), lines that
// should trigger a diagnostic carry a trailing
//
//	// want "regexp" ["regexp" ...]
//
// comment, and Run fails the test on any missing or unexpected diagnostic.
// Imports inside the tree resolve against the tree first (so fixtures can
// model dpc's own package shapes — a fake journal package — under
// stable import paths) and fall back to the compiler's source importer for
// the standard library, keeping the harness hermetic.
package atest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dpc/internal/analysis"
)

// Run loads the testdata package at srcRoot/<pkgpath>, runs the analyzer
// (scope rules included — an out-of-scope package must produce no
// diagnostics), and diffs the findings against the // want comments.
func Run(t *testing.T, srcRoot string, a *analysis.Analyzer, pkgpath string) {
	t.Helper()
	ld := &loader{
		fset:  token.NewFileSet(),
		root:  srcRoot,
		cache: map[string]*checked{},
	}
	ld.std = importer.ForCompiler(ld.fset, "source", nil)
	target, err := ld.load(pkgpath)
	if err != nil {
		t.Fatalf("loading testdata package %s: %v", pkgpath, err)
	}
	pkg := &analysis.Package{
		Path:  pkgpath,
		Fset:  ld.fset,
		Files: target.files,
		Pkg:   target.pkg,
		Info:  target.info,
	}
	diags := analysis.RunPackage(pkg, []*analysis.Analyzer{a})
	compare(t, ld.fset, target.files, diags)
}

// checked is one type-checked tree package.
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader type-checks testdata packages recursively, sharing one FileSet and
// one stdlib importer so types are identical across the import graph.
type loader struct {
	fset  *token.FileSet
	root  string
	cache map[string]*checked
	std   types.Importer
}

// Import implements types.Importer over the testdata tree with a stdlib
// fallback.
func (ld *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(ld.root, path); dirExists(dir) {
		c, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return c.pkg, nil
	}
	return ld.std.Import(path)
}

func (ld *loader) load(pkgpath string) (*checked, error) {
	if c, ok := ld.cache[pkgpath]; ok {
		return c, nil
	}
	dir := filepath.Join(ld.root, pkgpath)
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		return nil, fmt.Errorf("no Go files under %s", dir)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: ld}
	pkg, err := conf.Check(pkgpath, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", pkgpath, err)
	}
	c := &checked{pkg: pkg, files: files, info: info}
	ld.cache[pkgpath] = c
	return c, nil
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

// want is one expectation: a diagnostic on file:line matching re.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Patterns may be double-quoted or backquoted (the analysistest idiom —
// backquotes keep regex escapes readable).
var wantRE = regexp.MustCompile("//\\s*want((?:\\s+(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`))+)")
var quotedRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// collectWants parses the // want comments out of the package's files.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range quotedRE.FindAllString(m[1], -1) {
					pattern, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pattern, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// compare diffs diagnostics against wants, failing the test on either an
// unexpected diagnostic or an unmet expectation.
func compare(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, files)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	if t.Failed() {
		var all []string
		for _, d := range diags {
			all = append(all, d.String())
		}
		t.Logf("all diagnostics:\n%s", strings.Join(all, "\n"))
	}
}
