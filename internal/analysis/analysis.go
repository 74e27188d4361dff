// Package analysis is dpc's static-analysis suite: a small, self-contained
// framework in the shape of golang.org/x/tools/go/analysis plus the two
// analyzers that freeze this repo's cross-cutting invariants as rules —
// determinism of solver results and journal-before-apply durability. Each
// has caught a real defect. TestRepoClean runs them over the whole module,
// test files included, inside `go test ./...`; that test is the gate.
//
// The framework mirrors the x/tools Analyzer/Pass/Diagnostic vocabulary but
// is built purely on the standard library (go/ast, go/types, go/importer
// driven by `go list -export`), so the suite builds and runs in a hermetic
// environment with no module downloads. If the module ever grows a vendored
// x/tools, each analyzer's Run body ports over mechanically.
//
// Suppression directives, checked per diagnostic line (the line itself or
// the line directly above):
//
//	//dpc:nondeterministic-ok <reason>   – allowlists a determinism finding
//	//dpc:vet-ok <analyzer> <reason>     – allowlists a finding of any analyzer
//
// A directive with no reason is itself a diagnostic: allowlisting without
// saying why defeats the point of the audit trail.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// An Analyzer describes one static check. Run reports findings through the
// Pass; it must not retain the Pass after returning.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //dpc:vet-ok
	// directives. Lower-case, no spaces.
	Name string
	// Scope restricts the analyzer to packages whose final import-path
	// segment (with any "_test" suffix stripped, so external test packages
	// inherit their package's scope) matches an entry. Nil means every
	// package.
	Scope []string
	// Run inspects the package behind pass and reports diagnostics.
	Run func(pass *Pass)
}

// All returns the suite: the analyzers Vet (and so TestRepoClean) runs.
func All() []*Analyzer { return []*Analyzer{Determinism, JournalBefore} }

// Applies reports whether the analyzer's Scope admits the package path.
func (a *Analyzer) Applies(pkgPath string) bool {
	return len(a.Scope) == 0 || slices.Contains(a.Scope, strings.TrimSuffix(pkgSegment(pkgPath), "_test"))
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

// String renders the conventional file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// sortDiagnostics orders findings by position then analyzer for stable
// output across runs (the suite's own determinism bar).
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed sources (with comments), test files
	// included.
	Files []*ast.File
	// Pkg and Info are the go/types results for Files.
	Pkg  *types.Package
	Info *types.Info
	// Path is the display import path: the test-variant suffix that go
	// list prints ("pkg [pkg.test]") is stripped.
	Path string

	suppress map[suppressKey]bool
	out      *[]Diagnostic
}

type suppressKey struct {
	file     string
	line     int
	analyzer string
}

// Reportf records a diagnostic at pos unless a directive on the same line,
// or on the line directly above, allowlists this analyzer there.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		if p.suppress[suppressKey{position.Filename, line, p.Analyzer.Name}] {
			return
		}
	}
	*p.out = append(*p.out, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is Info.TypeOf, tolerating a nil expression.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// directivePrefix introduces every dpc vet directive comment.
const directivePrefix = "//dpc:"

// collectDirectives scans a file's comments for suppression directives,
// filling the pass-independent suppression index. Malformed directives
// (unknown verb, a vet-ok analyzer not in All, missing reason) are reported
// as "directive" diagnostics — those are never suppressible.
func collectDirectives(fset *token.FileSet, files []*ast.File, suppress map[suppressKey]bool, out *[]Diagnostic) {
	report := func(pos token.Pos, msg string) {
		position := fset.Position(pos)
		*out = append(*out, Diagnostic{
			Analyzer: "directive",
			File:     position.Filename,
			Line:     position.Line,
			Col:      position.Column,
			Message:  msg,
		})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				verb, rest, _ := strings.Cut(text, " ")
				rest = strings.TrimSpace(rest)
				position := fset.Position(c.Pos())
				switch verb {
				case "nondeterministic-ok":
					if rest == "" {
						report(c.Pos(), "//dpc:nondeterministic-ok needs a reason")
						continue
					}
					suppress[suppressKey{position.Filename, position.Line, "determinism"}] = true
				case "vet-ok":
					name, reason, _ := strings.Cut(rest, " ")
					if name == "" || strings.TrimSpace(reason) == "" {
						report(c.Pos(), "//dpc:vet-ok needs an analyzer name and a reason")
						continue
					}
					if !slices.ContainsFunc(All(), func(a *Analyzer) bool { return a.Name == name }) {
						report(c.Pos(), fmt.Sprintf("//dpc:vet-ok names unknown analyzer %q", name))
						continue
					}
					suppress[suppressKey{position.Filename, position.Line, name}] = true
				default:
					report(c.Pos(), fmt.Sprintf("unknown directive //dpc:%s (want nondeterministic-ok or vet-ok)", verb))
				}
			}
		}
	}
}

// --- shared type helpers used by the analyzers ---

// namedType unwraps pointers and aliases and reports the defining package
// path and type name of a named type, or "" if t is not named.
func namedType(t types.Type) (pkgPath, name string) {
	if t == nil {
		return "", ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return "", ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// pkgSegment returns the final segment of an import path.
func pkgSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// calleeFunc resolves the static *types.Func a call dispatches to, or nil
// for calls through function values, builtins and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}
