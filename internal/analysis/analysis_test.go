package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, map[suppressKey]bool, []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	suppress := map[suppressKey]bool{}
	var out []Diagnostic
	collectDirectives(fset, []*ast.File{f}, suppress, &out)
	return fset, suppress, out
}

func TestDirectiveRegistersSuppression(t *testing.T) {
	_, suppress, diags := parseOne(t, `package p

//dpc:nondeterministic-ok timing only
var a = 1

//dpc:vet-ok journalbefore rollback after a failed append
var b = 2
`)
	if len(diags) != 0 {
		t.Fatalf("unexpected directive diagnostics: %v", diags)
	}
	if !suppress[suppressKey{"x.go", 3, "determinism"}] {
		t.Error("nondeterministic-ok directive not registered for determinism at line 3")
	}
	if !suppress[suppressKey{"x.go", 6, "journalbefore"}] {
		t.Error("vet-ok directive not registered for journalbefore at line 6")
	}
}

func TestDirectiveWithoutReasonIsDiagnosed(t *testing.T) {
	for _, src := range []string{
		"package p\n\n//dpc:nondeterministic-ok\nvar a = 1\n",
		"package p\n\n//dpc:vet-ok journalbefore\nvar a = 1\n",
		"package p\n\n//dpc:vet-ok\nvar a = 1\n",
	} {
		_, suppress, diags := parseOne(t, src)
		if len(diags) != 1 {
			t.Errorf("src %q: got %d diagnostics, want 1 (missing reason)", src, len(diags))
			continue
		}
		if !strings.Contains(diags[0].Message, "needs a") {
			t.Errorf("src %q: diagnostic %q does not mention the missing reason", src, diags[0].Message)
		}
		if len(suppress) != 0 {
			t.Errorf("src %q: malformed directive still registered a suppression", src)
		}
	}
}

func TestUnknownDirectiveIsDiagnosed(t *testing.T) {
	for src, want := range map[string]string{
		"package p\n\n//dpc:frobnicate because\nvar a = 1\n":                                 "unknown directive",
		"package p\n\n//dpc:vet-ok journalbefor rollback after a failed append\nvar a = 1\n": "unknown analyzer",
	} {
		_, suppress, diags := parseOne(t, src)
		if len(diags) != 1 || !strings.Contains(diags[0].Message, want) {
			t.Errorf("src %q: got %v, want one %q diagnostic", src, diags, want)
		}
		if len(suppress) != 0 {
			t.Errorf("src %q: malformed directive still registered a suppression", src)
		}
	}
}

func TestAnalyzerScopeMatching(t *testing.T) {
	a := &Analyzer{Name: "x", Scope: []string{"serve", "kmedian"}}
	for path, want := range map[string]bool{
		"dpc/internal/serve":      true,
		"dpc/internal/serve_test": true, // external test package inherits scope
		"dpc/internal/kmedian":    true,
		"dpc/internal/metric":     false,
		"serve":                   true,
		"dpc/internal/servex":     false,
	} {
		if got := a.Applies(path); got != want {
			t.Errorf("Applies(%q) = %v, want %v", path, got, want)
		}
	}
	// The shipped scopes follow the code: hull construction and the round
	// switch live in internal/protocol, the dispatcher above them does not
	// compute anything.
	for path, want := range map[string]bool{
		"dpc/internal/protocol": true,
		"dpc/internal/core":     true,
		"dpc/internal/jobwire":  false,
	} {
		if got := Determinism.Applies(path); got != want {
			t.Errorf("Determinism.Applies(%q) = %v, want %v", path, got, want)
		}
	}
	unscoped := &Analyzer{Name: "y"}
	if !unscoped.Applies("anything/at/all") {
		t.Error("analyzer without Scope must apply everywhere")
	}
}

func TestDedupe(t *testing.T) {
	d := Diagnostic{Analyzer: "a", File: "f", Line: 1, Col: 2, Message: "m"}
	ds := []Diagnostic{d, d, {Analyzer: "a", File: "f", Line: 2, Col: 2, Message: "m"}}
	sortDiagnostics(ds)
	if got := dedupe(ds); len(got) != 2 {
		t.Fatalf("dedupe kept %d diagnostics, want 2", len(got))
	}
}

// TestRepoClean is the repo-invariant gate: every analyzer over every
// package of the module, test files included. A finding names its file and
// line; fix the code, or allowlist the line with a directive that says why.
func TestRepoClean(t *testing.T) {
	diags, err := Vet("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}

// TestFuzzSmokeAndScopesMatchTheTree is the repo invariant that keeps CI's
// fuzz smoke steps and the analyzers' scopes in step with the code: every
// fuzz target of the module (benchmark/, its own module, aside) has a
// `go test <pkg> ... -fuzz <Target>` step in .github/workflows/ci.yml, every
// such step names a target that exists in that package, and every
// analyzer's Scope entry names a package of the module. A deleted package
// otherwise leaves a CI step that fails on its first run and a scope entry
// that silently checks nothing.
func TestFuzzSmokeAndScopesMatchTheTree(t *testing.T) {
	const root = "../.."
	targets, segments := moduleFuzzTargets(t, root)
	ci, err := os.ReadFile(filepath.Join(root, ".github/workflows/ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	smoked := map[string]bool{}
	for _, m := range fuzzStep.FindAllStringSubmatch(string(ci), -1) {
		step := m[1] + " " + m[2]
		smoked[step] = true
		if !targets[step] {
			t.Errorf("ci.yml smokes %s, which is not a fuzz target of the module", step)
		}
	}
	for step := range targets {
		if !smoked[step] {
			t.Errorf("fuzz target %s has no -fuzz smoke step in ci.yml", step)
		}
	}
	for _, a := range All() {
		for _, entry := range a.Scope {
			if !segments[entry] {
				t.Errorf("analyzer %s: Scope entry %q matches no package of the module", a.Name, entry)
			}
		}
	}
}

// fuzzStep matches a CI fuzz smoke command: its package and its target.
var fuzzStep = regexp.MustCompile(`go test (\S+) .*-fuzz (\S+)`)

// moduleFuzzTargets walks the module at root, outside benchmark/ and
// testdata, and returns its fuzz targets as "<./pkg> <FuzzName>" and the
// final path segment of every package directory below the root.
func moduleFuzzTargets(t *testing.T, root string) (targets, segments map[string]bool) {
	t.Helper()
	targets, segments = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		pkg := "./" + dir
		if dir == "." {
			pkg = "."
		}
		segments[pkgSegment(dir)] = true
		if !strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				targets[pkg+" "+fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 || !segments["analysis"] {
		t.Fatalf("walked %s: %d fuzz targets, %d packages", root, len(targets), len(segments))
	}
	return targets, segments
}
