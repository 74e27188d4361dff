package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
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
