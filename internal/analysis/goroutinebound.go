package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// GoroutineBound keeps internal/serve's concurrency bounded: the server's
// whole admission-control story (queue caps, the scheduler's slots,
// per-client quotas) is void if a handler can spawn goroutines proportional to
// request volume or input size. The analyzer flags a `go` statement that
// sits inside a loop, or anywhere in a request handler (a function taking
// net/http's ResponseWriter/*Request), unless a semaphore acquire — a
// channel send — precedes it in the same scope: the counting-semaphore
// idiom (`sem <- struct{}{}` before `go`, receive on exit) is the one
// sanctioned way to spawn per item. Fixed background goroutines (gcLoop,
// a one-off drain helper) are untouched, test files are exempt (a test
// fleet spawning one goroutine per simulated site is bounded by the test,
// not a semaphore), and a deliberate unbounded spawn in production code
// needs //dpc:vet-ok goroutinebound <reason>.
var GoroutineBound = &Analyzer{
	Name:  "goroutinebound",
	Doc:   "in internal/serve, go statements inside loops or request handlers must be bounded by a semaphore acquire (or the scheduler's slots)",
	Scope: []string{"serve"},
	Run:   runGoroutineBound,
}

func runGoroutineBound(pass *Pass) {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var fn *ast.FuncType
			var body *ast.BlockStmt
			var name string
			switch d := n.(type) {
			case *ast.FuncDecl:
				fn, body, name = d.Type, d.Body, d.Name.Name
			case *ast.FuncLit:
				fn, body, name = d.Type, d.Body, "func literal"
			default:
				return true
			}
			if body != nil {
				checkGoStmts(pass, name, body, isRequestHandler(pass, fn.Params))
			}
			// Nested function literals are visited by the enclosing
			// Inspect and analyzed as their own scope above; checkGoStmts
			// itself does not descend into them.
			return true
		})
	}
}

// isRequestHandler reports whether the parameter list marks a per-request
// function: any parameter of net/http's *Request or ResponseWriter type.
func isRequestHandler(pass *Pass, params *ast.FieldList) bool {
	if params == nil {
		return false
	}
	for _, field := range params.List {
		t := pass.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if path, tname := namedType(t); path == "net/http" && (tname == "Request" || tname == "ResponseWriter") {
			return true
		}
	}
	return false
}

// checkGoStmts walks one function body (skipping nested function
// literals, which are scopes of their own) and reports every go statement
// that is inside a loop, or anywhere in a request handler, without a
// preceding channel send in the bounding scope.
func checkGoStmts(pass *Pass, fnName string, body *ast.BlockStmt, handler bool) {
	// Semaphore acquires: every channel send in this function's own scope.
	var sends []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			sends = append(sends, s.Pos())
		}
		return true
	})
	boundedBefore := func(scope ast.Node, pos token.Pos) bool {
		for _, s := range sends {
			if s >= scope.Pos() && s < pos {
				return true
			}
		}
		return false
	}

	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // own scope; no push, no pop event
		}
		if g, ok := n.(*ast.GoStmt); ok {
			if loop := innermostLoop(stack); loop != nil {
				if !boundedBefore(loopBody(loop), g.Pos()) {
					pass.Reportf(g.Pos(), "go statement inside a loop in %s spawns unbounded goroutines; acquire a semaphore slot first or dispatch through the scheduler", fnName)
				}
			} else if handler {
				if !boundedBefore(body, g.Pos()) {
					pass.Reportf(g.Pos(), "go statement in request handler %s spawns one goroutine per request; acquire a semaphore slot first or dispatch through the scheduler", fnName)
				}
			}
		}
		stack = append(stack, n)
		return true
	})
}

// innermostLoop returns the deepest enclosing for/range statement on the
// walk stack, or nil.
func innermostLoop(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return stack[i]
		}
	}
	return nil
}

// loopBody returns the body block of a for or range statement.
func loopBody(loop ast.Node) ast.Node {
	switch l := loop.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return loop
}
