package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// solverScope names the packages whose outputs must be bit-identical across
// engines, worker counts and backends (the TestWorkersParity contract) —
// the solvers, and the round skeleton that builds hulls and replays budgets
// from their costs. Order-sensitive constructs inside them are determinism
// bugs by default.
var solverScope = []string{"kmedian", "kcenter", "core", "uncertain", "protocol", "central", "metric", "par"}

// Determinism flags constructs whose result depends on map iteration order,
// wall-clock time, the global rand source, or goroutine scheduling inside
// the solver packages: ranging over a map while appending to a slice,
// accumulating a float or sending on a channel (without a subsequent
// deterministic sort), time.Now, package-level math/rand calls, and select
// statements with multiple sends. Allowlist deliberate sites with
// //dpc:nondeterministic-ok <reason>.
var Determinism = &Analyzer{
	Name:  "determinism",
	Scope: solverScope,
	Run:   runDeterminism,
}

func runDeterminism(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				checkMapRanges(pass, n.List)
			case *ast.CaseClause:
				checkMapRanges(pass, n.Body)
			case *ast.CommClause:
				checkMapRanges(pass, n.Body)
			case *ast.CallExpr:
				checkNondetCall(pass, n)
			case *ast.SelectStmt:
				sends := 0
				for _, clause := range n.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok {
						if _, isSend := cc.Comm.(*ast.SendStmt); isSend {
							sends++
						}
					}
				}
				if sends >= 2 {
					pass.Reportf(n.Select, "select with %d send cases delivers in scheduler order; solver packages must not race results", sends)
				}
			}
			return true
		})
	}
}

// checkNondetCall flags time.Now and the process-global math/rand source.
// Seeded generators (rand.New(rand.NewSource(seed))) are the sanctioned
// idiom and stay silent.
func checkNondetCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Signature().Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(call.Pos(), "time.Now in a solver package: wall clock must not influence results")
		}
	case "math/rand", "math/rand/v2":
		if fn.Name() == "New" || fn.Name() == "NewSource" || fn.Name() == "NewPCG" || fn.Name() == "NewChaCha8" {
			return
		}
		pass.Reportf(call.Pos(), "package-level rand.%s uses the process-global source; derive a seeded *rand.Rand instead", fn.Name())
	}
}

// checkMapRanges scans one statement list for map-range loops whose body
// accumulates order-sensitively, excusing loops followed by a sort in the
// same list.
func checkMapRanges(pass *Pass, list []ast.Stmt) {
	for i, stmt := range list {
		if labeled, ok := stmt.(*ast.LabeledStmt); ok {
			stmt = labeled.Stmt
		}
		rng, ok := stmt.(*ast.RangeStmt)
		if !ok {
			continue
		}
		if t := pass.TypeOf(rng.X); t == nil || !isMap(t) {
			continue
		}
		what := orderSensitiveAccum(pass, rng)
		if what == "" {
			continue
		}
		if sortFollows(pass, list[i+1:]) {
			continue
		}
		pass.Reportf(rng.For, "range over map %s %s with no subsequent deterministic sort; iteration order leaks into results", exprString(rng.X), what)
	}
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// orderSensitiveAccum reports how the loop body accumulates state whose
// final value depends on iteration order: appending to a slice declared
// outside the loop, arithmetic accumulation into an outer float, or a
// channel send. Returns "" when the body is order-safe.
func orderSensitiveAccum(pass *Pass, rng *ast.RangeStmt) string {
	var what string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if what != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			what = "sends to a channel"
		case *ast.AssignStmt:
			what = assignAccum(pass, n, rng)
		}
		return what == ""
	})
	return what
}

// assignAccum classifies one assignment inside a map-range body.
func assignAccum(pass *Pass, assign *ast.AssignStmt, rng *ast.RangeStmt) string {
	switch assign.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if len(assign.Lhs) != 1 {
			return ""
		}
		if target, ok := outerScalar(pass, assign.Lhs[0], rng); ok {
			return "accumulates float " + target
		}
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range assign.Rhs {
			if i >= len(assign.Lhs) {
				break
			}
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" || pass.Info.Uses[id] != types.Universe.Lookup("append") {
				continue
			}
			lhs, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			if obj := pass.Info.ObjectOf(lhs); obj != nil && obj.Pos().IsValid() && obj.Pos() < rng.Pos() {
				return "appends to " + lhs.Name
			}
		}
	}
	return ""
}

// outerScalar reports whether e is a float-typed identifier (or field of
// one) declared before the loop. Accumulating into m[k] while ranging m is
// per-key and stays silent.
func outerScalar(pass *Pass, e ast.Expr, rng *ast.RangeStmt) (string, bool) {
	e = ast.Unparen(e)
	root := e
	if sel, ok := e.(*ast.SelectorExpr); ok {
		root = sel.X
	}
	id, ok := ast.Unparen(root).(*ast.Ident)
	if !ok {
		return "", false
	}
	t := pass.TypeOf(e)
	if t == nil {
		return "", false
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsFloat == 0 {
		return "", false
	}
	obj := pass.Info.ObjectOf(id)
	if obj == nil || !obj.Pos().IsValid() || obj.Pos() >= rng.Pos() {
		return "", false
	}
	return exprString(e), true
}

// sortFollows reports whether any later statement in the same list sorts —
// a call into sort/slices, or a local helper whose name says it sorts.
func sortFollows(pass *Pass, rest []ast.Stmt) bool {
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil {
				return true
			}
			if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "sort" || pkg.Path() == "slices") {
				found = true
			} else if strings.Contains(strings.ToLower(fn.Name()), "sort") {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// exprString renders a short source form of simple expressions for
// diagnostics (identifiers and selector chains; anything else is elided).
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	}
	return "expression"
}
