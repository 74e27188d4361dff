package analysis

import (
	"go/ast"
	"go/types"
)

// OracleGuard keeps solver entry points oracle-typed: a parameter declared
// as the concrete *metric.DistCache or *metric.Index welds the solver to
// one acceleration structure, where metric.Oracle (exact distances only, so
// the memo, a raw point set and the ROADMAP's out-of-core store all satisfy
// it) slots any of them in.
// The metric package itself is out of scope — it owns the concrete types —
// and deliberate compat shims carry //dpc:vet-ok oracleguard <reason>.
var OracleGuard = &Analyzer{
	Name:  "oracleguard",
	Doc:   "solver functions must accept metric.Oracle, not concrete *DistCache/*Index parameters",
	Scope: []string{"kmedian", "kcenter", "core", "uncertain", "central", "stream", "protocol"},
	Run:   runOracleGuard,
}

func runOracleGuard(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var params *ast.FieldList
			switch fn := n.(type) {
			case *ast.FuncDecl:
				params = fn.Type.Params
			case *ast.FuncLit:
				params = fn.Type.Params
			default:
				return true
			}
			checkOracleParams(pass, params)
			return true
		})
	}
}

func checkOracleParams(pass *Pass, params *ast.FieldList) {
	if params == nil {
		return
	}
	for _, field := range params.List {
		if name := concreteOracle(pass.TypeOf(field.Type)); name != "" {
			pass.Reportf(field.Type.Pos(), "parameter typed as concrete metric.%s; accept metric.Oracle so other oracles (cache, index, out-of-core) slot in", name)
		}
	}
}

// concreteOracle reports the offending type name when t (possibly behind a
// pointer or slice) is metric.DistCache or metric.Index.
func concreteOracle(t types.Type) string {
	if t == nil {
		return ""
	}
	if s, ok := t.Underlying().(*types.Slice); ok {
		t = s.Elem()
	}
	path, name := namedType(t)
	if pkgSegment(path) != "metric" {
		return ""
	}
	if name == "DistCache" || name == "Index" {
		return name
	}
	return ""
}
