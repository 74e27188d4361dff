package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// journalMethods are the serve-package helpers that append a record to the
// write-ahead journal. Registry.AppendJournaled belongs here too: its
// contract runs the journal hook before the in-memory apply, so a call to
// it IS the journal-first pattern.
var journalMethods = map[string]bool{
	"journalAppend":   true,
	"journalFinish":   true,
	"AppendJournaled": true,
}

// registryMutators are the Registry methods that change durable in-memory
// state and therefore must not run before the matching journal record in a
// function that writes one. put registers a dataset from its journal
// record, the path every API registration and replay takes. Reads
// (Get/List/All/Count) are exempt, and AppendJournaled is a journal event,
// not a bare mutation.
var registryMutators = map[string]bool{
	"Append":        true,
	"Delete":        true,
	"put":           true,
	"RegisterTable": true,
	"register":      true,
}

// JournalBefore freezes PR 7's durability fix as a rule: inside
// internal/serve, a function that both journals and mutates registry state
// must journal first. Source order approximates the CFG — a mutation whose
// call site precedes the function's first journal append is flagged. The
// sanctioned patterns are Registry.AppendJournaled (hook runs pre-apply)
// and plain reorder; a deliberate mutate-then-journal (e.g. rollback paths)
// needs //dpc:vet-ok journalbefore <reason>.
var JournalBefore = &Analyzer{
	Name:  "journalbefore",
	Scope: []string{"serve"},
	Run:   runJournalBefore,
}

func runJournalBefore(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkJournalOrder(pass, fn)
		}
	}
}

func checkJournalOrder(pass *Pass, fn *ast.FuncDecl) {
	firstJournal := token.NoPos
	type mutation struct {
		pos  token.Pos
		name string
	}
	var mutations []mutation

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass.Info, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		name := callee.Name()
		switch {
		case journalMethods[name] && callee.Pkg() == pass.Pkg,
			name == "Append" && isJournalLog(callee):
			if !firstJournal.IsValid() || call.Pos() < firstJournal {
				firstJournal = call.Pos()
			}
		case registryMutators[name] && isRegistryMethod(callee):
			mutations = append(mutations, mutation{call.Pos(), name})
		}
		return true
	})

	if !firstJournal.IsValid() {
		return // function never journals; ordering is out of scope here
	}
	for _, m := range mutations {
		if m.pos < firstJournal {
			pass.Reportf(m.pos, "registry mutation %s precedes %s's first journal append; journal before applying (Registry.AppendJournaled, or reorder)", m.name, fn.Name.Name)
		}
	}
}

// isJournalLog reports whether fn is a method on a type from the journal
// package (Log, DirLog, ...), i.e. a raw write-ahead append.
func isJournalLog(fn *types.Func) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	path, _ := namedType(recv.Type())
	return pkgSegment(path) == "journal"
}

// isRegistryMethod reports whether fn is a method on the serve Registry.
func isRegistryMethod(fn *types.Func) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	_, name := namedType(recv.Type())
	return name == "Registry"
}
