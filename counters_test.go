package heaptherapy_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestOneStorePerCount fails when a counted event gets a second store
// beside its first. Two shapes are caught in the non-test code of
// internal/:
//
//   - a package that folds a telemetry counter in with Scope.Add and
//     also bumps the same counter with Scope.Inc: the Add reads the
//     package's own Stats, so the Inc counts the event twice;
//   - a function in defense, fleet or serve that increments a field
//     (a Stats field, or a counter atomic through its one-argument Add)
//     and also calls Inc: a Stats field and a telemetry counter kept
//     side by side for one event.
//
// Counters with no Stats twin (double frees, guard and bounds faults,
// shadow's quarantine refusals, heapsim's chunk grants and releases)
// are bumped with Inc in functions that keep no count of their own.
func TestOneStorePerCount(t *testing.T) {
	fset := token.NewFileSet()
	added := map[string]map[string]bool{} // package -> counters folded with Add
	incd := map[string]map[string]token.Pos{}
	var problems []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(path))
		if added[pkg] == nil {
			added[pkg], incd[pkg] = map[string]bool{}, map[string]token.Pos{}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch name := calledMethod(call); {
			case name == "Add" && len(call.Args) == 2:
				if id := counterID(call.Args[0]); id != "" {
					added[pkg][id] = true
				}
			case name == "Inc" && len(call.Args) == 1:
				if id := counterID(call.Args[0]); id != "" {
					incd[pkg][id] = call.Pos()
				}
			}
			return true
		})
		switch pkg {
		case "defense", "fleet", "serve":
		default:
			return nil
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			var bump, inc token.Pos
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IncDecStmt:
					if _, field := n.X.(*ast.SelectorExpr); field && n.Tok == token.INC && !bump.IsValid() {
						bump = n.Pos()
					}
				case *ast.AssignStmt:
					if n.Tok == token.ADD_ASSIGN && mentionsStats(n.Lhs[0]) && !bump.IsValid() {
						bump = n.Pos()
					}
				case *ast.CallExpr:
					switch calledMethod(n) {
					case "Add":
						if len(n.Args) == 1 && !bump.IsValid() {
							bump = n.Pos()
						}
					case "Inc":
						if len(n.Args) == 1 && counterID(n.Args[0]) != "" && !inc.IsValid() {
							inc = n.Pos()
						}
					}
				}
				return true
			})
			if bump.IsValid() && inc.IsValid() {
				problems = append(problems, fset.Position(inc).String()+": "+fn.Name.Name+
					" calls Inc and also increments a count at "+fset.Position(bump).String())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg, ids := range incd {
		for id, pos := range ids {
			if added[pkg][id] {
				problems = append(problems, fset.Position(pos).String()+": package "+pkg+
					" folds "+id+" in with Add and also bumps it with Inc")
			}
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// calledMethod returns the selector name of a method call, "" for any
// other call.
func calledMethod(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// counterID returns the telemetry counter an argument names
// (telemetry.CtrX, or CtrX inside package telemetry), "" otherwise.
func counterID(e ast.Expr) string {
	var name string
	switch e := e.(type) {
	case *ast.SelectorExpr:
		name = e.Sel.Name
	case *ast.Ident:
		name = e.Name
	}
	if strings.HasPrefix(name, "Ctr") {
		return name
	}
	return ""
}

// mentionsStats reports whether an assignment target reaches through a
// field named stats (d.stats.X, h.stats.Y).
func mentionsStats(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "stats" {
			found = true
		}
		return !found
	})
	return found
}
