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

// apiKept names exported identifiers in internal/ that no non-test file
// reads but that stay on purpose, keyed "pkg.Name" or "pkg.Recv.Name",
// one reason each. The seams benchmark/ still calls need no entry: the
// scan counts benchmark/ as a caller.
var apiKept = map[string]string{
	"analysis.Analyzer.AnalyzePartitioned": "README library API: Section IX partitioned analysis",
	"core.System.HandleAttacks":            "README library API: Section IX multi-attack handling",
	"experiments.Figure8PatchSelection":    "Figure 8 patch choice for the tests of two packages (root benchmarks, prog's workload differential)",
	"telemetry.Snapshot.Counter":           "counter read by the telemetry tests of five packages",
	"telemetry.Snapshot.EventsOfKind":      "trace filter used by the telemetry tests of four packages",
}

// implicitMethods are called through standard-library interfaces, so no
// source file names them at the call site.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true,
}

// TestNoTestOnlyAPI fails when an exported func, method, type, const or
// var in internal/ is named by no non-test Go file other than its
// declaration.
// Production packages carry only what the pipeline, the CLIs, the
// examples, the library facade or benchmark/ call; an export only tests
// reach belongs in a _test.go file. The scan matches by name, so a
// method counts as used when any selector anywhere has its name.
func TestNoTestOnlyAPI(t *testing.T) {
	type decl struct {
		key, name string
		pos       token.Pos
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	declare := func(pkg, recv string, id *ast.Ident) {
		key := pkg + "." + id.Name
		if recv != "" {
			key = pkg + "." + recv + "." + id.Name
		}
		declIdents[id] = true
		decls = append(decls, decl{key, id.Name, id.Pos()})
	}
	for _, root := range []string{"internal", "cmd", "examples", "benchmark", "heaptherapy.go"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
			if root != "internal" {
				return nil
			}
			pkg := filepath.Base(filepath.Dir(path))
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					switch {
					case !d.Name.IsExported():
					case d.Recv == nil:
						declare(pkg, "", d.Name)
					case !implicitMethods[d.Name.Name]:
						declare(pkg, recvName(d.Recv.List[0].Type), d.Name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								declare(pkg, "", s.Name)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									declare(pkg, "", n)
								}
							}
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				used[id.Name] = true
			}
			return true
		})
	}

	var unused []string
	kept := map[string]bool{}
	for _, d := range decls {
		if _, ok := apiKept[d.key]; ok {
			kept[d.key] = true
			if used[d.name] {
				t.Errorf("apiKept entry %s has a non-test caller now; drop it from the list", d.key)
			}
		} else if !used[d.name] {
			unused = append(unused, fset.Position(d.pos).String()+": "+d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but no non-test caller: %s", u)
	}
	for key := range apiKept {
		if !kept[key] {
			t.Errorf("apiKept entry %s names no exported declaration in internal/", key)
		}
	}
}

func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
