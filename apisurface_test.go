// API-surface golden check: the exported identifiers of every public
// SDK package are generated into api.txt, and this test fails when the
// real surface drifts from the committed file — so API changes are
// always deliberate, reviewed diffs. Regenerate with:
//
//	UPDATE_API=1 go test -run TestAPISurfaceGolden .
//
// The companion TestNoInternalImportsInPublicConsumers asserts the
// other half of the API contract: examples and commands build against
// the public SDK only.
package revelio_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// publicPackages are the SDK's public import paths, relative to the
// module root. Adding a package here (and to api.txt) is how it joins
// the supported surface.
var publicPackages = []string{
	".",
	"attestation",
	"attestation/snp",
	"gateway",
	"webclient",
	"apps/boundary",
	"apps/cryptpad",
	"apps/ic",
	"lint",
}

// surfaceLines parses one package directory (tests excluded) and
// returns a sorted line per exported identifier:
//
//	<pkg>: <kind> <Name>            (func, type, var, const)
//	<pkg>: method <Type>.<Name>     (methods on exported receivers)
func surfaceLines(t *testing.T, dir, importPath string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	seen := map[string]struct{}{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						if d.Name.IsExported() {
							seen["func "+d.Name.Name] = struct{}{}
						}
						continue
					}
					recv := receiverName(d.Recv)
					if recv != "" && ast.IsExported(recv) && d.Name.IsExported() {
						seen["method "+recv+"."+d.Name.Name] = struct{}{}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								seen["type "+s.Name.Name] = struct{}{}
								// Interface methods are part of the surface.
								if iface, ok := s.Type.(*ast.InterfaceType); ok {
									for _, m := range iface.Methods.List {
										for _, name := range m.Names {
											if name.IsExported() {
												seen["method "+s.Name.Name+"."+name.Name] = struct{}{}
											}
										}
									}
								}
							}
						case *ast.ValueSpec:
							kind := "var"
							if d.Tok == token.CONST {
								kind = "const"
							}
							for _, name := range s.Names {
								if name.IsExported() {
									seen[kind+" "+name.Name] = struct{}{}
								}
							}
						}
					}
				}
			}
		}
	}
	lines := make([]string, 0, len(seen))
	for id := range seen {
		lines = append(lines, importPath+": "+id)
	}
	sort.Strings(lines)
	return lines
}

func receiverName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	expr := recv.List[0].Type
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	if gen, ok := expr.(*ast.IndexExpr); ok { // generic receiver
		expr = gen.X
	}
	if ident, ok := expr.(*ast.Ident); ok {
		return ident.Name
	}
	return ""
}

func generateSurface(t *testing.T) string {
	t.Helper()
	var all []string
	for _, rel := range publicPackages {
		importPath := "revelio"
		if rel != "." {
			importPath = "revelio/" + rel
		}
		all = append(all, surfaceLines(t, filepath.FromSlash(rel), importPath)...)
	}
	return strings.Join(all, "\n") + "\n"
}

func TestAPISurfaceGolden(t *testing.T) {
	got := generateSurface(t)
	if os.Getenv("UPDATE_API") != "" {
		if err := os.WriteFile("api.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("api.txt regenerated (%d identifiers)", strings.Count(got, "\n"))
		return
	}
	wantBytes, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatalf("read api.txt (regenerate with UPDATE_API=1 go test -run TestAPISurfaceGolden .): %v", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gotSet := toSet(got)
	wantSet := toSet(want)
	for line := range gotSet {
		if _, ok := wantSet[line]; !ok {
			t.Errorf("new exported identifier not in api.txt: %s", line)
		}
	}
	for line := range wantSet {
		if _, ok := gotSet[line]; !ok {
			t.Errorf("identifier in api.txt no longer exported: %s", line)
		}
	}
	t.Error("public API surface drifted; if intentional, regenerate: UPDATE_API=1 go test -run TestAPISurfaceGolden .")
}

func toSet(s string) map[string]struct{} {
	set := map[string]struct{}{}
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		if line != "" {
			set[line] = struct{}{}
		}
	}
	return set
}

// TestNoInternalImportsInPublicConsumers asserts that every example and
// command builds purely against the public SDK: no direct
// revelio/internal imports anywhere under examples/ or cmd/.
func TestNoInternalImportsInPublicConsumers(t *testing.T) {
	roots := []string{"examples", "cmd"}
	fset := token.NewFileSet()
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return fmt.Errorf("parse %s: %w", path, err)
			}
			for _, imp := range file.Imports {
				importPath := strings.Trim(imp.Path.Value, `"`)
				if strings.HasPrefix(importPath, "revelio/internal/") {
					t.Errorf("%s imports %s — examples and cmds must consume the public SDK only", path, importPath)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
