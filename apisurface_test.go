// API-surface golden check: the exported identifiers of every public
// SDK package are generated into api.txt, and this test fails when the
// real surface drifts from the committed file — so API changes are
// always deliberate, reviewed diffs. Regenerate with:
//
//	UPDATE_API=1 go test -run TestAPISurfaceGolden .
//
// The companion TestNoInternalImportsInPublicConsumers asserts the
// other half of the API contract: examples and commands build against
// the public SDK only, and the system's own packages never import the
// simulator. TestRelyingPartyNeverLinksTheGuest holds the client side and
// the verifier to that transitively.
package revelio_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
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

// importRules are the import edges the module forbids. Each row names
// the directories it governs (walked recursively), the ones under them
// it exempts, the import-path prefixes their files may not import, and
// whether _test.go files are held to it too.
var importRules = []struct {
	dirs      []string
	exempt    []string
	forbidden []string
	tests     bool
	why       string
}{
	{
		dirs:      []string{"examples", "cmd"},
		forbidden: []string{"revelio/internal/"},
		tests:     true,
		why:       "examples and cmds must consume the public SDK only",
	},
	{
		// The simulator itself and the wiring that stands it up (core,
		// the guest init vm on its hypervisor, and the bench harness)
		// are the only packages under internal/ that may link it.
		dirs: []string{"internal"},
		exempt: []string{
			"internal/amdsp", "internal/hypervisor", "internal/netlab",
			"internal/core", "internal/vm", "internal/bench",
		},
		forbidden: []string{"revelio/internal/amdsp", "revelio/internal/hypervisor", "revelio/internal/netlab"},
		why:       "the system never imports the simulator",
	},
}

// TestNoInternalImportsInPublicConsumers holds every file under each
// importRules row to that row: examples and commands build purely
// against the public SDK, and the system never links the simulated
// hardware it is tested on.
func TestNoInternalImportsInPublicConsumers(t *testing.T) {
	fset := token.NewFileSet()
	for _, rule := range importRules {
		for _, root := range rule.dirs {
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() && slices.Contains(rule.exempt, filepath.ToSlash(path)) {
					return filepath.SkipDir
				}
				if d.IsDir() || !strings.HasSuffix(path, ".go") ||
					(!rule.tests && strings.HasSuffix(path, "_test.go")) {
					return nil
				}
				file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
				if err != nil {
					return fmt.Errorf("parse %s: %w", path, err)
				}
				for _, imp := range file.Imports {
					importPath := strings.Trim(imp.Path.Value, `"`)
					for _, prefix := range rule.forbidden {
						if strings.HasPrefix(importPath, prefix) {
							t.Errorf("%s imports %s — %s", path, importPath, rule.why)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// relyingParty are the packages an end user's side runs — the verifier
// and its formats, the KDS client, RA-TLS, the browser and its extension
// — and guestSide the simulated guest and hardware, which none of them
// may link, directly or through any chain of imports: a relying party
// that links the guest can end up trusting what the guest computes
// instead of checking it.
var (
	relyingParty = []string{
		"internal/attest", "internal/kds", "internal/sev", "internal/ratls",
		"internal/browser", "internal/webext", "internal/cache", "internal/p384",
	}
	guestSide = []string{"internal/vm", "internal/hypervisor", "internal/amdsp", "internal/netlab"}
)

// TestRelyingPartyNeverLinksTheGuest walks the non-test imports of each
// relyingParty package through the module and fails on every guestSide
// package it reaches, printing the chain of imports that reached it.
func TestRelyingPartyNeverLinksTheGuest(t *testing.T) {
	for _, root := range relyingParty {
		via := map[string]string{root: ""} // package -> the package that first imported it
		queue := []string{root}
		for len(queue) > 0 {
			dir := queue[0]
			queue = queue[1:]
			if slices.Contains(guestSide, dir) {
				chain := []string{dir}
				for p := via[dir]; p != ""; p = via[p] {
					chain = append(chain, p)
				}
				slices.Reverse(chain)
				t.Errorf("%s links the guest: %s", root, strings.Join(chain, " → "))
			}
			pkg, err := build.ImportDir(dir, 0)
			if err != nil {
				t.Fatalf("%s: %v", dir, err)
			}
			for _, imp := range pkg.Imports {
				next, ok := strings.CutPrefix(imp, "revelio/")
				if _, seen := via[next]; ok && !seen {
					via[next] = dir
					queue = append(queue, next)
				}
			}
		}
	}
}
