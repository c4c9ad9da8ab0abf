package faultinject

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestNodeSiteRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 42} {
		for _, c := range []struct {
			site Site
			kind string
		}{{NodeScan(n), "scan"}, {NodeShuffle(n), "shuffle"}} {
			node, kind, ok := NodeSite(c.site)
			if !ok || node != n || kind != c.kind {
				t.Errorf("NodeSite(%q) = (%d, %q, %v), want (%d, %q, true)", c.site, node, kind, ok, n, c.kind)
			}
			if !Registered(c.site) {
				t.Errorf("Registered(%q) = false", c.site)
			}
		}
	}
	for _, bad := range []Site{"node//scan", "node/x/scan", "node/3/", "node/3/write", "node/03/scan", "node/-1/scan", "opt/panic", ""} {
		if _, _, ok := NodeSite(bad); ok {
			t.Errorf("NodeSite(%q) parsed, want rejection", bad)
		}
	}
	if Registered("node/3/write") || Registered("engine/bogus") {
		t.Error("Registered accepted an unknown site")
	}
}

// TestRegistryCoversPackageConstants parses this package's own source
// and asserts every Site-typed constant is in the registry, so a new
// site cannot be added without documenting it.
func TestRegistryCoversPackageConstants(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "faultinject.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var found int
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "Site" {
			return true
		}
		for _, name := range vs.Names {
			for _, v := range vs.Values {
				lit, ok := v.(*ast.BasicLit)
				if !ok {
					continue
				}
				site := Site(strings.Trim(lit.Value, `"`))
				found++
				if !Registered(site) {
					t.Errorf("constant %s = %q is not in the registry", name.Name, site)
				}
			}
		}
		return true
	})
	if found == 0 {
		t.Fatal("found no Site constants — the parser lost track of the declarations")
	}
	// The registry's fixed (non-family) entries must all be reachable
	// as declared constants; a registry row nothing declares is dead.
	declared := map[Site]bool{
		OptPanic: true, OptBudget: true, EnginePanic: true, EngineSlow: true,
		EngineBudget: true,
	}
	for _, info := range Sites() {
		if !info.Family && !declared[info.Site] {
			t.Errorf("registry entry %q has no declared constant", info.Site)
		}
		if info.Doc == "" {
			t.Errorf("registry entry %q has no doc line", info.Site)
		}
	}
}

// TestRepoUsesOnlyRegisteredSites walks every Go file in the module
// and fails on any use of a fault site that bypasses the registry:
// a raw faultinject.Site("...") conversion outside this package, or a
// string literal that names an unregistered site. Typos in stringly-
// typed site names would otherwise arm sites that never fire.
func TestRepoUsesOnlyRegisteredSites(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	pkgDir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || filepath.Dir(path) == pkgDir {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "faultinject" {
				return true
			}
			if sel.Sel.Name != "Site" || len(call.Args) != 1 {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok {
				t.Errorf("%s: computed faultinject.Site(...) conversion — use a registered constant or constructor",
					fset.Position(call.Pos()))
				return true
			}
			site := Site(strings.Trim(lit.Value, `"`))
			if !Registered(site) {
				t.Errorf("%s: faultinject.Site(%q) is not a registered site", fset.Position(call.Pos()), site)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
