package stats

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// standIns is an importer that knows one package, this one, and hands out an
// empty stand-in for every other path: enough for the type checker to say
// which struct a selected counter field belongs to, in milliseconds, with no
// export data. Everything it cannot resolve is an error the caller ignores.
type standIns struct {
	stats *types.Package
	fake  map[string]*types.Package
}

func (im *standIns) Import(p string) (*types.Package, error) {
	if p == "spacejmp/internal/stats" && im.stats != nil {
		return im.stats, nil
	}
	if im.fake[p] == nil {
		im.fake[p] = types.NewPackage(p, path.Base(p))
		im.fake[p].MarkComplete()
	}
	return im.fake[p], nil
}

// checkDir parses and type-checks the non-test sources of one directory.
func checkDir(t *testing.T, fset *token.FileSet, im *standIns, dir, importPath string) (*types.Package, []*ast.File, *types.Info) {
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range pkgs {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: im, Error: func(error) {}}
	pkg, _ := conf.Check(importPath, fset, files, info)
	return pkg, files, info
}

// TestEveryServingLeafWritten keeps TestEveryLeafRecorded's guarantee for the
// blocks no recording method stands in front of. internal/server,
// internal/cluster and internal/tenant count into Server, Cluster and Tenants
// field by field at their own sites, so the script that feeds the golden
// writes those fields itself and proves nothing about them; this test reads
// the sources instead, and names every leaf of the three blocks that no
// non-test file under internal/ writes — selects, that is, for anything but a
// Load or a Snap.
func TestEveryServingLeafWritten(t *testing.T) {
	fset := token.NewFileSet()
	im := &standIns{fake: map[string]*types.Package{}}
	self, files, info := checkDir(t, fset, im, ".", "spacejmp/internal/stats")
	im.stats = self

	// The leaves: every field under the three blocks that is not itself a
	// block of this package or a table of them. (With sync/atomic a stand-in,
	// an atomic.Uint64 is an invalid type — and so, plainly, a leaf.)
	written := map[*types.Var]bool{}
	name := map[*types.Var]string{}
	var leaves func(prefix string, typ types.Type)
	leaves = func(prefix string, typ types.Type) {
		named, _ := typ.(*types.Named)
		if named != nil && named.Obj().Name() == "table" {
			leaves(prefix+"[]", named.TypeArgs().At(0))
			return
		}
		st, _ := typ.Underlying().(*types.Struct)
		if st == nil || named == nil || named.Obj().Name() == "Hist" || named.Obj().Name() == "slotKeys" {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			before := len(name)
			leaves(prefix+"."+f.Name(), f.Type())
			if len(name) == before {
				written[f], name[f] = false, prefix+"."+f.Name()
			}
		}
	}
	live := self.Scope().Lookup("counters").Type().Underlying().(*types.Struct)
	for i := 0; i < live.NumFields(); i++ {
		if f := live.Field(i); f.Name() == "Server" || f.Name() == "Cluster" || f.Name() == "Tenants" {
			leaves(f.Name(), f.Type())
		}
	}
	if len(written) < 50 {
		t.Fatalf("found %d serving leaves; the three blocks have over fifty", len(written))
	}

	scan := func(files []*ast.File, info *types.Info) {
		for _, f := range files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				if sel, ok := n.(*ast.SelectorExpr); ok && info.Selections[sel] != nil {
					if v, ok := info.Selections[sel].Obj().(*types.Var); ok {
						if _, leaf := written[v]; leaf {
							parent, _ := stack[len(stack)-1].(*ast.SelectorExpr)
							if parent == nil || parent.Sel.Name != "Load" && parent.Sel.Name != "Snap" {
								written[v] = true
							}
						}
					}
				}
				stack = append(stack, n)
				return true
			})
		}
	}
	scan(files, info)
	dirs, err := filepath.Glob("../*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() || filepath.Base(dir) == "stats" {
			continue
		}
		_, files, info := checkDir(t, fset, im, dir, "spacejmp/internal/"+filepath.Base(dir))
		scan(files, info)
	}
	for v, ok := range written {
		if !ok {
			t.Errorf("live counter %s: no non-test source under internal/ writes it", name[v])
		}
	}
}
