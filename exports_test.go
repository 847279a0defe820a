package sdscale_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// testOnlyAllowed lists the exported names under internal/ that no
// production file uses and that stay anyway, each with the test in another
// package that has no other way to observe the behaviour.
var testOnlyAllowed = map[string]string{
	"controlalg.SplitProportional": "the oracle of controller's TestComputeFlatRulesEquivalence, TestComputePeerRulesEquivalence and TestDelegateRulesEquivalence, which compare the inlined proportional split against it",
	"shard.Router.EnforceUniform":  "library users reach it as sdscale.Deployment's Router.EnforceUniform, the cross-shard job-wide rule the façade documents, which no program in this module issues; root's TestTopologySharded and cluster's TestShardedEnforceUniform pin it",
	"shard.Router.Move":            "cluster's TestShardedMoveAndRebalance, TestShardedDuplicateRegisterAfterMove and TestShardedRebalanceRaceWithCycles put a child off its placement shard, which no production call leaves behind",
	"simnet.Host.ConnCount":        "rpc's TestServerCloseRacingHandoffs and controller's TestRedialCloseDuringSweepLeaksNothing count the connections a closed server or controller leaves at its host",
}

// TestNoTestOnlyExports: every exported name declared under internal/ is
// used by a file that is not a test, in this module or in bench/. A name
// only tests reach is surface kept for its own sake: give it a production
// caller, delete it, or list it in testOnlyAllowed with the reason.
func TestNoTestOnlyExports(t *testing.T) {
	unused, stale, err := testOnlyExports(os.DirFS("."), testOnlyAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range unused {
		t.Errorf("%s: only tests use it", n)
	}
	for _, n := range stale {
		t.Errorf("testOnlyAllowed lists %s, which is used outside tests or not declared", n)
	}
}

// TestTestOnlyExportsChecker runs the checker on small in-memory modules: a
// main package that uses internal/a, and internal/a with its test file.
func TestTestOnlyExportsChecker(t *testing.T) {
	const cmd = "package main\n\nimport (\n\t\"fmt\"\n\n\t\"example.com/m/internal/a\"\n)\n\nfunc main() { fmt.Println(a.Used()) }\n"
	tests := []struct {
		name    string
		a, test string
		allowed map[string]string
		want    []string
	}{{
		name: "func used only by a test",
		a:    "package a\n\nfunc Used() int { return Helper() }\n\nfunc Helper() int { return 1 }\n\nfunc TestOnly() int { return TestOnly() }\n",
		test: "package a\n\nvar _ = TestOnly()\n",
		want: []string{"a.TestOnly"},
	}, {
		name: "type used only by its own receivers",
		a:    "package a\n\ntype T struct{ n int }\n\nfunc (t *T) Get() *T { return &T{n: t.n} }\n\nfunc Used() int { return 1 }\n",
		test: "package a\n\nvar _ = (&T{}).Get()\n",
		want: []string{"a.T", "a.T.Get"},
	}, {
		name: "methods that satisfy interfaces",
		a: "package a\n\nimport \"strconv\"\n\ntype Sizer interface{ Size() int }\n\n" +
			"type T struct{ n int }\n\nfunc (t T) Size() int { return t.n }\n\nfunc (t T) String() string { return strconv.Itoa(t.n) }\n\n" +
			"func Total(s Sizer) int { return s.Size() }\n\nfunc Used() int { return Total(T{}) }\n",
		test: "package a\n",
		want: nil,
	}, {
		name:    "allow-listed name",
		a:       "package a\n\nfunc Used() int { return 1 }\n\nfunc Probe() int { return 2 }\n",
		test:    "package a\n\nvar _ = Probe()\n",
		allowed: map[string]string{"a.Probe": "TestProbe in package b has no other way in"},
		want:    nil,
	}, {
		name:    "stale allow-list entry",
		a:       "package a\n\nfunc Used() int { return 1 }\n",
		test:    "package a\n",
		allowed: map[string]string{"a.Used": "main calls it", "a.Gone": "deleted"},
		want:    []string{"stale a.Gone", "stale a.Used"},
	}}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			fsys := fstest.MapFS{
				"go.mod":               {Data: []byte("module example.com/m\n\ngo 1.22\n")},
				"cmd/m/main.go":        {Data: []byte(cmd)},
				"internal/a/a.go":      {Data: []byte(tc.a)},
				"internal/a/a_test.go": {Data: []byte(tc.test)},
			}
			unused, stale, err := testOnlyExports(fsys, tc.allowed)
			if err != nil {
				t.Fatal(err)
			}
			got := unused
			for _, s := range stale {
				got = append(got, "stale "+s)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("reported %q, want %q", got, tc.want)
			}
		})
	}
}

// testOnlyExports type-checks the non-test Go files of every module in fsys
// (a go.mod in a subdirectory, such as bench/, starts another) and returns,
// sorted, the exported names declared under an internal/ directory that none
// of those files uses, less the allowed ones, as "pkg.Name" or
// "pkg.Type.Member". A use inside the name's own declaration, or a type's use
// inside its own methods, does not count. A method counts as used when its
// type implements an interface, of the repository or of a standard-library
// package it imports, that has the method. stale lists the allowed names that
// are used or not declared.
func testOnlyExports(fsys fs.FS, allowed map[string]string) (unused, stale []string, err error) {
	l := &exportLoader{
		fsys:  fsys,
		fset:  token.NewFileSet(),
		dirs:  map[string]string{},
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		std:   importer.Default(),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	if err := l.scan(); err != nil {
		return nil, nil, err
	}
	imports := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		imports = append(imports, p)
	}
	sort.Strings(imports)
	for _, p := range imports {
		if _, err := l.Import(p); err != nil {
			return nil, nil, err
		}
	}

	names := map[types.Object]string{}
	for _, p := range imports {
		if strings.Contains("/"+l.dirs[p]+"/", "/internal/") {
			addExported(names, l.pkgs[p])
		}
	}
	used := l.used()
	allowedUnused := map[string]bool{}
	for obj, n := range names {
		if used[obj] {
			continue
		}
		if _, ok := allowed[n]; ok {
			allowedUnused[n] = true
		} else {
			unused = append(unused, n)
		}
	}
	for n := range allowed {
		if !allowedUnused[n] {
			stale = append(stale, n)
		}
	}
	sort.Strings(unused)
	sort.Strings(stale)
	return unused, stale, nil
}

// exportLoader parses and type-checks the repository's packages, importing
// the standard library from export data.
type exportLoader struct {
	fsys  fs.FS
	fset  *token.FileSet
	dirs  map[string]string // import path → directory
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

// scan parses the non-test Go files under the root and maps each directory
// that has any to its import path.
func (l *exportLoader) scan() error {
	mods := map[string]string{} // module root directory → module path
	return fs.WalkDir(l.fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return fs.SkipDir
			}
			if mod, err := fs.ReadFile(l.fsys, path.Join(p, "go.mod")); err == nil {
				for _, line := range strings.Split(string(mod), "\n") {
					if after, ok := strings.CutPrefix(line, "module "); ok {
						mods[p] = strings.TrimSpace(after)
					}
				}
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(l.fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(l.fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := path.Dir(p)
		for root := dir; ; root = path.Dir(root) {
			if mod, ok := mods[root]; ok {
				l.dirs[path.Join(mod, strings.TrimPrefix(strings.TrimPrefix(dir, root), "/"))] = dir
				break
			}
			if root == "." {
				return fmt.Errorf("%s: no go.mod above it", p)
			}
		}
		l.files[dir] = append(l.files[dir], f)
		return nil
	})
}

// Import type-checks a repository package on first use and hands the
// standard library to the export-data importer.
func (l *exportLoader) Import(p string) (*types.Package, error) {
	dir, ok := l.dirs[p]
	if !ok {
		return l.std.Import(p)
	}
	if pkg, ok := l.pkgs[p]; ok {
		return pkg, nil
	}
	pkg, err := (&types.Config{Importer: l}).Check(p, l.fset, l.files[dir], l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[p] = pkg
	return pkg, nil
}

// addExported names every exported object of pkg: package-level objects,
// and the exported methods and named fields of each type it declares.
func addExported(names map[types.Object]string, pkg *types.Package) {
	scope := pkg.Scope()
	for _, n := range scope.Names() {
		obj := scope.Lookup(n)
		if obj.Exported() {
			names[obj] = pkg.Name() + "." + n
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		prefix := pkg.Name() + "." + n + "."
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				names[m] = prefix + m.Name()
			}
		}
		switch u := named.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Exported() && !f.Embedded() {
					names[f] = prefix + f.Name()
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumExplicitMethods(); i++ {
				if m := u.ExplicitMethod(i); m.Exported() {
					names[m] = prefix + m.Name()
				}
			}
		}
	}
}

// used returns the objects that the non-test files use.
func (l *exportLoader) used() map[types.Object]bool {
	used := map[types.Object]bool{}
	own := l.ownSpans()
	for id, obj := range l.info.Uses {
		obj = origin(obj)
		inside := false
		for _, s := range own[obj] {
			inside = inside || (s.Pos() <= id.Pos() && id.Pos() < s.End())
		}
		if !inside {
			used[obj] = true
		}
	}
	// An unkeyed composite literal sets every field.
	for e, tv := range l.info.Types {
		lit, ok := e.(*ast.CompositeLit)
		if !ok || len(lit.Elts) == 0 {
			continue
		}
		if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
			continue
		}
		if s, ok := tv.Type.Underlying().(*types.Struct); ok {
			for i := 0; i < s.NumFields(); i++ {
				used[s.Field(i).Origin()] = true
			}
		}
	}
	l.markImplemented(used)
	return used
}

// ownSpans maps each function to its declaration and each type to its
// declaration and its methods' declarations.
func (l *exportLoader) ownSpans() map[types.Object][]ast.Node {
	own := map[types.Object][]ast.Node{}
	for _, files := range l.files {
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := l.info.Defs[d.Name].(*types.Func)
					own[fn] = append(own[fn], d)
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						t := recv.Type()
						if p, ok := t.(*types.Pointer); ok {
							t = p.Elem()
						}
						if named, ok := t.(*types.Named); ok {
							own[named.Obj()] = append(own[named.Obj()], d)
						}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							tn := l.info.Defs[ts.Name]
							own[tn] = append(own[tn], ts)
						}
					}
				}
			}
		}
	}
	return own
}

// markImplemented marks each method through which a type of the repository
// implements an interface declared in the repository, written in it, or
// declared by a standard-library package it imports.
func (l *exportLoader) markImplemented(used map[types.Object]bool) {
	var ifaces []*types.Interface
	var concrete []types.Type
	seen := map[*types.Package]bool{}
	var addScope func(pkg *types.Package)
	addScope = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			if i, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, i)
			} else if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() == nil && l.pkgs[pkg.Path()] != nil {
				concrete = append(concrete, named, types.NewPointer(named))
			}
		}
		if l.pkgs[pkg.Path()] != nil {
			for _, imp := range pkg.Imports() {
				addScope(imp)
			}
		}
	}
	for _, pkg := range l.pkgs {
		addScope(pkg)
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, tv := range l.info.Types {
		if i, ok := tv.Type.(*types.Interface); ok {
			ifaces = append(ifaces, i)
		}
	}
	for _, v := range concrete {
		for _, i := range ifaces {
			if i.NumMethods() == 0 || !types.Implements(v, i) {
				continue
			}
			for j := 0; j < i.NumMethods(); j++ {
				m := i.Method(j)
				if obj, _, _ := types.LookupFieldOrMethod(v, false, m.Pkg(), m.Name()); obj != nil {
					used[origin(obj)] = true
				}
			}
		}
	}
}

// origin maps a method or field of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
