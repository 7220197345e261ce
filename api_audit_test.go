package sstd_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestAPIAudit holds every name and knob under internal/ to a caller. It
// type-checks every package in the module, then each package's tests, and
// fails if
//
//   - a top-level func, method, type, var or const declared in a non-test
//     file under internal/ is referenced by neither non-test code anywhere
//     in the module nor another package's tests (a method also counts as
//     referenced when its receiver implements a named interface with that
//     method, declared in the program or in a standard package it
//     imports; Unwrap always counts, since errors.Is and errors.As reach
//     it through an anonymous interface), or
//   - an exported struct field declared under internal/ is never written
//     by any code, tests included: no composite-literal key, assignment,
//     ++/-- target or &x.F.
//
// A name that only its own package's tests use belongs in a _test.go file;
// a field that nothing sets is a constant.
func TestAPIAudit(t *testing.T) {
	findings, err := auditModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestAPIAuditFixture runs the audit on a planted module: of an unused
// func, a method nothing calls but an interface reaches, an Unwrap, a
// field only a test writes and a field nothing writes, it must report
// exactly the func and the never-written field.
func TestAPIAuditFixture(t *testing.T) {
	got, err := auditModule(filepath.Join("testdata", "apiaudit"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib/lib.go:10: unreferenced Unused",
		"internal/lib/lib.go:17: never written Config.NeverSet",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("audit of the fixture:\n got %q\nwant %q", got, want)
	}
}

// auditModule runs the audit on the module rooted at root and returns its
// findings as "file:line: what" lines, sorted, with paths relative to root.
func auditModule(root string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modFile, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	a := &auditor{
		root:  root,
		fset:  token.NewFileSet(),
		pkgs:  map[string]*build.Package{},
		files: map[string]*ast.File{},
	}
	for _, line := range strings.Split(string(modFile), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			a.module = strings.TrimSpace(rest)
		}
	}
	if a.module == "" {
		return nil, errors.New("go.mod names no module")
	}
	a.std = importer.ForCompiler(a.fset, "source", nil)
	if err := a.load(); err != nil {
		return nil, err
	}
	base := &auditImporter{a: a, cache: map[string]*types.Package{}}
	for _, path := range a.sortedPaths() {
		if _, err := base.Import(path); err != nil {
			return nil, err
		}
	}
	for _, path := range a.sortedPaths() {
		if err := a.checkTests(base, path); err != nil {
			return nil, err
		}
	}
	return a.findings(base), nil
}

type checkedUnit struct {
	files []*ast.File
	info  *types.Info
}

type auditor struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*build.Package // by import path
	files        map[string]*ast.File      // parsed once, so positions agree across checks
	checked      []checkedUnit
}

// load lists the module's packages, skipping testdata and hidden
// directories the way the go command does, and parses their files.
func (a *auditor) load() error {
	return filepath.WalkDir(a.root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != a.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(a.root, dir)
		path := a.module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		a.pkgs[path] = bp
		for _, names := range [][]string{bp.GoFiles, bp.TestGoFiles, bp.XTestGoFiles} {
			for _, n := range names {
				file := filepath.Join(dir, n)
				f, err := parser.ParseFile(a.fset, file, nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				a.files[file] = f
			}
		}
		return nil
	})
}

func (a *auditor) sortedPaths() []string {
	paths := make([]string, 0, len(a.pkgs))
	for p := range a.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

func (a *auditor) parsed(bp *build.Package, names ...[]string) []*ast.File {
	var files []*ast.File
	for _, ns := range names {
		for _, n := range ns {
			files = append(files, a.files[filepath.Join(bp.Dir, n)])
		}
	}
	return files
}

func (a *auditor) check(path string, files []*ast.File, imp types.Importer) (*types.Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []string
	conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err.Error()) }}
	pkg, _ := conf.Check(path, a.fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-check %s:\n%s", path, strings.Join(errs, "\n"))
	}
	a.checked = append(a.checked, checkedUnit{files, info})
	return pkg, nil
}

// checkTests type-checks path's in-package tests with its own files, then
// its external tests against that test build, the way go test builds them.
func (a *auditor) checkTests(base *auditImporter, path string) error {
	bp := a.pkgs[path]
	imp := base
	if len(bp.TestGoFiles) > 0 {
		imp = &auditImporter{a: a, parent: base, cache: map[string]*types.Package{}, test: path}
		if _, err := imp.Import(path); err != nil {
			return err
		}
	}
	if len(bp.XTestGoFiles) > 0 {
		if _, err := a.check(path+"_test", a.parsed(bp, bp.XTestGoFiles), imp); err != nil {
			return err
		}
	}
	return nil
}

// auditImporter type-checks the module's own packages from the parsed
// files and hands the standard library to the source importer. One with a
// test path builds that package with its in-package test files and
// rebuilds every module package that depends on it.
type auditImporter struct {
	a      *auditor
	parent *auditImporter
	cache  map[string]*types.Package
	test   string
}

func (imp *auditImporter) Import(path string) (*types.Package, error) {
	a := imp.a
	bp, ok := a.pkgs[path]
	if !ok {
		return a.std.Import(path)
	}
	if pkg, ok := imp.cache[path]; ok {
		return pkg, nil
	}
	if imp.parent != nil && !a.dependsOn(path, imp.test) {
		return imp.parent.Import(path)
	}
	files := a.parsed(bp, bp.GoFiles)
	if path == imp.test {
		files = a.parsed(bp, bp.GoFiles, bp.TestGoFiles)
	}
	pkg, err := a.check(path, files, imp)
	if err != nil {
		return nil, err
	}
	imp.cache[path] = pkg
	return pkg, nil
}

func (a *auditor) dependsOn(path, target string) bool {
	if path == target {
		return true
	}
	for _, p := range a.pkgs[path].Imports {
		if _, ok := a.pkgs[p]; ok && a.dependsOn(p, target) {
			return true
		}
	}
	return false
}

// findings walks every checked package for uses and field writes, then
// reports the declarations under internal/ that have neither.
func (a *auditor) findings(base *auditImporter) []string {
	used := map[token.Pos][]token.Pos{} // declaration → the identifiers using it
	written := map[token.Pos]bool{}
	for _, u := range a.checked {
		for id, obj := range u.info.Uses {
			used[obj.Pos()] = append(used[obj.Pos()], id.Pos())
		}
		for _, f := range u.files {
			markWrites(f, u.info, written)
		}
	}
	methods := a.interfaceMethods(base)

	var out []string
	report := func(pos token.Pos, what string) {
		p := a.fset.Position(pos)
		rel, _ := filepath.Rel(a.root, p.Filename)
		out = append(out, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), p.Line, what))
	}
	for path, bp := range a.pkgs {
		rel, _ := filepath.Rel(a.root, bp.Dir)
		if !strings.HasPrefix(filepath.ToSlash(rel)+"/", "internal/") {
			continue
		}
		pkg := base.cache[path]
		referenced := func(id *ast.Ident, decl ast.Node) bool {
			for _, u := range used[id.Pos()] {
				if u >= decl.Pos() && u < decl.End() {
					continue // a declaration does not earn its own keep
				}
				file := a.fset.Position(u).Filename
				if !strings.HasSuffix(file, "_test.go") || filepath.Dir(file) != bp.Dir {
					return true
				}
			}
			return false
		}
		for _, f := range a.parsed(bp, bp.GoFiles) {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					switch {
					case d.Recv == nil && (name == "init" || referenced(d.Name, d)):
					case d.Recv == nil:
						report(d.Name.Pos(), "unreferenced "+name)
					case name == "Unwrap" || referenced(d.Name, d) || satisfies(pkg, d, methods):
					default:
						report(d.Name.Pos(), "unreferenced "+recvName(d.Recv.List[0].Type)+"."+name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if !referenced(s.Name, s) {
								report(s.Name.Pos(), "unreferenced "+s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.Name != "_" && !referenced(id, s) {
									report(id.Pos(), "unreferenced "+id.Name)
								}
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							if id.IsExported() && !written[id.Pos()] {
								report(id.Pos(), "never written "+ts.Name.Name+"."+id.Name)
							}
						}
					}
				}
				return true
			})
		}
	}
	sort.Strings(out)
	return out
}

// markWrites records every struct field f writes: a composite-literal key
// or position, an assignment, a ++/-- target or &x.F.
func markWrites(f *ast.File, info *types.Info, written map[token.Pos]bool) {
	field := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				written[s.Obj().Pos()] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			st, ok := info.Types[n].Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && info.Uses[id] != nil {
						written[info.Uses[id].Pos()] = true
					}
				} else {
					written[st.Field(i).Pos()] = true
				}
			}
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				field(e)
			}
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				field(n.Key)
				field(n.Value)
			}
		case *ast.IncDecStmt:
			field(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				field(n.X)
			}
		}
		return true
	})
}

// interfaceMethods indexes, by method name, the named interfaces declared
// in the module and in the standard packages its non-test code imports,
// plus error.
func (a *auditor) interfaceMethods(base *auditImporter) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(obj types.Object) {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			return
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams() != nil {
			return
		}
		if it, ok := named.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
			}
		}
	}
	add(types.Universe.Lookup("error"))
	seen := map[*types.Package]bool{}
	for _, pkg := range base.cache {
		for _, p := range append(pkg.Imports(), pkg) {
			if seen[p] {
				continue
			}
			seen[p] = true
			_, ours := a.pkgs[p.Path()]
			for _, name := range p.Scope().Names() {
				if ours || token.IsExported(name) {
					add(p.Scope().Lookup(name))
				}
			}
		}
	}
	return byName
}

// satisfies reports whether the method d declares is one of a named
// interface's that its receiver type implements.
func satisfies(pkg *types.Package, d *ast.FuncDecl, methods map[string][]*types.Interface) bool {
	tn, ok := pkg.Scope().Lookup(recvName(d.Recv.List[0].Type)).(*types.TypeName)
	if !ok {
		return false
	}
	for _, it := range methods[d.Name.Name] {
		if types.Implements(tn.Type(), it) || types.Implements(types.NewPointer(tn.Type()), it) {
			return true
		}
	}
	return false
}

// recvName is the type name of a method's receiver.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.ParenExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
