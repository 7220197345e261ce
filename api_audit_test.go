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

// TestAPIAudit holds every name and knob under internal/ to a program. It
// type-checks every package in the module, then each package's tests, and
// computes what the programs can reach. The roots are the main func of
// every main package, the init funcs and the package-level initializers
// that call a function of the module in every package a program links,
// and the functions of the root package's example_test.go. From a
// reachable body, any reference reaches what it names. A method is also
// reached when reachable code converts its receiver type to an interface,
// explicitly or implicitly (an argument, assignment, return, send or
// composite element), and reachable code or the standard library calls an
// interface method of the same name and signature; every method of a
// named interface in the standard library counts as called, and so do the
// Unwrap, Is and As that errors.Is and errors.As call through anonymous
// interfaces. A converted type converts its components too, since
// reflection-based encoders reach into them. `var _ I = (*T)(nil)` calls
// nothing and so reaches nothing. The audit fails if
//
//   - a top-level func, method, type, var or const declared in a non-test
//     file under internal/ is not reachable. A package whose name ends in
//     "test" is a test helper, as in net/http/httptest: its names need a
//     reference from outside their own package's tests instead, and
//   - an exported struct field of a reachable type under internal/ is
//     written neither by reachable code nor by another package's tests:
//     no composite-literal key, assignment, ++/-- target or &x.F. A field
//     another package's test writes is a test seam, or
//   - a package a program links imports a test helper package.
//
// A name that only tests use belongs in a _test.go file, or in a test
// helper package when tests of several packages share it; a field that
// only its own package's tests set is a constant or an unexported field.
func TestAPIAudit(t *testing.T) {
	findings, err := auditModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestAPIAuditFixture runs the audit on a planted module. It must report
// exactly an unused func, a func only another package's benchmark calls, a
// type and method used only in an interface assertion, a field only its
// own package's test writes, a field nothing writes and a program that
// imports a test helper. A method reached through an implicit conversion
// to an interface, an Error and an Unwrap the error interface and errors.Is
// reach, a field another package's test writes and a func only an example
// reaches through the facade must pass.
func TestAPIAuditFixture(t *testing.T) {
	got, err := auditModule(filepath.Join("testdata", "apiaudit"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"cmd/fixture/main.go:8: program imports test helper example.com/apiaudit/internal/libtest",
		"internal/lib/lib.go:12: unreachable Unused",
		"internal/lib/lib.go:15: unreachable BenchOnly",
		"internal/lib/lib.go:22: no program writes Config.TestSet",
		"internal/lib/lib.go:24: no program writes Config.NeverSet",
		"internal/lib/lib.go:48: unreachable Asserted",
		"internal/lib/lib.go:50: unreachable Asserted.Error",
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
		infos: map[*ast.File]*types.Info{},
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
	infos        map[*ast.File]*types.Info // a program's view of each non-test file, and example_test.go's
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

// helper reports whether path is a test helper package.
func helper(path string) bool { return strings.HasSuffix(path, "test") }

func (a *auditor) check(path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var errs []string
	conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err.Error()) }}
	pkg, _ := conf.Check(path, a.fset, files, info)
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("type-check %s:\n%s", path, strings.Join(errs, "\n"))
	}
	a.checked = append(a.checked, checkedUnit{files, info})
	return pkg, info, nil
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
		files := a.parsed(bp, bp.XTestGoFiles)
		_, info, err := a.check(path+"_test", files, imp)
		if err != nil {
			return err
		}
		if path == a.module {
			for _, f := range files {
				if filepath.Base(a.fset.Position(f.Pos()).Filename) == "example_test.go" {
					a.infos[f] = info
				}
			}
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
	pkg, info, err := a.check(path, files, imp)
	if err != nil {
		return nil, err
	}
	if imp.parent == nil {
		for _, f := range files {
			a.infos[f] = info
		}
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

// findings computes what the programs reach, then reports what the audit
// holds under internal/ against it.
func (a *auditor) findings(base *auditImporter) []string {
	r := a.reach(base)

	used := map[token.Pos][]token.Pos{} // declaration → the identifiers using it
	testWritten := map[token.Pos]bool{} // fields another package's test writes
	for _, u := range a.checked {
		for id, obj := range u.info.Uses {
			used[obj.Pos()] = append(used[obj.Pos()], id.Pos())
		}
		for _, f := range u.files {
			file := a.fset.Position(f.Pos()).Filename
			if !strings.HasSuffix(file, "_test.go") && !helper(a.pathOf(file)) {
				continue
			}
			w := map[token.Pos]bool{}
			markWrites(f, u.info, w)
			for pos := range w {
				if filepath.Dir(a.fset.Position(pos).Filename) != filepath.Dir(file) {
					testWritten[pos] = true
				}
			}
		}
	}

	var out []string
	report := func(pos token.Pos, what string) {
		p := a.fset.Position(pos)
		rel, _ := filepath.Rel(a.root, p.Filename)
		out = append(out, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), p.Line, what))
	}
	for path := range r.linked {
		for _, f := range a.parsed(a.pkgs[path], a.pkgs[path].GoFiles) {
			for _, s := range f.Imports {
				if p := strings.Trim(s.Path.Value, `"`); a.pkgs[p] != nil && helper(p) {
					report(s.Pos(), "program imports test helper "+p)
				}
			}
		}
	}
	for path, bp := range a.pkgs {
		rel, _ := filepath.Rel(a.root, bp.Dir)
		if !strings.HasPrefix(filepath.ToSlash(rel)+"/", "internal/") {
			continue
		}
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
			for _, d := range declIdents(f) {
				if d.id.Name == "_" {
					continue
				}
				name := d.id.Name
				if fd, ok := d.node.(*ast.FuncDecl); ok && fd.Recv != nil {
					name = recvName(fd.Recv.List[0].Type) + "." + name
				}
				switch {
				case helper(path):
					if !referenced(d.id, d.node) {
						report(d.id.Pos(), "unreferenced "+name)
					}
					continue
				case !r.seen[d.id.Pos()]:
					report(d.id.Pos(), "unreachable "+name)
					continue
				}
				ast.Inspect(d.node, func(n ast.Node) bool {
					ts, ok := n.(*ast.TypeSpec)
					if !ok {
						return true
					}
					if st, ok := ts.Type.(*ast.StructType); ok {
						for _, fld := range st.Fields.List {
							for _, id := range fld.Names {
								if id.IsExported() && !r.written[id.Pos()] && !testWritten[id.Pos()] {
									report(id.Pos(), "no program writes "+ts.Name.Name+"."+id.Name)
								}
							}
						}
					}
					return true
				})
			}
		}
	}
	sort.Strings(out)
	return out
}

// pathOf is the import path of the package file belongs to.
func (a *auditor) pathOf(file string) string {
	rel, _ := filepath.Rel(a.root, filepath.Dir(file))
	if rel == "." {
		return a.module
	}
	return a.module + "/" + filepath.ToSlash(rel)
}

// declIdent is one name a top-level declaration declares, and the part of
// the declaration reaching it walks.
type declIdent struct {
	id   *ast.Ident
	node ast.Node
}

// declIdents lists f's top-level names. A const spec without values
// repeats the last one that has them, so it walks that one's type and
// values too.
func declIdents(f *ast.File) []declIdent {
	var out []declIdent
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			out = append(out, declIdent{d.Name, d})
		case *ast.GenDecl:
			var last *ast.ValueSpec
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					out = append(out, declIdent{s.Name, s})
				case *ast.ValueSpec:
					var node ast.Node = s
					if len(s.Values) > 0 {
						last = s
					} else if d.Tok == token.CONST && last != nil {
						node = &ast.GenDecl{Specs: []ast.Spec{last, s}}
					}
					for _, id := range s.Names {
						out = append(out, declIdent{id, node})
					}
				}
			}
		}
	}
	return out
}

// reachability is an RTA-style walk over the bodies the programs reach.
type reachability struct {
	a       *auditor
	decls   map[token.Pos]reachDecl // by the position of the name declared
	linked  map[string]bool         // module packages some program links
	seen    map[token.Pos]bool      // reached declarations
	queue   []reachDecl
	written map[token.Pos]bool            // fields reachable code writes
	conv    map[string]types.Type         // types converted to an interface
	called  map[string][]*types.Signature // interface methods called, by name
}

type reachDecl struct {
	node ast.Node
	info *types.Info
}

func (a *auditor) reach(base *auditImporter) *reachability {
	r := &reachability{
		a:       a,
		decls:   map[token.Pos]reachDecl{},
		linked:  map[string]bool{},
		seen:    map[token.Pos]bool{},
		written: map[token.Pos]bool{},
		conv:    map[string]types.Type{},
		called:  map[string][]*types.Signature{},
	}
	var examples []*ast.File
	for f, info := range a.infos {
		for _, d := range declIdents(f) {
			r.decls[d.id.Pos()] = reachDecl{d.node, info}
		}
		if strings.HasSuffix(a.fset.Position(f.Pos()).Filename, "_test.go") {
			examples = append(examples, f)
		}
	}

	errType := types.Universe.Lookup("error").Type()
	tuple := func(ts ...types.Type) *types.Tuple {
		var vs []*types.Var
		for _, t := range ts {
			vs = append(vs, types.NewParam(token.NoPos, nil, "", t))
		}
		return types.NewTuple(vs...)
	}
	boolType := types.Typ[types.Bool]
	r.call("Unwrap", types.NewSignatureType(nil, nil, nil, nil, tuple(errType), false))
	r.call("Unwrap", types.NewSignatureType(nil, nil, nil, nil, tuple(types.NewSlice(errType)), false))
	r.call("Is", types.NewSignatureType(nil, nil, nil, tuple(errType), tuple(boolType), false))
	r.call("As", types.NewSignatureType(nil, nil, nil, tuple(types.NewInterfaceType(nil, nil)), tuple(boolType), false))
	r.callInterface(errType)
	stdSeen := map[*types.Package]bool{}
	var std func(p *types.Package)
	std = func(p *types.Package) {
		if stdSeen[p] {
			return
		}
		stdSeen[p] = true
		if a.pkgs[p.Path()] == nil {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && !tn.IsAlias() {
					if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() == nil {
						r.callInterface(named)
					}
				}
			}
		}
		for _, q := range p.Imports() {
			std(q)
		}
	}
	for _, pkg := range base.cache {
		std(pkg)
	}

	var link func(path string)
	link = func(path string) {
		if r.linked[path] {
			return
		}
		r.linked[path] = true
		for _, p := range a.pkgs[path].Imports {
			if a.pkgs[p] != nil {
				link(p)
			}
		}
	}
	for path, bp := range a.pkgs {
		if bp.Name == "main" {
			link(path)
		}
	}
	for _, f := range examples {
		for _, s := range f.Imports {
			if p := strings.Trim(s.Path.Value, `"`); a.pkgs[p] != nil {
				link(p)
			}
		}
		for _, d := range declIdents(f) {
			r.mark(d.id.Pos())
		}
	}
	for path := range r.linked {
		for _, f := range a.parsed(a.pkgs[path], a.pkgs[path].GoFiles) {
			info := a.infos[f]
			for _, d := range declIdents(f) {
				switch n := d.node.(type) {
				case *ast.FuncDecl:
					if n.Recv == nil && (n.Name.Name == "init" || n.Name.Name == "main" && a.pkgs[path].Name == "main") {
						r.mark(d.id.Pos())
					}
				case *ast.ValueSpec:
					if r.callsModule(n, info) {
						r.mark(d.id.Pos())
					}
				}
			}
		}
	}
	for len(r.queue) > 0 {
		d := r.queue[0]
		r.queue = r.queue[1:]
		var sig *types.Signature
		if fd, ok := d.node.(*ast.FuncDecl); ok {
			sig = d.info.Defs[fd.Name].Type().(*types.Signature)
		}
		ast.Walk(&reachWalker{r, d.info, sig}, d.node)
		markWrites(d.node, d.info, r.written)
	}
	return r
}

// callsModule reports whether a package-level initializer calls a func
// of the module when the package initializes.
func (r *reachability) callsModule(s *ast.ValueSpec, info *types.Info) bool {
	calls := false
	for _, v := range s.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				var id *ast.Ident
				switch fn := ast.Unparen(n.Fun).(type) {
				case *ast.Ident:
					id = fn
				case *ast.SelectorExpr:
					id = fn.Sel
				}
				if fn, ok := info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && r.a.pkgs[fn.Pkg().Path()] != nil {
					calls = true
				}
			}
			return !calls
		})
	}
	return calls
}

// mark reaches the declaration whose name is at pos, if the module
// declares one there.
func (r *reachability) mark(pos token.Pos) {
	if d, ok := r.decls[pos]; ok && !r.seen[pos] {
		r.seen[pos] = true
		r.queue = append(r.queue, d)
	}
}

// callInterface calls every method of t, if t is an interface.
func (r *reachability) callInterface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			r.call(m.Name(), m.Type().(*types.Signature))
		}
	}
}

// call records a call through an interface method, reaching that method
// on every type already converted.
func (r *reachability) call(name string, sig *types.Signature) {
	for _, s := range r.called[name] {
		if types.Identical(s, sig) {
			return
		}
	}
	r.called[name] = append(r.called[name], sig)
	for _, t := range r.conv {
		r.dispatch(t, name, sig)
	}
}

// dispatch reaches t's method name if its signature is sig.
func (r *reachability) dispatch(t types.Type, name string, sig *types.Signature) {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if m := ms.At(i).Obj(); m.Name() == name && types.Identical(m.Type(), sig) {
			r.mark(m.Pos())
		}
	}
}

// convert records t as converted to an interface, with the types it is
// made of, and reaches its methods that calls already recorded go through.
func (r *reachability) convert(t types.Type) {
	if t == nil || types.IsInterface(t) {
		return
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	key := types.TypeString(t, nil)
	if _, ok := r.conv[key]; ok {
		return
	}
	r.conv[key] = t
	for name, sigs := range r.called {
		for _, sig := range sigs {
			r.dispatch(t, name, sig)
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		r.convert(u.Elem())
	case *types.Slice:
		r.convert(u.Elem())
	case *types.Array:
		r.convert(u.Elem())
	case *types.Chan:
		r.convert(u.Elem())
	case *types.Map:
		r.convert(u.Key())
		r.convert(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			r.convert(u.Field(i).Type())
		}
	}
}

// assign converts src's type if it goes into a value of interface type dst.
func (r *reachability) assign(info *types.Info, dst types.Type, src ast.Expr) {
	if dst != nil && types.IsInterface(dst) {
		r.convert(info.Types[src].Type)
	}
}

// reachWalker walks one reachable body; sig is the enclosing function's.
type reachWalker struct {
	r    *reachability
	info *types.Info
	sig  *types.Signature
}

func (w *reachWalker) Visit(n ast.Node) ast.Visitor {
	r, info := w.r, w.info
	switch n := n.(type) {
	case *ast.FuncLit:
		return &reachWalker{r, info, info.Types[n].Type.(*types.Signature)}
	case *ast.Ident:
		obj := info.Uses[n]
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && types.IsInterface(fn.Type().(*types.Signature).Recv().Type()) {
			r.call(fn.Name(), fn.Type().(*types.Signature))
		} else if obj != nil {
			r.mark(obj.Pos())
		}
		if inst, ok := info.Instances[n]; ok {
			for i := 0; i < inst.TypeArgs.Len(); i++ {
				r.convert(inst.TypeArgs.At(i))
			}
		}
	case *ast.CallExpr:
		fun := info.Types[n.Fun]
		if fun.IsType() {
			for _, arg := range n.Args {
				r.assign(info, fun.Type, arg)
			}
			break
		}
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "panic":
					r.convert(info.Types[n.Args[0]].Type)
				case "append":
					if s, ok := info.Types[n].Type.Underlying().(*types.Slice); ok && n.Ellipsis == token.NoPos {
						for _, arg := range n.Args[1:] {
							r.assign(info, s.Elem(), arg)
						}
					}
				}
				break
			}
		}
		if fun.Type == nil {
			break
		}
		sig, ok := fun.Type.Underlying().(*types.Signature)
		if !ok {
			break
		}
		params := sig.Params()
		if len(n.Args) == 1 && params.Len() > 1 {
			if tup, ok := info.Types[n.Args[0]].Type.(*types.Tuple); ok {
				for i := 0; i < tup.Len() && i < params.Len(); i++ {
					if types.IsInterface(params.At(i).Type()) {
						r.convert(tup.At(i).Type())
					}
				}
				break
			}
		}
		for i, arg := range n.Args {
			switch {
			case sig.Variadic() && i >= params.Len()-1 && n.Ellipsis == token.NoPos:
				r.assign(info, params.At(params.Len()-1).Type().(*types.Slice).Elem(), arg)
			case i < params.Len():
				r.assign(info, params.At(i).Type(), arg)
			}
		}
	case *ast.AssignStmt:
		if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
			for i, lhs := range n.Lhs {
				r.assign(info, info.Types[lhs].Type, n.Rhs[i])
			}
		}
	case *ast.ValueSpec:
		if n.Type != nil {
			for _, v := range n.Values {
				r.assign(info, info.Types[n.Type].Type, v)
			}
		}
	case *ast.ReturnStmt:
		if w.sig != nil && len(n.Results) == w.sig.Results().Len() {
			for i, res := range n.Results {
				r.assign(info, w.sig.Results().At(i).Type(), res)
			}
		}
	case *ast.SendStmt:
		if ch, ok := info.Types[n.Chan].Type.Underlying().(*types.Chan); ok {
			r.assign(info, ch.Elem(), n.Value)
		}
	case *ast.CompositeLit:
		switch u := info.Types[n].Type.Underlying().(type) {
		case *types.Struct:
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if fld, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						r.assign(info, fld.Type(), kv.Value)
					}
				} else {
					r.assign(info, u.Field(i).Type(), e)
				}
			}
		case *types.Slice, *types.Array, *types.Map:
			var key, elem types.Type
			switch u := u.(type) {
			case *types.Slice:
				elem = u.Elem()
			case *types.Array:
				elem = u.Elem()
			case *types.Map:
				key, elem = u.Key(), u.Elem()
			}
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					r.assign(info, key, kv.Key)
					e = kv.Value
				}
				r.assign(info, elem, e)
			}
		}
	}
	return w
}

// markWrites records every struct field n writes: a composite-literal key
// or position, an assignment, a ++/-- target or &x.F.
func markWrites(n ast.Node, info *types.Info, written map[token.Pos]bool) {
	field := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				written[s.Obj().Pos()] = true
			}
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
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
