// Package lint holds the repository's design rules as a test.  It has
// test files only and uses the standard library only: it parses and
// type-checks the module's own packages itself, and imports the standard
// library from source, so nothing is fetched or built ahead of it.
//
// The rules, each with a fixture under testdata/ that it must flag:
//
//   - deadCode: a package-level identifier or method under internal/
//     that no non-test code in the module (internal/, cmd/, examples/
//     and the bench module) references outside its own declaration.  A
//     method that implements an interface method is exempt, because it
//     is reached through the interface.
//   - testOnlyKnobs: an exported struct field under internal/ that no
//     non-test code sets, other than to default its zero value inside
//     if x.F == 0, x.F <= 0 or x.F == nil.
//   - writeOnlyFields: a struct field under internal/ that non-test
//     code writes but never reads.  A tagged field counts as read (an
//     encoder reads it), and so does every field of a struct type that
//     non-test code compares with == or !=.
//   - staleDocRefs: a comment that names pkg.Ident or pkg.Type.Member,
//     where pkg is one of the module's packages, and the identifier or
//     member does not exist.
//   - modelState: an unsafe import or a .s file under internal/, or a
//     package-level var in a model package that is not on varAllowlist.
package lint

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// modulePath is the module the tree under repoRoot declares.
const (
	modulePath = "repro"
	repoRoot   = "../.."
)

// modelPackages are the packages whose state is the simulated system's:
// they may hold no mutable package-level state and no unsafe code.
var modelPackages = []string{"internal/apps/", "internal/core", "internal/tmk", "internal/pvm", "internal/vnet", "internal/sim"}

// varAllowlist names the package-level vars a model package may declare.
// Each is assigned once at start-up and never written again.
var varAllowlist = map[string]bool{
	"fft.evolvePhase": true, // twiddle table computed at init
	"core.Seq":        true, // the three paper adapters
	"core.TMK":        true,
	"core.PVM":        true,
}

// pkg is one parsed and type-checked package of the tree.
type pkg struct {
	dir   string // slash-separated, relative to the tree's root
	files []*ast.File
	types *types.Package
	info  *types.Info
	asm   []string // .s files in the directory
}

// tree is every package of one source tree, keyed by import path.
type tree struct {
	pkgs map[string]*pkg
	errs []error
}

// stdImporter is shared by every load: type-checking the standard
// library from source is most of a load's time.
var (
	fset        = token.NewFileSet()
	stdImporter = importer.ForCompiler(fset, "source", nil)
)

// load parses every non-test package under root (skipping testdata and
// hidden directories) and type-checks them, giving each directory the
// import path mod + "/" + its path under root.
func load(t *testing.T, root, mod string) *tree {
	t.Helper()
	tr := &tree{pkgs: map[string]*pkg{}}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if _, none := err.(*build.NoGoError); none || err == nil && len(bp.GoFiles) == 0 {
			return nil // no Go files, or test files only (as here)
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		p := &pkg{dir: rel}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		p.asm = bp.SFiles
		ip := mod
		if rel != "." {
			ip += "/" + rel
		}
		tr.pkgs[ip] = p
		return nil
	})
	if err != nil {
		t.Fatalf("load %s: %v", root, err)
	}
	for _, ip := range slices.Sorted(maps.Keys(tr.pkgs)) {
		tr.check(ip)
	}
	for _, err := range tr.errs {
		t.Errorf("type-check %s: %v", root, err)
	}
	return tr
}

// check type-checks the package at import path ip, and first every
// package of the tree it imports.
func (tr *tree) check(ip string) *types.Package {
	p := tr.pkgs[ip]
	if p.types != nil {
		return p.types
	}
	p.info = &types.Info{
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Types:     map[ast.Expr]types.TypeAndValue{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if _, ok := tr.pkgs[path]; ok {
				return tr.check(path), nil
			}
			return stdImporter.Import(path)
		}),
		Error: func(err error) { tr.errs = append(tr.errs, err) },
	}
	p.types, _ = conf.Check(ip, fset, p.files, p.info)
	return p.types
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// sortedPkgs returns the tree's packages in import-path order.
func (tr *tree) sortedPkgs() []*pkg {
	var ps []*pkg
	for _, ip := range slices.Sorted(maps.Keys(tr.pkgs)) {
		ps = append(ps, tr.pkgs[ip])
	}
	return ps
}

// qualified names obj as pkg.Ident, or pkg.Type.Method for a method.
func qualified(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			name += t.(*types.Named).Obj().Name() + "."
		}
	}
	return name + obj.Name()
}

// origin maps an instantiated generic object to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// deadCode reports package-level identifiers and methods under
// internal/ that nothing but their own declaration references.
func deadCode(tr *tree) []string {
	// Where each object is declared, so that a use inside its own
	// declaration (recursion, a method's receiver type) does not count.
	type span struct{ pos, end token.Pos }
	decl := map[types.Object]span{}
	recvIdents := map[*ast.Ident]bool{}
	for _, p := range tr.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					decl[p.info.Defs[d.Name]] = span{d.Pos(), d.End()}
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recvIdents[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decl[p.info.Defs[s.Name]] = span{s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								decl[p.info.Defs[n]] = span{s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for _, p := range tr.pkgs {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if s, ok := decl[obj]; recvIdents[id] || ok && s.pos <= id.Pos() && id.Pos() < s.end {
				continue
			}
			used[obj] = true
		}
	}
	ifaces := interfaces(tr)
	var out []string
	for _, p := range tr.sortedPkgs() {
		if !strings.HasPrefix(p.dir, "internal/") || p.types.Name() == "main" {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !used[obj] {
				out = append(out, qualified(obj))
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !used[m] && !implementsAny(named, m, ifaces) {
					out = append(out, qualified(m))
				}
			}
		}
	}
	return out
}

// interfaces lists the interfaces whose methods are reached by dynamic
// dispatch: every interface the tree's non-test code declares, each
// instance of a generic one that the code makes (instantiated), and the
// standard ones the tree implements.
func interfaces(tr *tree) []*types.Interface {
	var out []*types.Interface
	for _, p := range tr.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
		out = append(out, instantiated(p)...)
	}
	for _, std := range []struct{ pkg, name string }{{"sort", "Interface"}, {"fmt", "Stringer"}} {
		sp, err := stdImporter.Import(std.pkg)
		if err != nil {
			panic(err)
		}
		out = append(out, sp.Scope().Lookup(std.name).Type().Underlying().(*types.Interface))
	}
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	out = append(out, errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	return out
}

// instantiated lists the generic interfaces p instantiates: where p
// names a generic function or type with type arguments, each interface
// instance in the instance's signature or type, and in its type
// parameters' constraints with the arguments put in.  A method that
// implements Program[O] only for the O its package passes to NewApp is
// reached through that instance alone.
func instantiated(p *pkg) []*types.Interface {
	var out []*types.Interface
	var walk func(t types.Type)
	constraints := func(tps *types.TypeParamList, args *types.TypeList) {
		for i := 0; i < tps.Len(); i++ {
			c, ok := tps.At(i).Constraint().(*types.Named)
			if !ok || c.TypeArgs().Len() == 0 {
				continue
			}
			cargs := make([]types.Type, c.TypeArgs().Len())
			for j := range cargs {
				cargs[j] = c.TypeArgs().At(j)
				if tp, ok := cargs[j].(*types.TypeParam); ok && tp.Index() < args.Len() {
					cargs[j] = args.At(tp.Index())
				}
			}
			if inst, err := types.Instantiate(nil, c.Origin(), cargs, true); err == nil {
				walk(inst)
			}
		}
	}
	walk = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			if t.TypeArgs().Len() == 0 {
				return
			}
			if it, ok := t.Underlying().(*types.Interface); ok {
				out = append(out, it)
			}
			constraints(t.Origin().TypeParams(), t.TypeArgs())
		case *types.Signature:
			for _, vs := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < vs.Len(); i++ {
					walk(vs.At(i).Type())
				}
			}
		}
	}
	for id, inst := range p.info.Instances {
		walk(inst.Type)
		if f, ok := p.info.Uses[id].(*types.Func); ok {
			constraints(f.Origin().Type().(*types.Signature).TypeParams(), inst.TypeArgs)
		}
	}
	return out
}

// implementsAny reports whether m is the method by which named, or a
// pointer to it, implements one of ifaces.
func implementsAny(named *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			has = has || it.Method(i).Name() == m.Name()
		}
		if has && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

// docRef matches pkg.Ident and pkg.Ident.Member in comment text.
var docRef = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Za-z_][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?`)

// fileSuffixes are the extensions that make pkg.x a file name, not a
// reference: "see vnet.go".
var fileSuffixes = map[string]bool{"go": true, "s": true, "json": true, "csv": true, "md": true, "txt": true}

// staleDocRefs reports comments in the tree's non-test files that name
// an identifier or member of one of the tree's packages that does not
// exist.  The bench module is read only as a caller: its comments name
// metrics such as harness.resolve_us in the same form.
func staleDocRefs(tr *tree) []string {
	byName := map[string]*types.Package{}
	for _, p := range tr.pkgs {
		if n := p.types.Name(); n != "main" {
			byName[n] = p.types
		}
	}
	var out []string
	for _, p := range tr.sortedPkgs() {
		if p.dir == "bench" {
			continue
		}
		for _, f := range p.files {
			for _, cg := range f.Comments {
				for _, m := range docRef.FindAllStringSubmatch(cg.Text(), -1) {
					tp := byName[m[1]]
					if tp == nil || fileSuffixes[m[2]] {
						continue
					}
					pos := fset.Position(cg.Pos())
					where := filepath.ToSlash(filepath.Join(p.dir, filepath.Base(pos.Filename))) + ": "
					obj := tp.Scope().Lookup(m[2])
					if obj == nil {
						out = append(out, where+m[0])
						continue
					}
					if m[3] == "" {
						continue
					}
					if o, _, _ := types.LookupFieldOrMethod(obj.Type(), true, tp, m[3]); o == nil {
						out = append(out, where+m[0])
					}
				}
			}
		}
	}
	return out
}

// field is what the tree's non-test code does with one struct field.
type field struct {
	name    string // pkg.Type.Field, through any anonymous struct between
	tagged  bool
	written bool // assigned, incremented, keyed in a literal or addressed
	set     bool // written other than to default its zero value
	read    bool
}

// fields returns every named field of a struct type declared under
// internal/, with what non-test code anywhere in the tree does with it.
func fields(tr *tree) map[*types.Var]*field {
	out := map[*types.Var]*field{}
	var declare func(p *pkg, name string, x ast.Expr)
	declare = func(p *pkg, name string, x ast.Expr) {
		st, ok := x.(*ast.StructType)
		if !ok {
			return
		}
		for _, fl := range st.Fields.List {
			for _, id := range fl.Names {
				out[p.info.Defs[id].(*types.Var)] = &field{name: name + "." + id.Name, tagged: fl.Tag != nil}
				declare(p, name+"."+id.Name, fl.Type)
			}
		}
	}
	for _, p := range tr.sortedPkgs() {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					declare(p, p.types.Name()+"."+ts.Name.Name, ts.Type)
				}
				return true
			})
		}
	}
	var compared func(t types.Type)
	compared = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := range u.NumFields() {
				if f := out[u.Field(i).Origin()]; f != nil {
					f.read = true
				}
				compared(u.Field(i).Type())
			}
		case *types.Array:
			compared(u.Elem())
		}
	}
	for _, p := range tr.pkgs {
		// fieldOf names the field that writing to x writes: x.F, or x.F
		// itself when x indexes it (x.F[i]).
		fieldOf := func(x ast.Expr) (*ast.Ident, *field) {
			for {
				switch e := x.(type) {
				case *ast.ParenExpr:
					x = e.X
				case *ast.IndexExpr:
					x = e.X
				case *ast.SelectorExpr:
					return e.Sel, fieldUse(p, e.Sel, out)
				default:
					return nil, nil
				}
			}
		}
		// if x.F == 0 { ... }: the body, and F.
		type zeroDefault struct {
			body ast.Node
			f    *field
		}
		var defaults []zeroDefault
		writes := map[*ast.Ident]bool{} // field uses that write, and do not read
		write := func(id *ast.Ident, f *field, addressed bool) {
			if f == nil {
				return
			}
			if !addressed {
				writes[id] = true
			}
			f.written = true
			for _, d := range defaults {
				if d.f == f && d.body.Pos() <= id.Pos() && id.Pos() < d.body.End() {
					return
				}
			}
			f.set = true
		}
		for _, file := range p.files {
			// The if statements come before the writes they enclose.
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					if c, ok := n.Cond.(*ast.BinaryExpr); ok && (c.Op == token.EQL || c.Op == token.LEQ) && isZero(p, c.Y) {
						if _, f := fieldOf(c.X); f != nil {
							defaults = append(defaults, zeroDefault{n.Body, f})
						}
					}
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						id, f := fieldOf(l)
						write(id, f, false)
					}
				case *ast.IncDecStmt:
					id, f := fieldOf(n.X)
					write(id, f, false)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						id, f := fieldOf(n.X)
						write(id, f, true)
					}
				case *ast.CompositeLit:
					st, ok := p.info.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							id := kv.Key.(*ast.Ident)
							write(id, fieldUse(p, id, out), false)
						} else if f := out[st.Field(i).Origin()]; f != nil {
							f.written, f.set = true, true
						}
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						compared(p.info.TypeOf(n.X))
					}
				}
				return true
			})
		}
		for id := range p.info.Uses {
			if f := fieldUse(p, id, out); f != nil && !writes[id] {
				f.read = true
			}
		}
	}
	return out
}

// fieldUse returns the field that id, a use in p, names, or nil.
func fieldUse(p *pkg, id *ast.Ident, fs map[*types.Var]*field) *field {
	if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
		return fs[v.Origin()]
	}
	return nil
}

// isZero reports whether x is the literal 0 or nil.
func isZero(p *pkg, x ast.Expr) bool {
	if lit, ok := x.(*ast.BasicLit); ok {
		return lit.Value == "0"
	}
	id, ok := x.(*ast.Ident)
	return ok && p.info.Uses[id] == types.Universe.Lookup("nil")
}

// testOnlyKnobs reports exported struct fields that non-test code never
// sets, other than to default their zero value.
func testOnlyKnobs(fs map[*types.Var]*field) []string {
	var out []string
	for v, f := range fs {
		if v.Exported() && !f.set {
			out = append(out, f.name)
		}
	}
	return out
}

// writeOnlyFields reports struct fields that non-test code writes but
// never reads.
func writeOnlyFields(fs map[*types.Var]*field) []string {
	var out []string
	for _, f := range fs {
		if f.written && !f.read && !f.tagged {
			out = append(out, f.name)
		}
	}
	return out
}

// modelState reports unsafe imports and .s files under internal/, and
// package-level vars of model packages that varAllowlist does not name.
func modelState(tr *tree) []string {
	var out []string
	for _, p := range tr.sortedPkgs() {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, s := range p.asm {
			out = append(out, p.dir+"/"+s+": assembly")
		}
		model := false
		for _, m := range modelPackages {
			model = model || p.dir == m || strings.HasSuffix(m, "/") && strings.HasPrefix(p.dir, m)
		}
		for _, f := range p.files {
			for _, im := range f.Imports {
				if im.Path.Value == `"unsafe"` {
					out = append(out, p.dir+": imports unsafe")
				}
			}
			if !model {
				continue
			}
			for _, d := range f.Decls {
				if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.VAR {
					for _, s := range g.Specs {
						for _, n := range s.(*ast.ValueSpec).Names {
							if q := p.types.Name() + "." + n.Name; n.Name != "_" && !varAllowlist[q] {
								out = append(out, q+": package-level var")
							}
						}
					}
				}
			}
		}
	}
	return out
}

// rules runs every rule over tr.
func rules(tr *tree) map[string][]string {
	fs := fields(tr)
	return map[string][]string{
		"deadCode":        deadCode(tr),
		"testOnlyKnobs":   testOnlyKnobs(fs),
		"writeOnlyFields": writeOnlyFields(fs),
		"staleDocRefs":    staleDocRefs(tr),
		"modelState":      modelState(tr),
	}
}

// TestRepository runs every rule over the module and the bench module,
// which imports it and so counts as a caller.
func TestRepository(t *testing.T) {
	tr := load(t, repoRoot, modulePath)
	for name, found := range rules(tr) {
		sort.Strings(found)
		for _, f := range found {
			t.Errorf("%s: %s", name, f)
		}
	}
}

// TestFixtures checks that each rule flags exactly what its fixture under
// testdata/ plants, and nothing the fixture uses correctly.
func TestFixtures(t *testing.T) {
	tr := load(t, "testdata/fixture", "fixture")
	want := map[string][]string{
		"deadCode": {
			"model.Dead",
			"model.G.Idle",
			"model.OnlySelf",
			"model.T.Dead",
			"model.T.dead",
			"model.dead",
		},
		"testOnlyKnobs": {
			"model.Cfg.Hook",
			"model.Cfg.Positive",
			"model.Cfg.TestOnly",
			"model.Cfg.Zero",
		},
		"writeOnlyFields": {
			"model.counter.n",
		},
		"staleDocRefs": {
			"internal/apps/model/model.go: model.Missing",
			"internal/apps/model/model.go: model.T.Missing",
		},
		"modelState": {
			"internal/apps/model/model.s: assembly",
			"internal/apps/model: imports unsafe",
			"model.mutable: package-level var",
		},
	}
	for name, found := range rules(tr) {
		sort.Strings(found)
		if !slices.Equal(found, want[name]) {
			t.Errorf("%s flags\n\t%s\nwant\n\t%s", name, strings.Join(found, "\n\t"), strings.Join(want[name], "\n\t"))
		}
	}
}
