package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// deadExportAllow lists the exported identifiers under internal/ that no
// non-test code references and that stay anyway, each with its reason.
// A reason is one of: a test reference implementation, golden tooling,
// the client half of a wire message, or a recorded finding.
var deadExportAllow = map[string]string{
	"vm.Disassemble":         "golden tooling: renders the scalar bytecode the testdata/*.disasm goldens pin",
	"vm.VecFunc.Disassemble": "golden tooling: renders the vector bytecode the testdata/vec_*.disasm goldens pin",
	"wire.AppendExecuteRequest": "client half of a wire message: the server decodes execute requests; " +
		"this encodes one, as a Go client would",
	"wire.DecodeExecution": "client half of a wire message: the server encodes executions; this decodes one",
	"wire.DecodeError":     "client half of a wire message: the server encodes error frames; this decodes one",
}

// TestNoDeadExports is the dead-export gate: every exported identifier
// under internal/ — package-level names and the methods of named types —
// must be referenced by some non-test Go code in cmd/, examples/,
// internal/ or the benchmark module, or be on deadExportAllow. A method
// also counts as used when its type satisfies an interface that declares
// it: one declared in this tree, in a package the tree imports (error,
// fmt.Stringer, json.Marshaler, ...), or errors.Unwrap's, since callers
// reach it through the interface. The members of an iota enumeration
// count as used together: they cannot be deleted one by one. Exports
// that only their own package uses are not gated.
func TestNoDeadExports(t *testing.T) {
	sc := &exportScan{
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
		enums: map[types.Object][]types.Object{},
	}
	for _, root := range []struct{ dir, path string }{
		{"cmd", "repro/cmd"}, {"examples", "repro/examples"},
		{"internal", "repro/internal"}, {"benchmark", "repro/benchmark"},
	} {
		if err := sc.findDirs(root.dir, root.path); err != nil {
			t.Fatal(err)
		}
	}
	paths := make([]string, 0, len(sc.dirs))
	for p := range sc.dirs {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	for _, p := range paths {
		if _, err := sc.Import(p); err != nil {
			t.Fatalf("type-check %s: %v", p, err)
		}
	}

	used := map[types.Object]bool{}
	for _, obj := range sc.info.Uses {
		used[origin(obj)] = true
	}
	var ifaces []*types.Interface
	for _, p := range sc.pkgs { // the tree's packages and the standard library's it imports
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	errT := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errT)), false))
	ifaces = append(ifaces, errT.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())

	var dead []string
	for _, p := range paths {
		if !strings.HasPrefix(p, "repro/internal/") {
			continue
		}
		pkg := sc.pkgs[p]
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() && !used[obj] && !slices.ContainsFunc(sc.enums[obj], func(o types.Object) bool { return used[o] }) {
				dead = append(dead, pkg.Name()+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !viaInterface(named, m, ifaces) {
					dead = append(dead, pkg.Name()+"."+name+"."+m.Name())
				}
			}
		}
	}
	for _, id := range dead {
		if _, ok := deadExportAllow[id]; !ok {
			t.Errorf("%s: exported under internal/ but no non-test code references it; delete it or allowlist it with a reason", id)
		}
	}
	for id := range deadExportAllow {
		if !slices.Contains(dead, id) {
			t.Errorf("%s: allowlisted but referenced (or gone); drop its deadExportAllow line", id)
		}
	}
}

// exportScan type-checks the tree's non-test files from source, one
// package per directory, recording every identifier use in one Info.
type exportScan struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path → directory
	pkgs map[string]*types.Package
	info *types.Info
	// enums maps each constant of a const block that uses iota to all
	// the block's constants.
	enums map[types.Object][]types.Object
}

// findDirs records every directory under root that holds non-test Go
// files, under the import path it has below path.
func (sc *exportScan) findDirs(root, path string) error {
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			rel, _ := filepath.Rel(root, filepath.Dir(p))
			sc.dirs[strings.TrimSuffix(path+"/"+filepath.ToSlash(rel), "/.")] = filepath.Dir(p)
		}
		return nil
	})
}

// Import implements types.Importer: the tree's packages from source, the
// standard library from export data.
func (sc *exportScan) Import(path string) (*types.Package, error) {
	if p, ok := sc.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := sc.dirs[path]
	if !ok {
		p, err := sc.std.Import(path)
		if err == nil {
			sc.pkgs[path] = p
		}
		return p, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(sc.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: sc}
	p, err := conf.Check(path, sc.fset, files, sc.info)
	if err != nil {
		return nil, err
	}
	sc.pkgs[path] = p
	for _, f := range files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST || !mentionsIota(gd) {
				continue
			}
			var members []types.Object
			for _, spec := range gd.Specs {
				for _, n := range spec.(*ast.ValueSpec).Names {
					members = append(members, sc.info.Defs[n])
				}
			}
			for _, m := range members {
				sc.enums[m] = members
			}
		}
	}
	return p, nil
}

// mentionsIota reports whether a declaration uses iota.
func mentionsIota(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// viaInterface reports whether method m of named is reachable through an
// interface that named (or a pointer to it) satisfies.
func viaInterface(named *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if !types.Implements(named, it) && !types.Implements(types.NewPointer(named), it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() {
				return true
			}
		}
	}
	return false
}
