package vm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// The opcode set is hand-implemented in two dispatch switches: the
// scalar interpreter (run in vm.go), which also executes the vector
// tier's scalarized spans, and the W-lane one (Run in vecrun.go). This
// test reads the package's own source and asserts neither has fallen
// behind opTable, which the compiler cannot see: a missing arm is a
// silent `default`.

func parseSrc(t *testing.T, name string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// iotaNames returns the names of the const block whose first spec is
// typed typ, in declaration order — the name's index is its value.
func iotaNames(t *testing.T, f *ast.File, typ string) []string {
	t.Helper()
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		if id, ok := gd.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); !ok || id.Name != typ {
			continue
		}
		var names []string
		for _, s := range gd.Specs {
			for _, n := range s.(*ast.ValueSpec).Names {
				names = append(names, n.Name)
			}
		}
		return names
	}
	t.Fatalf("no iota const block of type %s", typ)
	return nil
}

// switchArms finds the one `switch <x>.<sel>` in file's method fn and
// maps every identifier in its case lists to that clause's body.
func switchArms(t *testing.T, file, fn, x, sel string) map[string][]ast.Stmt {
	t.Helper()
	var arms map[string][]ast.Stmt
	for _, d := range parseSrc(t, file).Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != fn {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			tag, ok := sw.Tag.(*ast.SelectorExpr)
			if !ok || tag.Sel.Name != sel {
				return true
			}
			if id, ok := tag.X.(*ast.Ident); !ok || id.Name != x {
				return true
			}
			if arms != nil {
				t.Fatalf("%s %s: more than one switch on %s.%s", file, fn, x, sel)
			}
			arms = map[string][]ast.Stmt{}
			for _, s := range sw.Body.List {
				cc := s.(*ast.CaseClause)
				for _, e := range cc.List {
					if id, ok := e.(*ast.Ident); ok {
						arms[id.Name] = cc.Body
					}
				}
			}
			return true
		})
	}
	if arms == nil {
		t.Fatalf("%s %s: no switch on %s.%s", file, fn, x, sel)
	}
	return arms
}

// assigns reports whether the statements assign to the variable name.
func assigns(body []ast.Stmt, name string) (found bool) {
	for _, s := range body {
		ast.Inspect(s, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, l := range as.Lhs {
					if id, ok := l.(*ast.Ident); ok && id.Name == name {
						found = true
					}
				}
			}
			return true
		})
	}
	return found
}

func TestEveryOpcodeHasAnArmInEveryInterpreter(t *testing.T) {
	opSrc := parseSrc(t, "op.go")
	opNames := iotaNames(t, opSrc, "Opcode")
	if len(opNames) != int(opCount)+1 || opNames[opCount] != "opCount" {
		t.Fatalf("Opcode const block has %d names, opCount = %d", len(opNames), opCount)
	}

	// The formats computeScal can tag scalar: every case of its format
	// switch that assigns the scalar flag s.
	scalFmt := map[Fmt]bool{}
	fmtArms := switchArms(t, "vec.go", "computeScal", "info", "Fmt")
	for v, name := range iotaNames(t, opSrc, "Fmt") {
		body, ok := fmtArms[name]
		if !ok {
			t.Errorf("computeScal has no case for %s", name)
		}
		scalFmt[Fmt(v)] = assigns(body, "s")
	}

	scalarArms := switchArms(t, "vm.go", "run", "in", "Op")
	vectorArms := switchArms(t, "vecrun.go", "Run", "in", "Op")

	scalable := 0
	for v, name := range opNames[:opCount] {
		info, ok := LookupOp(Opcode(v))
		if !ok {
			t.Errorf("%s is not registered in opTable", name)
			continue
		}
		if _, ok := vectorArms[name]; !ok {
			t.Errorf("(*VecFunc).Run has no case for %s (%s)", name, info.Name)
		}
		// A span is handed to the scalar interpreter whole, so every
		// opcode that can be tagged scal needs its arm there too.
		why := ""
		if scalFmt[info.Fmt] {
			scalable++
			why = ", which computeScal can tag scal: the vector tier would stop at it as well"
		}
		if _, ok := scalarArms[name]; !ok {
			t.Errorf("(*Func).run has no case for %s (%s)%s", name, info.Name, why)
		}
	}
	if scalable == 0 {
		t.Fatal("no opcode found scalarizable: the computeScal walk matched nothing")
	}
}
