package inspire

import (
	"strings"
	"testing"

	"repro/internal/minicl"
)

const vecaddSrc = `
kernel void vecadd(global const float* a, global const float* b,
                   global float* c, int n) {
    int i = get_global_id(0);
    if (i < n) {
        c[i] = a[i] + b[i];
    }
}
`

func mustLower(t *testing.T, src string) *Unit {
	t.Helper()
	u, err := LowerSource("test", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(u); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return u
}

func TestLowerVecadd(t *testing.T) {
	u := mustLower(t, vecaddSrc)
	k := u.Kernel("vecadd")
	if k == nil {
		t.Fatal("kernel vecadd missing")
	}
	if len(k.Params) != 4 {
		t.Fatalf("got %d params, want 4", len(k.Params))
	}
	if k.NumVars != 5 { // 4 params + i
		t.Errorf("NumVars = %d, want 5", k.NumVars)
	}
	// Body: decl i; if.
	if len(k.Body.Stmts) != 2 {
		t.Fatalf("got %d statements, want 2", len(k.Body.Stmts))
	}
	decl, ok := k.Body.Stmts[0].(*Decl)
	if !ok {
		t.Fatalf("first statement %T, want *Decl", k.Body.Stmts[0])
	}
	if _, ok := decl.Init.(*WorkItem); !ok {
		t.Errorf("decl init %T, want *WorkItem", decl.Init)
	}
	ifs, ok := k.Body.Stmts[1].(*If)
	if !ok {
		t.Fatalf("second statement %T, want *If", k.Body.Stmts[1])
	}
	store, ok := ifs.Then.Stmts[0].(*StoreElem)
	if !ok {
		t.Fatalf("then body %T, want *StoreElem", ifs.Then.Stmts[0])
	}
	if store.Buf.Name != "c" {
		t.Errorf("store target %s, want c", store.Buf.Name)
	}
}

func TestLowerCompoundAssign(t *testing.T) {
	u := mustLower(t, `kernel void f(global float* o, int n) {
		float s = 0.0;
		s += 2.0;
		o[0] += s;
	}`)
	k := u.Kernel("f")
	sv, ok := k.Body.Stmts[1].(*StoreVar)
	if !ok {
		t.Fatalf("statement 1 is %T, want *StoreVar", k.Body.Stmts[1])
	}
	bin, ok := sv.Value.(*BinOp)
	if !ok || bin.Op != OpAdd {
		t.Fatalf("compound assign lowered to %s, want (s + 2)", ExprString(sv.Value))
	}
	se, ok := k.Body.Stmts[2].(*StoreElem)
	if !ok {
		t.Fatalf("statement 2 is %T, want *StoreElem", k.Body.Stmts[2])
	}
	binE, ok := se.Value.(*BinOp)
	if !ok || binE.Op != OpAdd {
		t.Fatal("buffer compound assign not expanded to load+add")
	}
	if _, ok := binE.L.(*Load); !ok {
		t.Errorf("compound element assign LHS is %T, want *Load", binE.L)
	}
}

func TestLowerIncDec(t *testing.T) {
	u := mustLower(t, `kernel void f(global int* o) {
		int i = 0;
		i++;
		i--;
		o[0] = i;
	}`)
	k := u.Kernel("f")
	inc := k.Body.Stmts[1].(*StoreVar).Value.(*BinOp)
	if inc.Op != OpAdd {
		t.Errorf("i++ lowered with op %s, want +", inc.Op)
	}
	dec := k.Body.Stmts[2].(*StoreVar).Value.(*BinOp)
	if dec.Op != OpSub {
		t.Errorf("i-- lowered with op %s, want -", dec.Op)
	}
}

func TestLowerImplicitConversion(t *testing.T) {
	u := mustLower(t, `kernel void f(global float* o, int n) {
		o[0] = n;       // int -> float store
		float x = n + 0.5;
		o[1] = x;
	}`)
	k := u.Kernel("f")
	se := k.Body.Stmts[0].(*StoreElem)
	if !se.Value.ExprType().IsFloat() {
		t.Errorf("stored value type %s, want float", se.Value.ExprType())
	}
	if _, ok := se.Value.(*Cast); !ok {
		t.Errorf("int->float store lowered as %T, want *Cast", se.Value)
	}
}

func TestLowerConstFold(t *testing.T) {
	u := mustLower(t, `kernel void f(global float* o) { o[0] = 1 + 0.5; }`)
	se := u.Kernel("f").Body.Stmts[0].(*StoreElem)
	bin := se.Value.(*BinOp)
	if _, ok := bin.L.(*ConstFloat); !ok {
		t.Errorf("int literal in float context lowered as %T, want *ConstFloat", bin.L)
	}
}

func TestLowerIntCondCoercion(t *testing.T) {
	u := mustLower(t, `kernel void f(global int* o, int n) {
		if (n) { o[0] = 1; }
		while (n) { break; }
	}`)
	k := u.Kernel("f")
	ifs := k.Body.Stmts[0].(*If)
	bin, ok := ifs.Cond.(*BinOp)
	if !ok || bin.Op != OpNe {
		t.Errorf("int condition lowered to %s, want (n != 0)", ExprString(ifs.Cond))
	}
}

func TestLowerHelperCall(t *testing.T) {
	u := mustLower(t, `
float sq(float x) { return x * x; }
kernel void f(global float* o) { o[0] = sq(2.0) + sq(3.0); }
`)
	if len(u.Helpers) != 1 {
		t.Fatalf("got %d helpers, want 1", len(u.Helpers))
	}
	k := u.Kernel("f")
	var calls int
	WalkExprs(k.Body, func(e Expr) {
		if cf, ok := e.(*CallFunc); ok {
			calls++
			if cf.Callee != u.Helpers[0] {
				t.Error("call not resolved to helper shell")
			}
		}
	})
	if calls != 2 {
		t.Errorf("found %d helper calls, want 2", calls)
	}
}

func TestLowerBarrier(t *testing.T) {
	u := mustLower(t, `kernel void f(local float* tmp, global float* o) {
		tmp[get_local_id(0)] = 1.0;
		barrier(1);
		o[0] = tmp[0];
	}`)
	k := u.Kernel("f")
	if _, ok := k.Body.Stmts[1].(*Barrier); !ok {
		t.Errorf("statement 1 is %T, want *Barrier", k.Body.Stmts[1])
	}
}

func TestLowerShadowing(t *testing.T) {
	u := mustLower(t, `kernel void f(global int* o, int n) {
		int x = 1;
		for (int i = 0; i < n; i++) {
			int x = 2;
			o[i] = x;
		}
		o[n] = x;
	}`)
	k := u.Kernel("f")
	// Outer x and inner x must be distinct vars: the final store reads the outer one.
	outerDecl := k.Body.Stmts[0].(*Decl)
	lastStore := k.Body.Stmts[2].(*StoreElem)
	vr, ok := lastStore.Value.(*VarRef)
	if !ok {
		t.Fatalf("last store value %T, want *VarRef", lastStore.Value)
	}
	if vr.Var != outerDecl.Var {
		t.Error("outer x reference resolved to inner x")
	}
}

func TestVerifyCatchesBrokenIR(t *testing.T) {
	u := mustLower(t, vecaddSrc)
	k := u.Kernel("vecadd")
	// Introduce an undeclared variable reference.
	rogue := &Var{ID: 99, Name: "rogue", Type: minicl.TypeInt}
	k.Body.Stmts = append(k.Body.Stmts, &StoreVar{Var: rogue, Value: &ConstInt{Value: 1, Typ: minicl.TypeInt}})
	if err := Verify(u); err == nil {
		t.Fatal("Verify accepted IR with undeclared variable")
	}
}

func TestVerifyCatchesConstStore(t *testing.T) {
	u := mustLower(t, vecaddSrc)
	k := u.Kernel("vecadd")
	a := k.Params[0] // global const float*
	k.Body.Stmts = append(k.Body.Stmts, &StoreElem{
		Buf: a, Index: &ConstInt{Value: 0, Typ: minicl.TypeInt}, Value: &ConstFloat{Value: 1},
	})
	if err := Verify(u); err == nil || !strings.Contains(err.Error(), "const") {
		t.Fatalf("Verify error = %v, want const-store violation", err)
	}
}

// TestVerifyCatchesBadBuiltinCall: a builtin call must carry a math
// builtin's registry entry and one argument per parameter.
func TestVerifyCatchesBadBuiltinCall(t *testing.T) {
	sqrt, _ := minicl.LookupBuiltin("sqrt")
	gid, _ := minicl.LookupBuiltin("get_global_id")
	one := &ConstFloat{Value: 1}
	for _, tc := range []struct {
		name string
		call *CallBuiltin
		want string
	}{
		{"no entry", &CallBuiltin{Args: []Expr{one}, Typ: minicl.TypeFloat}, "without a math builtin"},
		{"work-item entry", &CallBuiltin{Builtin: gid, Args: []Expr{one}, Typ: minicl.TypeInt}, "without a math builtin"},
		{"too many args", &CallBuiltin{Builtin: sqrt, Args: []Expr{one, one}, Typ: minicl.TypeFloat}, "with 2 args, want 1"},
		{"no args", &CallBuiltin{Builtin: sqrt, Typ: minicl.TypeFloat}, "with 0 args, want 1"},
	} {
		u := mustLower(t, vecaddSrc)
		k := u.Kernel("vecadd")
		k.Body.Stmts = append(k.Body.Stmts, &Eval{X: tc.call})
		if err := Verify(u); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Verify error = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestPrintRoundTripStable(t *testing.T) {
	u := mustLower(t, vecaddSrc)
	s1 := Print(u)
	s2 := Print(u)
	if s1 != s2 {
		t.Error("Print is not deterministic")
	}
	for _, want := range []string{"kernel vecadd", "get_global_id", "if", "c%2[", "unit test"} {
		if !strings.Contains(s1, want) {
			t.Errorf("printed IR missing %q:\n%s", want, s1)
		}
	}
}
