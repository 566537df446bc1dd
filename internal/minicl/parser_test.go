package minicl

import (
	"strings"
	"testing"
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

func TestParseVecadd(t *testing.T) {
	prog, err := Parse(vecaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.Funcs[0]
	if len(prog.Funcs) != 1 || k.Name != "vecadd" || !k.IsKernel {
		t.Fatalf("functions %v, want kernel vecadd alone", prog.Funcs)
	}
	if len(k.Params) != 4 {
		t.Fatalf("got %d params, want 4", len(k.Params))
	}
	if !k.Params[0].Type.Ptr || k.Params[0].Type.Space != Global || !k.Params[0].Type.Const {
		t.Errorf("param a type = %s, want global const float*", k.Params[0].Type)
	}
	if k.Params[3].Type != TypeInt {
		t.Errorf("param n type = %s, want int", k.Params[3].Type)
	}
	if len(k.Body.Stmts) != 2 {
		t.Fatalf("got %d body statements, want 2", len(k.Body.Stmts))
	}
	if _, ok := k.Body.Stmts[1].(*IfStmt); !ok {
		t.Errorf("second statement is %T, want *IfStmt", k.Body.Stmts[1])
	}
}

func TestParsePrecedence(t *testing.T) {
	prog, err := Parse(`kernel void f(global float* o) { o[0] = 1.0 + 2.0 * 3.0; }`)
	if err != nil {
		t.Fatal(err)
	}
	as := prog.Funcs[0].Body.Stmts[0].(*AssignStmt)
	add, ok := as.Value.(*BinaryExpr)
	if !ok || add.Op != Plus {
		t.Fatalf("top operator = %v, want +", as.Value)
	}
	mul, ok := add.R.(*BinaryExpr)
	if !ok || mul.Op != Star {
		t.Fatalf("right operand = %v, want *", add.R)
	}
}

func TestParseForLoop(t *testing.T) {
	src := `kernel void f(global float* o, int n) {
		float s = 0.0;
		for (int i = 0; i < n; i++) { s += 1.0; }
		o[0] = s;
	}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fs, ok := prog.Funcs[0].Body.Stmts[1].(*ForStmt)
	if !ok {
		t.Fatalf("statement 1 is %T, want *ForStmt", prog.Funcs[0].Body.Stmts[1])
	}
	if _, ok := fs.Init.(*DeclStmt); !ok {
		t.Errorf("for init is %T, want *DeclStmt", fs.Init)
	}
	if _, ok := fs.Post.(*IncDecStmt); !ok {
		t.Errorf("for post is %T, want *IncDecStmt", fs.Post)
	}
}

func TestParseWhileBreakContinue(t *testing.T) {
	src := `kernel void f(global int* o, int n) {
		int i = 0;
		while (i < n) {
			i++;
			if (i == 3) { continue; }
			if (i > 10) { break; }
		}
		o[0] = i;
	}`
	if _, err := Compile(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseTernaryAndCast(t *testing.T) {
	src := `kernel void f(global float* o, int n) {
		float x = (float)n;
		o[0] = n > 0 ? x : -x;
	}`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	decl := prog.Funcs[0].Body.Stmts[0].(*DeclStmt)
	if _, ok := decl.Init.(*CastExpr); !ok {
		t.Errorf("init is %T, want *CastExpr", decl.Init)
	}
	as := prog.Funcs[0].Body.Stmts[1].(*AssignStmt)
	if _, ok := as.Value.(*CondExpr); !ok {
		t.Errorf("value is %T, want *CondExpr", as.Value)
	}
}

func TestParseHelperFunction(t *testing.T) {
	src := `
float square(float x) { return x * x; }
kernel void f(global float* o) { o[0] = square(3.0); }
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Funcs) != 2 {
		t.Fatalf("got %d functions, want 2", len(prog.Funcs))
	}
	if prog.Funcs[0].IsKernel {
		t.Error("helper square marked as kernel")
	}
	if !prog.Funcs[1].IsKernel {
		t.Error("kernel not marked as kernel")
	}
}

func TestParseDanglingElse(t *testing.T) {
	src := `kernel void f(global int* o, int n) {
		if (n > 0)
			if (n > 1) o[0] = 1;
			else o[0] = 2;
	}`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	outer := prog.Funcs[0].Body.Stmts[0].(*IfStmt)
	if outer.Else != nil {
		t.Error("else bound to outer if; want inner")
	}
	inner := outer.Then.Stmts[0].(*IfStmt)
	if inner.Else == nil {
		t.Error("inner if lost its else")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"missing paren", "kernel void f( { }", "expected type"},
		{"missing semi", "kernel void f() { int x = 1 }", "expected ;"},
		{"bad toplevel", "42", "expected type"},
		{"empty", "", "empty program"},
		{"unterminated block", "kernel void f() { int x = 1;", "unterminated block"},
		{"addrspace on scalar", "kernel void f(global int n) { }", "address space qualifier requires a pointer"},
		{"expr expected", "kernel void f() { int x = ; }", "expected expression"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", c.src)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestSemaErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"undefined var", "kernel void f(global int* o) { o[0] = y; }", "undefined variable"},
		{"kernel non void", "kernel int f() { return 1; }", "must return void"},
		{"assign to buffer param", "kernel void f(global int* o) { o = o; }", "cannot assign to buffer parameter"},
		{"store via const", "kernel void f(global const float* a) { a[0] = 1.0; }", "const pointer"},
		{"float index", "kernel void f(global float* o) { o[1.5] = 0.0; }", "index must be integer"},
		{"index scalar", "kernel void f(int n) { n[0]; }", "indexing non-pointer"},
		{"float to int", "kernel void f(global int* o) { int x = 1.5; }", "cannot initialize"},
		{"redeclare", "kernel void f() { int x = 1; int x = 2; }", "redeclaration"},
		{"dup param", "kernel void f(int a, int a) { }", "duplicate parameter"},
		{"break outside", "kernel void f() { break; }", "break outside loop"},
		{"continue outside", "kernel void f() { continue; }", "continue outside loop"},
		{"undefined fn", "kernel void f() { frobnicate(); }", "undefined function"},
		{"call kernel", "kernel void g() { } kernel void f() { g(); }", "cannot call kernel"},
		{"arity", "kernel void f(global float* o) { o[0] = sqrt(1.0, 2.0); }", "expects 1 arguments"},
		{"bad builtin arg", "kernel void f(global float* o, global float* p) { o[0] = sqrt(p); }", "cannot pass"},
		{"dup function", "void h() { } void h() { }", "duplicate function"},
		{"shadow builtin", "void sqrt(float x) { }", "shadows a builtin"},
		{"float mod", "kernel void f(global float* o) { o[0] = 1.5 % 2.0; }", "requires integer operands"},
		{"compare ptr", "kernel void f(global float* a, global float* b, global int* o) { if (a < b) { o[0]=1; } }", "cannot compare"},
		{"inc float", "kernel void f() { float x = 0.0; x++; }", "requires integer target"},
		{"void var", "kernel void f() { void x; }", "void"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.src)
			if err == nil {
				t.Fatalf("Compile succeeded, want error containing %q", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

// TestSemaConstSurvivesCalls pins const in both directions at a helper
// call: a const buffer cannot be passed (directly, or on through a second
// helper) as a pointer it could be written through, while a writable
// buffer may be passed to a helper that promises only to read it.
func TestSemaConstSurvivesCalls(t *testing.T) {
	const poke = "void poke(global float* p, int i) { p[i] = 1.0; }\n"
	const peek = "float peek(global const float* p, int i) { return p[i]; }\n"
	for _, c := range []struct {
		name, src, wantSub string
	}{
		{"drop const", poke + "kernel void f(global const float* a) { poke(a, 0); }",
			"cannot pass global const float* as global float*"},
		{"drop const in a helper", poke + "void relay(global const float* q) { poke(q, 0); }\n" +
			"kernel void f(global const float* a) { relay(a); }",
			"cannot pass global const float* as global float*"},
		{"keep const", peek + "kernel void f(global const float* a, global float* o) { o[0] = peek(a, 0); }", ""},
		{"add const", peek + poke + "kernel void f(global float* o) { poke(o, 1); o[0] = peek(o, 1); }", ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.src)
			switch {
			case c.wantSub == "" && err != nil:
				t.Fatalf("Compile: %v", err)
			case c.wantSub != "" && err == nil:
				t.Fatalf("Compile succeeded, want error containing %q", c.wantSub)
			case c.wantSub != "" && !strings.Contains(err.Error(), c.wantSub):
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestSemaTypesAnnotated(t *testing.T) {
	prog, err := Compile(vecaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.Funcs[0]
	ifs := k.Body.Stmts[1].(*IfStmt)
	if got := ifs.Cond.Type(); !got.IsBool() {
		t.Errorf("condition type = %s, want bool", got)
	}
	as := ifs.Then.Stmts[0].(*AssignStmt)
	if got := as.Value.Type(); !got.IsFloat() {
		t.Errorf("rhs type = %s, want float", got)
	}
}

func TestSemaImplicitConversions(t *testing.T) {
	src := `kernel void f(global float* o, int n) {
		float x = n;        // int -> float init
		x = x + n;          // mixed arithmetic
		uint u = 3;
		int i = u;          // uint -> int
		o[0] = x + i;
	}`
	if _, err := Compile(src); err != nil {
		t.Fatal(err)
	}
}

func TestSemaPolyBuiltins(t *testing.T) {
	src := `kernel void f(global float* o, global int* p, int n) {
		o[0] = min(1.0, 2.0);
		p[0] = max(1, n);
		o[1] = clamp(o[0], 0.0, 1.0);
		p[1] = abs(-3);
	}`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// min(1.0, 2.0) should be float-typed.
	as := prog.Funcs[0].Body.Stmts[0].(*AssignStmt)
	if got := as.Value.Type(); !got.IsFloat() {
		t.Errorf("min(float,float) type = %s, want float", got)
	}
}

func TestSemaBarrierForms(t *testing.T) {
	src := `kernel void f(local float* tmp, global float* o) {
		tmp[get_local_id(0)] = 1.0;
		barrier();
		barrier(1);
		o[0] = tmp[0];
	}`
	if _, err := Compile(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseAllBuiltinsCallable(t *testing.T) {
	src := `kernel void f(global float* o, global int* p, int n) {
		int i = get_global_id(0) + get_local_id(0) + get_group_id(0)
			+ get_global_size(0) + get_local_size(0) + get_num_groups(0);
		float x = 0.5;
		o[0] = sqrt(x) + rsqrt(x) + fabs(x) + exp(x) + log(x) + log2(x)
			+ sin(x) + cos(x) + tan(x) + pow(x, 2.0) + fmin(x, 1.0)
			+ fmax(x, 0.0) + fma(x, x, x) + mad(x, x, x) + floor(x) + ceil(x);
		p[0] = i + min(1, 2) + max(3, 4) + abs(-1) + clamp(n, 0, 7);
	}`
	if _, err := Compile(src); err != nil {
		t.Fatal(err)
	}
}
