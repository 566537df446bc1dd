package minicl

import "fmt"

// scope is a lexically nested symbol table for sema.
type scope struct {
	parent *scope
	vars   map[string]Type
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, vars: map[string]Type{}}
}

func (s *scope) lookup(name string) (Type, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if t, ok := cur.vars[name]; ok {
			return t, true
		}
	}
	return Type{}, false
}

func (s *scope) declare(name string, t Type) bool {
	if _, exists := s.vars[name]; exists {
		return false
	}
	s.vars[name] = t
	return true
}

// checker carries per-function checking state.
type checker struct {
	prog      *Program
	fn        *FuncDecl
	loopDepth int
	helpers   map[string]*FuncDecl
}

// Check type-checks the whole program in place, annotating expression types.
func Check(prog *Program) error {
	helpers := make(map[string]*FuncDecl, len(prog.Funcs))
	for _, f := range prog.Funcs {
		if _, dup := helpers[f.Name]; dup {
			return errf(f.Pos, "duplicate function %q", f.Name)
		}
		if _, isBuiltin := LookupBuiltin(f.Name); isBuiltin {
			return errf(f.Pos, "function %q shadows a builtin", f.Name)
		}
		helpers[f.Name] = f
	}
	for _, f := range prog.Funcs {
		c := &checker{prog: prog, fn: f, helpers: helpers}
		if err := c.checkFunc(f); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkFunc(f *FuncDecl) error {
	if f.IsKernel && !f.Ret.Equal(TypeVoid) {
		return errf(f.Pos, "kernel %q must return void", f.Name)
	}
	sc := newScope(nil)
	for _, p := range f.Params {
		if p.Type.Basic == Void {
			return errf(p.Pos, "parameter %q has void type", p.Name)
		}
		if !sc.declare(p.Name, p.Type) {
			return errf(p.Pos, "duplicate parameter %q", p.Name)
		}
	}
	return c.checkBlock(f.Body, newScope(sc))
}

func (c *checker) checkBlock(b *BlockStmt, sc *scope) error {
	for _, s := range b.Stmts {
		if err := c.checkStmt(s, sc); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt, sc *scope) error {
	switch st := s.(type) {
	case *BlockStmt:
		return c.checkBlock(st, newScope(sc))
	case *DeclStmt:
		if st.Type.Ptr {
			return errf(st.Pos, "local pointer variables are not supported; use buffer parameters")
		}
		if st.Type.Basic == Void {
			return errf(st.Pos, "cannot declare void variable %q", st.Name)
		}
		if st.Init != nil {
			it, err := c.checkExpr(st.Init, sc)
			if err != nil {
				return err
			}
			if !assignable(st.Type, it) {
				return errf(st.Pos, "cannot initialize %s %q with %s", st.Type, st.Name, it)
			}
		}
		if !sc.declare(st.Name, st.Type) {
			return errf(st.Pos, "redeclaration of %q", st.Name)
		}
		return nil
	case *AssignStmt:
		tt, err := c.checkLValue(st.Target, sc)
		if err != nil {
			return err
		}
		vt, err := c.checkExpr(st.Value, sc)
		if err != nil {
			return err
		}
		if st.Op != Assign && !tt.IsNumeric() {
			return errf(st.Pos, "compound assignment requires numeric target, got %s", tt)
		}
		if !assignable(tt, vt) {
			return errf(st.Pos, "cannot assign %s to %s", vt, tt)
		}
		return nil
	case *IncDecStmt:
		tt, err := c.checkLValue(st.Target, sc)
		if err != nil {
			return err
		}
		if !tt.IsInteger() {
			return errf(st.Pos, "++/-- requires integer target, got %s", tt)
		}
		return nil
	case *IfStmt:
		ct, err := c.checkExpr(st.Cond, sc)
		if err != nil {
			return err
		}
		if !condOK(ct) {
			return errf(st.Pos, "if condition must be bool or integer, got %s", ct)
		}
		if err := c.checkBlock(st.Then, newScope(sc)); err != nil {
			return err
		}
		if st.Else != nil {
			return c.checkStmt(st.Else, newScope(sc))
		}
		return nil
	case *ForStmt:
		inner := newScope(sc)
		if st.Init != nil {
			if err := c.checkStmt(st.Init, inner); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			ct, err := c.checkExpr(st.Cond, inner)
			if err != nil {
				return err
			}
			if !condOK(ct) {
				return errf(st.Pos, "for condition must be bool or integer, got %s", ct)
			}
		}
		if st.Post != nil {
			if err := c.checkStmt(st.Post, inner); err != nil {
				return err
			}
		}
		c.loopDepth++
		err := c.checkBlock(st.Body, newScope(inner))
		c.loopDepth--
		return err
	case *WhileStmt:
		ct, err := c.checkExpr(st.Cond, sc)
		if err != nil {
			return err
		}
		if !condOK(ct) {
			return errf(st.Pos, "while condition must be bool or integer, got %s", ct)
		}
		c.loopDepth++
		err = c.checkBlock(st.Body, newScope(sc))
		c.loopDepth--
		return err
	case *ReturnStmt:
		if st.Value == nil {
			if !c.fn.Ret.Equal(TypeVoid) {
				return errf(st.Pos, "missing return value in %q", c.fn.Name)
			}
			return nil
		}
		vt, err := c.checkExpr(st.Value, sc)
		if err != nil {
			return err
		}
		if !assignable(c.fn.Ret, vt) {
			return errf(st.Pos, "cannot return %s from function returning %s", vt, c.fn.Ret)
		}
		return nil
	case *BreakStmt:
		if c.loopDepth == 0 {
			return errf(st.Pos, "break outside loop")
		}
		return nil
	case *ContinueStmt:
		if c.loopDepth == 0 {
			return errf(st.Pos, "continue outside loop")
		}
		return nil
	case *ExprStmt:
		_, err := c.checkExpr(st.X, sc)
		return err
	}
	return fmt.Errorf("minicl: unknown statement %T", s)
}

// checkLValue checks a store target: a scalar variable or a buffer element.
func (c *checker) checkLValue(e Expr, sc *scope) (Type, error) {
	switch t := e.(type) {
	case *Ident:
		ty, ok := sc.lookup(t.Name)
		if !ok {
			return Type{}, errf(t.Pos, "undefined variable %q", t.Name)
		}
		if ty.Ptr {
			return Type{}, errf(t.Pos, "cannot assign to buffer parameter %q", t.Name)
		}
		t.setType(ty)
		return ty, nil
	case *Index:
		bt, err := c.checkExpr(t.Base, sc)
		if err != nil {
			return Type{}, err
		}
		if !bt.Ptr {
			return Type{}, errf(t.Pos, "indexing non-pointer type %s", bt)
		}
		if bt.Const {
			return Type{}, errf(t.Pos, "cannot store through const pointer")
		}
		it, err := c.checkExpr(t.Index, sc)
		if err != nil {
			return Type{}, err
		}
		if !it.IsInteger() {
			return Type{}, errf(t.Pos, "index must be integer, got %s", it)
		}
		el := bt.Elem()
		t.setType(el)
		return el, nil
	}
	return Type{}, errf(e.NodePos(), "invalid assignment target")
}

func (c *checker) checkExpr(e Expr, sc *scope) (Type, error) {
	switch t := e.(type) {
	case *IntLit:
		t.setType(TypeInt)
		return TypeInt, nil
	case *FloatLit:
		t.setType(TypeFloat)
		return TypeFloat, nil
	case *BoolLit:
		t.setType(TypeBool)
		return TypeBool, nil
	case *Ident:
		ty, ok := sc.lookup(t.Name)
		if !ok {
			return Type{}, errf(t.Pos, "undefined variable %q", t.Name)
		}
		t.setType(ty)
		return ty, nil
	case *Index:
		bt, err := c.checkExpr(t.Base, sc)
		if err != nil {
			return Type{}, err
		}
		if !bt.Ptr {
			return Type{}, errf(t.Pos, "indexing non-pointer type %s", bt)
		}
		it, err := c.checkExpr(t.Index, sc)
		if err != nil {
			return Type{}, err
		}
		if !it.IsInteger() {
			return Type{}, errf(t.Pos, "index must be integer, got %s", it)
		}
		el := bt.Elem()
		t.setType(el)
		return el, nil
	case *UnaryExpr:
		xt, err := c.checkExpr(t.X, sc)
		if err != nil {
			return Type{}, err
		}
		switch t.Op {
		case Minus:
			if !xt.IsNumeric() {
				return Type{}, errf(t.Pos, "unary - requires numeric operand, got %s", xt)
			}
			t.setType(xt)
			return xt, nil
		case Not:
			if !condOK(xt) {
				return Type{}, errf(t.Pos, "! requires bool operand, got %s", xt)
			}
			t.setType(TypeBool)
			return TypeBool, nil
		}
		return Type{}, errf(t.Pos, "unknown unary operator %s", t.Op)
	case *BinaryExpr:
		return c.checkBinary(t, sc)
	case *CondExpr:
		ct, err := c.checkExpr(t.Cond, sc)
		if err != nil {
			return Type{}, err
		}
		if !condOK(ct) {
			return Type{}, errf(t.Pos, "ternary condition must be bool, got %s", ct)
		}
		tt, err := c.checkExpr(t.Then, sc)
		if err != nil {
			return Type{}, err
		}
		et, err := c.checkExpr(t.Else, sc)
		if err != nil {
			return Type{}, err
		}
		rt, ok := unify(tt, et)
		if !ok {
			return Type{}, errf(t.Pos, "ternary branches have mismatched types %s and %s", tt, et)
		}
		t.setType(rt)
		return rt, nil
	case *CastExpr:
		xt, err := c.checkExpr(t.X, sc)
		if err != nil {
			return Type{}, err
		}
		if t.To.Ptr || xt.Ptr {
			return Type{}, errf(t.Pos, "pointer casts are not supported")
		}
		t.setType(t.To)
		return t.To, nil
	case *CallExpr:
		return c.checkCall(t, sc)
	}
	return Type{}, fmt.Errorf("minicl: unknown expression %T", e)
}

func (c *checker) checkBinary(b *BinaryExpr, sc *scope) (Type, error) {
	lt, err := c.checkExpr(b.L, sc)
	if err != nil {
		return Type{}, err
	}
	rt, err := c.checkExpr(b.R, sc)
	if err != nil {
		return Type{}, err
	}
	switch b.Op {
	case Plus, Minus, Star, Slash:
		ut, ok := unify(lt, rt)
		if !ok || !ut.IsNumeric() {
			return Type{}, errf(b.Pos, "operator %s requires numeric operands, got %s and %s", b.Op, lt, rt)
		}
		b.setType(ut)
		return ut, nil
	case Percent, Amp, Pipe, Caret, Shl, Shr:
		if !lt.IsInteger() || !rt.IsInteger() {
			return Type{}, errf(b.Pos, "operator %s requires integer operands, got %s and %s", b.Op, lt, rt)
		}
		b.setType(lt)
		return lt, nil
	case Lt, Gt, Le, Ge, EqEq, NotEq:
		ut, ok := unify(lt, rt)
		if !ok || (!ut.IsNumeric() && !ut.IsBool()) {
			return Type{}, errf(b.Pos, "cannot compare %s and %s", lt, rt)
		}
		b.setType(TypeBool)
		return TypeBool, nil
	case AndAnd, OrOr:
		if !condOK(lt) || !condOK(rt) {
			return Type{}, errf(b.Pos, "operator %s requires bool operands, got %s and %s", b.Op, lt, rt)
		}
		b.setType(TypeBool)
		return TypeBool, nil
	}
	return Type{}, errf(b.Pos, "unknown binary operator %s", b.Op)
}

func (c *checker) checkCall(call *CallExpr, sc *scope) (Type, error) {
	if bi, ok := LookupBuiltin(call.Name); ok {
		return c.checkBuiltin(call, bi, sc)
	}
	f, ok := c.helpers[call.Name]
	if !ok {
		return Type{}, errf(call.Pos, "call to undefined function %q", call.Name)
	}
	if f.IsKernel {
		return Type{}, errf(call.Pos, "cannot call kernel %q", call.Name)
	}
	if len(call.Args) != len(f.Params) {
		return Type{}, errf(call.Pos, "%q expects %d arguments, got %d", call.Name, len(f.Params), len(call.Args))
	}
	for i, a := range call.Args {
		at, err := c.checkExpr(a, sc)
		if err != nil {
			return Type{}, err
		}
		if !assignable(f.Params[i].Type, at) {
			return Type{}, errf(a.NodePos(), "argument %d of %q: cannot pass %s as %s",
				i+1, call.Name, at, f.Params[i].Type)
		}
	}
	call.setType(f.Ret)
	return f.Ret, nil
}

func (c *checker) checkBuiltin(call *CallExpr, bi *Builtin, sc *scope) (Type, error) {
	if bi.Kind == BuiltinBarrier {
		// barrier() or barrier(CLK_LOCAL_MEM_FENCE)-style single int arg.
		if len(call.Args) > 1 {
			return Type{}, errf(call.Pos, "barrier takes at most one argument")
		}
		for _, a := range call.Args {
			if _, err := c.checkExpr(a, sc); err != nil {
				return Type{}, err
			}
		}
		call.setType(TypeVoid)
		return TypeVoid, nil
	}
	if len(call.Args) != len(bi.Args) {
		return Type{}, errf(call.Pos, "%q expects %d arguments, got %d", bi.Name, len(bi.Args), len(call.Args))
	}
	if bi.Poly {
		var ret Type
		for i, a := range call.Args {
			at, err := c.checkExpr(a, sc)
			if err != nil {
				return Type{}, err
			}
			if !at.IsNumeric() {
				return Type{}, errf(a.NodePos(), "argument %d of %q must be numeric, got %s", i+1, bi.Name, at)
			}
			if i == 0 {
				ret = at
			} else if u, ok := unify(ret, at); ok {
				ret = u
			} else {
				return Type{}, errf(a.NodePos(), "mismatched argument types in %q", bi.Name)
			}
		}
		call.setType(ret)
		return ret, nil
	}
	for i, a := range call.Args {
		at, err := c.checkExpr(a, sc)
		if err != nil {
			return Type{}, err
		}
		if !assignable(bi.Args[i], at) {
			return Type{}, errf(a.NodePos(), "argument %d of %q: cannot pass %s as %s",
				i+1, bi.Name, at, bi.Args[i])
		}
	}
	call.setType(bi.Ret)
	return bi.Ret, nil
}

// assignable reports whether a value of type src can be stored into dst.
// Implicit int<->uint and int->float conversions are allowed, matching
// OpenCL C's usual arithmetic conversions for the subset we support. A
// pointer may gain const on the way (a helper that only reads takes any
// buffer) but never lose it: a const buffer stays unwritable through
// every name it is passed under.
func assignable(dst, src Type) bool {
	if dst.Equal(src) {
		return !(src.Ptr && src.Const && !dst.Const)
	}
	if dst.Ptr || src.Ptr {
		return false
	}
	if dst.Basic == Float && src.IsInteger() {
		return true
	}
	if dst.IsInteger() && src.IsInteger() {
		return true
	}
	return false
}

// unify returns the common arithmetic type of two operands.
func unify(a, b Type) (Type, bool) {
	if a.Equal(b) {
		return a, true
	}
	if a.Ptr || b.Ptr {
		return Type{}, false
	}
	if a.Basic == Float && b.IsInteger() {
		return TypeFloat, true
	}
	if b.Basic == Float && a.IsInteger() {
		return TypeFloat, true
	}
	if a.IsInteger() && b.IsInteger() {
		return TypeInt, true
	}
	return Type{}, false
}

// condOK reports whether a type can be used as a branch condition.
func condOK(t Type) bool { return t.IsBool() || t.IsInteger() }
