package inspire

import (
	"fmt"

	"repro/internal/minicl"
)

// Verify checks structural well-formedness of a lowered unit: every variable
// referenced is a parameter or was declared earlier in scope order, variable
// IDs are dense and unique per function, stores target non-const buffers,
// calls pass one argument per parameter (a builtin call's parameters are
// its math builtin's registry entry's), and expression types are
// internally consistent. It returns the first violation found.
//
// Verify is used by tests and by the compile pipeline in debug mode; a unit
// produced by Lower from a checked program must always verify.
func Verify(u *Unit) error {
	all := append(append([]*Function{}, u.Helpers...), u.Kernels...)
	for _, f := range all {
		if err := verifyFunc(f); err != nil {
			return fmt.Errorf("function %q: %w", f.Name, err)
		}
	}
	if len(u.Kernels) == 0 {
		return fmt.Errorf("unit %q has no kernels", u.Name)
	}
	return nil
}

func verifyFunc(f *Function) error {
	v := &verifier{declared: map[*Var]bool{}, ids: map[int]*Var{}}
	for _, p := range f.Params {
		if !p.Param {
			return fmt.Errorf("parameter %s not marked Param", p)
		}
		if err := v.declare(p); err != nil {
			return err
		}
	}
	if f.Body == nil {
		return fmt.Errorf("missing body")
	}
	if err := v.block(f.Body); err != nil {
		return err
	}
	if len(v.ids) > f.NumVars {
		return fmt.Errorf("NumVars=%d but %d variables seen", f.NumVars, len(v.ids))
	}
	return nil
}

type verifier struct {
	declared map[*Var]bool
	ids      map[int]*Var
}

func (v *verifier) declare(va *Var) error {
	if v.declared[va] {
		return fmt.Errorf("variable %s declared twice", va)
	}
	if prev, clash := v.ids[va.ID]; clash {
		return fmt.Errorf("variable ID %d used by both %s and %s", va.ID, prev, va)
	}
	v.declared[va] = true
	v.ids[va.ID] = va
	return nil
}

func (v *verifier) block(b *Block) error {
	for _, s := range b.Stmts {
		if err := v.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (v *verifier) stmt(s Stmt) error {
	switch st := s.(type) {
	case nil:
		return nil
	case *Block:
		return v.block(st)
	case *Decl:
		if st.Init != nil {
			if err := v.expr(st.Init); err != nil {
				return err
			}
			if !assignCompatible(st.Var.Type, st.Init.ExprType()) {
				return fmt.Errorf("decl %s: init type %s incompatible with %s",
					st.Var, st.Init.ExprType(), st.Var.Type)
			}
		}
		return v.declare(st.Var)
	case *StoreVar:
		if !v.declared[st.Var] {
			return fmt.Errorf("store to undeclared variable %s", st.Var)
		}
		if st.Var.Type.Ptr {
			return fmt.Errorf("store to pointer variable %s", st.Var)
		}
		if err := v.expr(st.Value); err != nil {
			return err
		}
		if !assignCompatible(st.Var.Type, st.Value.ExprType()) {
			return fmt.Errorf("store to %s: value type %s incompatible with %s",
				st.Var, st.Value.ExprType(), st.Var.Type)
		}
		return nil
	case *StoreElem:
		if !v.declared[st.Buf] {
			return fmt.Errorf("store through undeclared buffer %s", st.Buf)
		}
		if !st.Buf.Type.Ptr {
			return fmt.Errorf("element store through non-pointer %s", st.Buf)
		}
		if st.Buf.Type.Const {
			return fmt.Errorf("store through const buffer %s", st.Buf)
		}
		if err := v.expr(st.Index); err != nil {
			return err
		}
		if !st.Index.ExprType().IsInteger() {
			return fmt.Errorf("non-integer index type %s", st.Index.ExprType())
		}
		if err := v.expr(st.Value); err != nil {
			return err
		}
		if !assignCompatible(st.Buf.Type.Elem(), st.Value.ExprType()) {
			return fmt.Errorf("element store to %s: value type %s incompatible with %s",
				st.Buf, st.Value.ExprType(), st.Buf.Type.Elem())
		}
		return nil
	case *If:
		if err := v.expr(st.Cond); err != nil {
			return err
		}
		if !st.Cond.ExprType().IsBool() {
			return fmt.Errorf("if condition has type %s, want bool", st.Cond.ExprType())
		}
		if err := v.block(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			return v.block(st.Else)
		}
		return nil
	case *For:
		if err := v.stmt(st.Init); err != nil {
			return err
		}
		if st.Cond != nil {
			if err := v.expr(st.Cond); err != nil {
				return err
			}
			if !st.Cond.ExprType().IsBool() {
				return fmt.Errorf("for condition has type %s, want bool", st.Cond.ExprType())
			}
		}
		if err := v.stmt(st.Post); err != nil {
			return err
		}
		return v.block(st.Body)
	case *While:
		if err := v.expr(st.Cond); err != nil {
			return err
		}
		if !st.Cond.ExprType().IsBool() {
			return fmt.Errorf("while condition has type %s, want bool", st.Cond.ExprType())
		}
		return v.block(st.Body)
	case *Return:
		if st.Value != nil {
			return v.expr(st.Value)
		}
		return nil
	case *Break, *Continue, *Barrier:
		return nil
	case *Eval:
		return v.expr(st.X)
	}
	return fmt.Errorf("unknown statement %T", s)
}

func (v *verifier) expr(e Expr) error {
	switch ex := e.(type) {
	case nil:
		return nil
	case *ConstInt, *ConstFloat, *ConstBool:
		return nil
	case *VarRef:
		if !v.declared[ex.Var] {
			return fmt.Errorf("reference to undeclared variable %s", ex.Var)
		}
		return nil
	case *Load:
		if !v.declared[ex.Buf] {
			return fmt.Errorf("load through undeclared buffer %s", ex.Buf)
		}
		if !ex.Buf.Type.Ptr {
			return fmt.Errorf("load through non-pointer %s", ex.Buf)
		}
		if err := v.expr(ex.Index); err != nil {
			return err
		}
		if !ex.Index.ExprType().IsInteger() {
			return fmt.Errorf("non-integer load index type %s", ex.Index.ExprType())
		}
		return nil
	case *BinOp:
		if err := v.expr(ex.L); err != nil {
			return err
		}
		if err := v.expr(ex.R); err != nil {
			return err
		}
		if ex.Op.IsCompare() || ex.Op.IsLogical() {
			if !ex.Typ.IsBool() {
				return fmt.Errorf("comparison %s typed %s, want bool", ex.Op, ex.Typ)
			}
		}
		return nil
	case *UnOp:
		return v.expr(ex.X)
	case *Select:
		if err := v.expr(ex.Cond); err != nil {
			return err
		}
		if !ex.Cond.ExprType().IsBool() {
			return fmt.Errorf("select condition has type %s, want bool", ex.Cond.ExprType())
		}
		if err := v.expr(ex.Then); err != nil {
			return err
		}
		return v.expr(ex.Else)
	case *Cast:
		if ex.To.Ptr {
			return fmt.Errorf("cast to pointer type %s", ex.To)
		}
		return v.expr(ex.X)
	case *WorkItem:
		return v.expr(ex.Dim)
	case *CallBuiltin:
		if ex.Builtin == nil || ex.Builtin.Kind != minicl.BuiltinMath {
			return fmt.Errorf("builtin call without a math builtin entry")
		}
		if len(ex.Args) != len(ex.Builtin.Args) {
			return fmt.Errorf("call to builtin %s with %d args, want %d",
				ex.Builtin.Name, len(ex.Args), len(ex.Builtin.Args))
		}
		for _, a := range ex.Args {
			if err := v.expr(a); err != nil {
				return err
			}
		}
		return nil
	case *CallFunc:
		if ex.Callee == nil {
			return fmt.Errorf("call with nil callee")
		}
		if len(ex.Args) != len(ex.Callee.Params) {
			return fmt.Errorf("call to %s with %d args, want %d",
				ex.Callee.Name, len(ex.Args), len(ex.Callee.Params))
		}
		for _, a := range ex.Args {
			if err := v.expr(a); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown expression %T", e)
}

// assignCompatible mirrors the front-end assignability rules at the IR level.
func assignCompatible(dst, src minicl.Type) bool {
	if dst.Equal(src) {
		return true
	}
	if dst.Ptr || src.Ptr {
		return false
	}
	if dst.IsFloat() && src.IsInteger() {
		return true
	}
	return dst.IsInteger() && src.IsInteger()
}
