package inspire

import (
	"fmt"

	"repro/internal/minicl"
)

// Lower translates a type-checked MiniCL program into an IR Unit.
// The program must have been checked with minicl.Check (or produced by
// minicl.Compile); lowering trusts the sema type annotations.
func Lower(name string, prog *minicl.Program) (*Unit, error) {
	u := &Unit{Name: name}
	// First pass: create function shells so calls can be resolved.
	shells := make(map[string]*Function, len(prog.Funcs))
	for _, f := range prog.Funcs {
		fn := &Function{Name: f.Name, Kernel: f.IsKernel, Ret: f.Ret}
		shells[f.Name] = fn
		if f.IsKernel {
			u.Kernels = append(u.Kernels, fn)
		} else {
			u.Helpers = append(u.Helpers, fn)
		}
	}
	for _, f := range prog.Funcs {
		lw := &lowerer{shells: shells, vars: map[string]*Var{}}
		if err := lw.lowerFunc(shells[f.Name], f); err != nil {
			return nil, err
		}
	}
	if len(u.Kernels) == 0 {
		return nil, fmt.Errorf("inspire: program %q has no kernels", name)
	}
	return u, nil
}

// LowerSource is a convenience wrapper: parse, check, lower.
func LowerSource(name, src string) (*Unit, error) {
	prog, err := minicl.Compile(src)
	if err != nil {
		return nil, err
	}
	return Lower(name, prog)
}

type lowerer struct {
	shells map[string]*Function
	vars   map[string]*Var // name -> var, flat per-function (sema ensured uniqueness per scope; we rename shadowed vars)
	nextID int
	scopes []map[string]*Var
}

func (lw *lowerer) pushScope() {
	lw.scopes = append(lw.scopes, map[string]*Var{})
}

func (lw *lowerer) popScope() {
	lw.scopes = lw.scopes[:len(lw.scopes)-1]
}

func (lw *lowerer) declare(name string, t minicl.Type, param bool) *Var {
	v := &Var{ID: lw.nextID, Name: name, Type: t, Param: param}
	lw.nextID++
	lw.scopes[len(lw.scopes)-1][name] = v
	return v
}

func (lw *lowerer) lookup(name string) *Var {
	for i := len(lw.scopes) - 1; i >= 0; i-- {
		if v, ok := lw.scopes[i][name]; ok {
			return v
		}
	}
	return nil
}

func (lw *lowerer) lowerFunc(fn *Function, f *minicl.FuncDecl) error {
	lw.pushScope()
	defer lw.popScope()
	for _, p := range f.Params {
		fn.Params = append(fn.Params, lw.declare(p.Name, p.Type, true))
	}
	body, err := lw.lowerBlock(f.Body)
	if err != nil {
		return err
	}
	fn.Body = body
	fn.NumVars = lw.nextID
	return nil
}

func (lw *lowerer) lowerBlock(b *minicl.BlockStmt) (*Block, error) {
	lw.pushScope()
	defer lw.popScope()
	blk := &Block{}
	for _, s := range b.Stmts {
		st, err := lw.lowerStmt(s)
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, st)
	}
	return blk, nil
}

func (lw *lowerer) lowerStmt(s minicl.Stmt) (Stmt, error) {
	switch st := s.(type) {
	case *minicl.BlockStmt:
		return lw.lowerBlock(st)
	case *minicl.DeclStmt:
		var init Expr
		if st.Init != nil {
			e, err := lw.lowerExpr(st.Init)
			if err != nil {
				return nil, err
			}
			init = convert(e, st.Type)
		}
		v := lw.declare(st.Name, st.Type, false)
		return &Decl{Var: v, Init: init}, nil
	case *minicl.AssignStmt:
		return lw.lowerAssign(st)
	case *minicl.IncDecStmt:
		id, ok := st.Target.(*minicl.Ident)
		if !ok {
			return nil, fmt.Errorf("inspire: ++/-- on non-variable at %s", st.Pos)
		}
		v := lw.lookup(id.Name)
		op := OpAdd
		if st.Dec {
			op = OpSub
		}
		return &StoreVar{Var: v, Value: &BinOp{
			Op: op, L: &VarRef{Var: v}, R: &ConstInt{Value: 1, Typ: v.Type}, Typ: v.Type,
		}}, nil
	case *minicl.IfStmt:
		cond, err := lw.lowerCond(st.Cond)
		if err != nil {
			return nil, err
		}
		then, err := lw.lowerBlock(st.Then)
		if err != nil {
			return nil, err
		}
		out := &If{Cond: cond, Then: then}
		if st.Else != nil {
			els, err := lw.lowerStmt(st.Else)
			if err != nil {
				return nil, err
			}
			if eb, ok := els.(*Block); ok {
				out.Else = eb
			} else {
				out.Else = &Block{Stmts: []Stmt{els}}
			}
		}
		return out, nil
	case *minicl.ForStmt:
		lw.pushScope()
		defer lw.popScope()
		out := &For{}
		var err error
		if st.Init != nil {
			out.Init, err = lw.lowerStmt(st.Init)
			if err != nil {
				return nil, err
			}
		}
		if st.Cond != nil {
			out.Cond, err = lw.lowerCond(st.Cond)
			if err != nil {
				return nil, err
			}
		}
		if st.Post != nil {
			out.Post, err = lw.lowerStmt(st.Post)
			if err != nil {
				return nil, err
			}
		}
		out.Body, err = lw.lowerBlock(st.Body)
		if err != nil {
			return nil, err
		}
		return out, nil
	case *minicl.WhileStmt:
		cond, err := lw.lowerCond(st.Cond)
		if err != nil {
			return nil, err
		}
		body, err := lw.lowerBlock(st.Body)
		if err != nil {
			return nil, err
		}
		return &While{Cond: cond, Body: body}, nil
	case *minicl.ReturnStmt:
		out := &Return{}
		if st.Value != nil {
			e, err := lw.lowerExpr(st.Value)
			if err != nil {
				return nil, err
			}
			out.Value = e
		}
		return out, nil
	case *minicl.BreakStmt:
		return &Break{}, nil
	case *minicl.ContinueStmt:
		return &Continue{}, nil
	case *minicl.ExprStmt:
		if call, ok := st.X.(*minicl.CallExpr); ok {
			if bi, isB := minicl.LookupBuiltin(call.Name); isB && bi.Kind == minicl.BuiltinBarrier {
				return &Barrier{}, nil
			}
		}
		e, err := lw.lowerExpr(st.X)
		if err != nil {
			return nil, err
		}
		return &Eval{X: e}, nil
	}
	return nil, fmt.Errorf("inspire: cannot lower statement %T", s)
}

func (lw *lowerer) lowerAssign(st *minicl.AssignStmt) (Stmt, error) {
	rhs, err := lw.lowerExpr(st.Value)
	if err != nil {
		return nil, err
	}
	binop := func(cur Expr, t minicl.Type) Expr {
		var op Op
		switch st.Op {
		case minicl.PlusAssign:
			op = OpAdd
		case minicl.MinusAssign:
			op = OpSub
		case minicl.StarAssign:
			op = OpMul
		case minicl.SlashAssign:
			op = OpDiv
		default:
			return convert(rhs, t)
		}
		return &BinOp{Op: op, L: cur, R: convert(rhs, t), Typ: t}
	}
	switch target := st.Target.(type) {
	case *minicl.Ident:
		v := lw.lookup(target.Name)
		return &StoreVar{Var: v, Value: binop(&VarRef{Var: v}, v.Type)}, nil
	case *minicl.Index:
		base, ok := target.Base.(*minicl.Ident)
		if !ok {
			return nil, fmt.Errorf("inspire: indexed store through non-variable base at %s", st.Pos)
		}
		buf := lw.lookup(base.Name)
		idx, err := lw.lowerExpr(target.Index)
		if err != nil {
			return nil, err
		}
		el := buf.Type.Elem()
		cur := &Load{Buf: buf, Index: idx}
		return &StoreElem{Buf: buf, Index: idx, Value: binop(cur, el)}, nil
	}
	return nil, fmt.Errorf("inspire: invalid assignment target at %s", st.Pos)
}

// lowerCond lowers a condition, coercing integers to bool (x != 0).
func (lw *lowerer) lowerCond(e minicl.Expr) (Expr, error) {
	x, err := lw.lowerExpr(e)
	if err != nil {
		return nil, err
	}
	t := x.ExprType()
	if t.IsBool() {
		return x, nil
	}
	return &BinOp{Op: OpNe, L: x, R: &ConstInt{Value: 0, Typ: t}, Typ: minicl.TypeBool}, nil
}

func (lw *lowerer) lowerExpr(e minicl.Expr) (Expr, error) {
	switch ex := e.(type) {
	case *minicl.IntLit:
		return &ConstInt{Value: ex.Value, Typ: ex.Type()}, nil
	case *minicl.FloatLit:
		return &ConstFloat{Value: ex.Value}, nil
	case *minicl.BoolLit:
		return &ConstBool{Value: ex.Value}, nil
	case *minicl.Ident:
		v := lw.lookup(ex.Name)
		if v == nil {
			return nil, fmt.Errorf("inspire: unresolved identifier %q at %s", ex.Name, ex.Pos)
		}
		return &VarRef{Var: v}, nil
	case *minicl.Index:
		base, ok := ex.Base.(*minicl.Ident)
		if !ok {
			return nil, fmt.Errorf("inspire: load through non-variable base at %s", ex.Pos)
		}
		buf := lw.lookup(base.Name)
		idx, err := lw.lowerExpr(ex.Index)
		if err != nil {
			return nil, err
		}
		return &Load{Buf: buf, Index: idx}, nil
	case *minicl.UnaryExpr:
		x, err := lw.lowerExpr(ex.X)
		if err != nil {
			return nil, err
		}
		if ex.Op == minicl.Minus {
			return &UnOp{Op: OpNeg, X: x, Typ: ex.Type()}, nil
		}
		cond, err := lw.coerceBool(x)
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: OpLNot, X: cond, Typ: minicl.TypeBool}, nil
	case *minicl.BinaryExpr:
		return lw.lowerBinary(ex)
	case *minicl.CondExpr:
		cond, err := lw.lowerCond(ex.Cond)
		if err != nil {
			return nil, err
		}
		then, err := lw.lowerExpr(ex.Then)
		if err != nil {
			return nil, err
		}
		els, err := lw.lowerExpr(ex.Else)
		if err != nil {
			return nil, err
		}
		t := ex.Type()
		return &Select{Cond: cond, Then: convert(then, t), Else: convert(els, t), Typ: t}, nil
	case *minicl.CastExpr:
		x, err := lw.lowerExpr(ex.X)
		if err != nil {
			return nil, err
		}
		return &Cast{To: ex.To, X: x}, nil
	case *minicl.CallExpr:
		return lw.lowerCall(ex)
	}
	return nil, fmt.Errorf("inspire: cannot lower expression %T", e)
}

func (lw *lowerer) coerceBool(x Expr) (Expr, error) {
	if x.ExprType().IsBool() {
		return x, nil
	}
	return &BinOp{Op: OpNe, L: x, R: &ConstInt{Value: 0, Typ: x.ExprType()}, Typ: minicl.TypeBool}, nil
}

var binOpMap = map[minicl.Kind]Op{
	minicl.Plus: OpAdd, minicl.Minus: OpSub, minicl.Star: OpMul, minicl.Slash: OpDiv,
	minicl.Percent: OpMod, minicl.Amp: OpAnd, minicl.Pipe: OpOr, minicl.Caret: OpXor,
	minicl.Shl: OpShl, minicl.Shr: OpShr,
	minicl.Lt: OpLt, minicl.Le: OpLe, minicl.Gt: OpGt, minicl.Ge: OpGe,
	minicl.EqEq: OpEq, minicl.NotEq: OpNe,
	minicl.AndAnd: OpLAnd, minicl.OrOr: OpLOr,
}

func (lw *lowerer) lowerBinary(ex *minicl.BinaryExpr) (Expr, error) {
	op, ok := binOpMap[ex.Op]
	if !ok {
		return nil, fmt.Errorf("inspire: unknown binary operator %s at %s", ex.Op, ex.Pos)
	}
	l, err := lw.lowerExpr(ex.L)
	if err != nil {
		return nil, err
	}
	r, err := lw.lowerExpr(ex.R)
	if err != nil {
		return nil, err
	}
	switch {
	case op.IsLogical():
		if l, err = lw.coerceBool(l); err != nil {
			return nil, err
		}
		if r, err = lw.coerceBool(r); err != nil {
			return nil, err
		}
		return &BinOp{Op: op, L: l, R: r, Typ: minicl.TypeBool}, nil
	case op.IsCompare():
		ct := commonType(l.ExprType(), r.ExprType())
		return &BinOp{Op: op, L: convert(l, ct), R: convert(r, ct), Typ: minicl.TypeBool}, nil
	default:
		t := ex.Type()
		return &BinOp{Op: op, L: convert(l, t), R: convert(r, t), Typ: t}, nil
	}
}

func (lw *lowerer) lowerCall(ex *minicl.CallExpr) (Expr, error) {
	args := make([]Expr, len(ex.Args))
	for i, a := range ex.Args {
		e, err := lw.lowerExpr(a)
		if err != nil {
			return nil, err
		}
		args[i] = e
	}
	if bi, ok := minicl.LookupBuiltin(ex.Name); ok {
		if bi.Kind == minicl.BuiltinWorkItem {
			return &WorkItem{Query: WIQuery(bi.Query), Dim: args[0]}, nil
		}
		t := ex.Type()
		// Coerce each argument to its parameter type; a poly builtin's
		// to the resolved result type.
		for i := range args {
			if bi.Poly {
				args[i] = convert(args[i], t)
			} else {
				args[i] = convert(args[i], bi.Args[i])
			}
		}
		return &CallBuiltin{Builtin: bi, Args: args, Typ: t}, nil
	}
	callee, ok := lw.shells[ex.Name]
	if !ok {
		return nil, fmt.Errorf("inspire: unresolved call %q at %s", ex.Name, ex.Pos)
	}
	return &CallFunc{Callee: callee, Args: args}, nil
}

// convert inserts a Cast when the expression type differs from want.
func convert(e Expr, want minicl.Type) Expr {
	have := e.ExprType()
	if have.Equal(want) || want.Ptr || have.Ptr {
		return e
	}
	// Fold constant conversions immediately.
	switch c := e.(type) {
	case *ConstInt:
		if want.IsFloat() {
			return &ConstFloat{Value: float64(c.Value)}
		}
		if want.IsInteger() {
			return &ConstInt{Value: c.Value, Typ: want}
		}
	case *ConstFloat:
		if want.IsInteger() {
			return &ConstInt{Value: int64(c.Value), Typ: want}
		}
	}
	return &Cast{To: want, X: e}
}

// commonType mirrors sema's unify for lowering-time coercions.
func commonType(a, b minicl.Type) minicl.Type {
	if a.Equal(b) {
		return a
	}
	if a.IsFloat() || b.IsFloat() {
		return minicl.TypeFloat
	}
	if a.IsBool() || b.IsBool() {
		return minicl.TypeBool
	}
	return minicl.TypeInt
}
