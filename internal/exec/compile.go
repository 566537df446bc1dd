package exec

import (
	"fmt"

	"repro/internal/exec/vm"
	"repro/internal/inspire"
	"repro/internal/minicl"
)

// ctrl is the control-flow result of a statement closure.
type ctrl int

const (
	ctrlNext ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// wiState is the per-work-item NDRange coordinate set.
type wiState struct {
	gid, lid, grp [3]int64
	gsz, lsz, ngr [3]int64
}

// frame is the per-work-item execution state.
type frame struct {
	ints   []int64
	floats []float64
	bufs   []*Buffer // global buffer params, by buffer slot
	locals []*Buffer // local buffer params (per work-group), by local slot
	wi     wiState
	cnt    *Counts
	bar    *groupBarrier

	// fuel mirrors vm.Frame.Fuel for the closure tier: a local step
	// allowance burned at loop back-edges and function calls, refilled
	// in batches from the shared budget. nil budget = unlimited.
	fuel   int64
	budget *vm.Budget
}

// tick burns one unit of fuel at a loop back-edge or call, refilling the
// lease from the budget on underflow and throwing the budget's error
// (recovered at the Run boundary) when the lease is denied.
func (f *frame) tick() {
	f.fuel--
	if f.fuel >= 0 {
		return
	}
	lease, err := f.budget.TakeLease()
	if err != nil {
		panic(execError{err})
	}
	f.fuel = lease
}

type (
	intFn   func(*frame) int64
	floatFn func(*frame) float64
	boolFn  func(*frame) bool
	stmtFn  func(*frame) ctrl
)

// slotKind says where a variable lives in a frame.
type slotKind int

const (
	slotInt slotKind = iota
	slotFloat
	slotGlobalBuf
	slotLocalBuf
)

type slot struct {
	kind slotKind
	idx  int
}

// execError is thrown (via panic) for runtime faults inside closures and
// recovered at the Run boundary.
type execError struct{ err error }

func throwf(format string, args ...any) {
	panic(execError{fmt.Errorf(format, args...)})
}

// Compiled is an executable kernel on exactly one tier: either the
// closure tree (body plus the frame layout that binds arguments to it)
// or the bytecode program with its optional vectorized view. Helper
// functions of a closure-tier kernel are Compiled values too.
type Compiled struct {
	Fn *inspire.Function

	hasBarrier bool

	// Closure tree, the reference tier; body is nil on the VM tiers.
	body            stmtFn
	usesLocal       bool
	nInts, nFloats  int
	nGlobal, nLocal int
	paramSlots      []slot // parallel to Fn.Params
	slotOf          []slot // by Var.ID
	retIsFloat      bool

	// Bytecode VM tier (see tier.go); vmProg is nil on the closure tier.
	vmProg *vm.Func

	// SIMT vector tier. vecProg is nil when the kernel runs scalar;
	// vecErr records why vectorization was skipped under TierAuto.
	vecProg *vm.VecFunc
	vecErr  error

	// runners parks the bytecode tiers' finished group runners between
	// launches (see run.go).
	runners runnerPool
}

// compiler compiles one function (kernel or helper).
type compiler struct {
	out     *Compiled
	helpers map[*inspire.Function]*Compiled
}

// Compile translates an IR function into an executable kernel: on the
// vector tier when the kernel is vectorizable, on the scalar bytecode VM
// otherwise (TierAuto). There is no selector.
func Compile(fn *inspire.Function) (*Compiled, error) {
	return CompileTier(fn, TierAuto)
}

// compileClosure builds the closure-tree interpreter, the reference
// the differential suites compare the serving tiers against.
func compileClosure(fn *inspire.Function) (c *Compiled, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ee, ok := r.(execError); ok {
				c, err = nil, ee.err
				return
			}
			panic(r)
		}
	}()
	return compileWith(fn, map[*inspire.Function]*Compiled{}), nil
}

func compileWith(fn *inspire.Function, helpers map[*inspire.Function]*Compiled) *Compiled {
	if done, ok := helpers[fn]; ok {
		return done
	}
	out := &Compiled{Fn: fn, slotOf: make([]slot, fn.NumVars)}
	helpers[fn] = out // pre-register to guard against recursion
	cc := &compiler{out: out, helpers: helpers}
	// Assign slots to params first, then discover locals from Decls.
	for _, p := range fn.Params {
		out.paramSlots = append(out.paramSlots, cc.assign(p))
	}
	inspire.WalkStmts(fn.Body, func(s inspire.Stmt) bool {
		if d, ok := s.(*inspire.Decl); ok {
			cc.assign(d.Var)
		}
		return true
	})
	out.body = cc.block(fn.Body)
	out.retIsFloat = fn.Ret.IsFloat()
	return out
}

func (cc *compiler) assign(v *inspire.Var) slot {
	o := cc.out
	if v.ID >= len(o.slotOf) {
		grown := make([]slot, v.ID+1)
		copy(grown, o.slotOf)
		o.slotOf = grown
	}
	var s slot
	switch {
	case v.Type.Ptr && v.Type.Space == minicl.Local:
		s = slot{slotLocalBuf, o.nLocal}
		o.nLocal++
		o.usesLocal = true
	case v.Type.Ptr:
		s = slot{slotGlobalBuf, o.nGlobal}
		o.nGlobal++
	case v.Type.IsFloat():
		s = slot{slotFloat, o.nFloats}
		o.nFloats++
	default: // int, uint, bool in int slots
		s = slot{slotInt, o.nInts}
		o.nInts++
	}
	o.slotOf[v.ID] = s
	return s
}

func (cc *compiler) slotFor(v *inspire.Var) slot { return cc.out.slotOf[v.ID] }

// bufferFor returns a closure fetching the Buffer a pointer var refers to.
func (cc *compiler) bufferFor(v *inspire.Var) func(*frame) *Buffer {
	s := cc.slotFor(v)
	idx := s.idx
	if s.kind == slotLocalBuf {
		return func(f *frame) *Buffer { return f.locals[idx] }
	}
	return func(f *frame) *Buffer { return f.bufs[idx] }
}

// --- statements ---

func (cc *compiler) block(b *inspire.Block) stmtFn {
	if b == nil || len(b.Stmts) == 0 {
		return func(*frame) ctrl { return ctrlNext }
	}
	stmts := make([]stmtFn, len(b.Stmts))
	for i, s := range b.Stmts {
		stmts[i] = cc.stmt(s)
	}
	if len(stmts) == 1 {
		return stmts[0]
	}
	return func(f *frame) ctrl {
		for _, s := range stmts {
			if c := s(f); c != ctrlNext {
				return c
			}
		}
		return ctrlNext
	}
}

func (cc *compiler) stmt(s inspire.Stmt) stmtFn {
	switch st := s.(type) {
	case *inspire.Block:
		return cc.block(st)
	case *inspire.Decl:
		return cc.declStmt(st)
	case *inspire.StoreVar:
		return cc.storeVar(st)
	case *inspire.StoreElem:
		return cc.storeElem(st)
	case *inspire.If:
		cond := cc.boolExpr(st.Cond)
		then := cc.block(st.Then)
		if st.Else == nil {
			return func(f *frame) ctrl {
				f.cnt.Branches++
				if cond(f) {
					return then(f)
				}
				return ctrlNext
			}
		}
		els := cc.block(st.Else)
		return func(f *frame) ctrl {
			f.cnt.Branches++
			if cond(f) {
				return then(f)
			}
			return els(f)
		}
	case *inspire.For:
		var init, post stmtFn
		if st.Init != nil {
			init = cc.stmt(st.Init)
		}
		var cond boolFn
		if st.Cond != nil {
			cond = cc.boolExpr(st.Cond)
		}
		if st.Post != nil {
			post = cc.stmt(st.Post)
		}
		body := cc.block(st.Body)
		return func(f *frame) ctrl {
			if init != nil {
				if c := init(f); c == ctrlReturn {
					return c
				}
			}
			for {
				f.tick()
				if cond != nil {
					f.cnt.Branches++
					if !cond(f) {
						return ctrlNext
					}
				}
				switch body(f) {
				case ctrlBreak:
					return ctrlNext
				case ctrlReturn:
					return ctrlReturn
				}
				if post != nil {
					if c := post(f); c == ctrlReturn {
						return c
					}
				}
			}
		}
	case *inspire.While:
		cond := cc.boolExpr(st.Cond)
		body := cc.block(st.Body)
		return func(f *frame) ctrl {
			for {
				f.tick()
				f.cnt.Branches++
				if !cond(f) {
					return ctrlNext
				}
				switch body(f) {
				case ctrlBreak:
					return ctrlNext
				case ctrlReturn:
					return ctrlReturn
				}
			}
		}
	case *inspire.Return:
		if st.Value == nil {
			return func(*frame) ctrl { return ctrlReturn }
		}
		// Return values go to the dedicated last slot of the bank (frames
		// are allocated one slot larger than the variable count).
		if st.Value.ExprType().IsFloat() {
			val := cc.floatExpr(st.Value)
			return func(f *frame) ctrl {
				f.floats[len(f.floats)-1] = val(f)
				return ctrlReturn
			}
		}
		val := cc.intExpr(st.Value)
		return func(f *frame) ctrl {
			f.ints[len(f.ints)-1] = val(f)
			return ctrlReturn
		}
	case *inspire.Break:
		return func(*frame) ctrl { return ctrlBreak }
	case *inspire.Continue:
		return func(*frame) ctrl { return ctrlContinue }
	case *inspire.Barrier:
		cc.out.hasBarrier = true
		return func(f *frame) ctrl {
			f.cnt.Barriers++
			if f.bar != nil {
				f.bar.wait()
			}
			return ctrlNext
		}
	case *inspire.Eval:
		switch {
		case st.X.ExprType().IsFloat():
			e := cc.floatExpr(st.X)
			return func(f *frame) ctrl { e(f); return ctrlNext }
		case st.X.ExprType().Equal(minicl.TypeVoid):
			throwf("exec: void expression statement not supported")
			return nil
		default:
			e := cc.intExpr(st.X)
			return func(f *frame) ctrl { e(f); return ctrlNext }
		}
	}
	throwf("exec: cannot compile statement %T", s)
	return nil
}

func (cc *compiler) declStmt(st *inspire.Decl) stmtFn {
	s := cc.slotFor(st.Var)
	switch s.kind {
	case slotFloat:
		idx := s.idx
		if st.Init == nil {
			return func(f *frame) ctrl { f.floats[idx] = 0; return ctrlNext }
		}
		val := cc.floatExpr(st.Init)
		return func(f *frame) ctrl { f.floats[idx] = val(f); return ctrlNext }
	case slotInt:
		idx := s.idx
		if st.Init == nil {
			return func(f *frame) ctrl { f.ints[idx] = 0; return ctrlNext }
		}
		val := cc.intExpr(st.Init)
		return func(f *frame) ctrl { f.ints[idx] = val(f); return ctrlNext }
	}
	throwf("exec: cannot declare pointer-typed local %s", st.Var)
	return nil
}

func (cc *compiler) storeVar(st *inspire.StoreVar) stmtFn {
	s := cc.slotFor(st.Var)
	switch s.kind {
	case slotFloat:
		idx := s.idx
		val := cc.floatExpr(st.Value)
		return func(f *frame) ctrl { f.floats[idx] = val(f); return ctrlNext }
	case slotInt:
		idx := s.idx
		val := cc.intExpr(st.Value)
		return func(f *frame) ctrl { f.ints[idx] = val(f); return ctrlNext }
	}
	throwf("exec: cannot store to pointer variable %s", st.Var)
	return nil
}

func (cc *compiler) storeElem(st *inspire.StoreElem) stmtFn {
	buf := cc.bufferFor(st.Buf)
	idx := cc.intExpr(st.Index)
	isLocal := st.Buf.Type.Space == minicl.Local
	name := st.Buf.Name
	if st.Buf.Type.Elem().IsFloat() {
		val := cc.floatExpr(st.Value)
		return func(f *frame) ctrl {
			b := buf(f)
			i := idx(f)
			if i < 0 || i >= int64(len(b.F)) {
				throwf("exec: store to %s[%d] out of bounds (len %d)", name, i, len(b.F))
			}
			b.F[i] = float32(val(f))
			if isLocal {
				f.cnt.LocalOps++
			} else {
				f.cnt.GlobalStores++
			}
			return ctrlNext
		}
	}
	val := cc.intExpr(st.Value)
	return func(f *frame) ctrl {
		b := buf(f)
		i := idx(f)
		if i < 0 || i >= int64(len(b.I)) {
			throwf("exec: store to %s[%d] out of bounds (len %d)", name, i, len(b.I))
		}
		b.I[i] = int32(val(f))
		if isLocal {
			f.cnt.LocalOps++
		} else {
			f.cnt.GlobalStores++
		}
		return ctrlNext
	}
}

// --- expressions ---

// intExpr compiles an integer-valued expression (bools yield 0/1).
func (cc *compiler) intExpr(e inspire.Expr) intFn {
	t := e.ExprType()
	if t.IsBool() {
		b := cc.boolExpr(e)
		return func(f *frame) int64 {
			if b(f) {
				return 1
			}
			return 0
		}
	}
	if t.IsFloat() {
		fe := cc.floatExpr(e)
		return func(f *frame) int64 { return int64(fe(f)) }
	}
	switch ex := e.(type) {
	case *inspire.ConstInt:
		v := ex.Value
		return func(*frame) int64 { return v }
	case *inspire.VarRef:
		s := cc.slotFor(ex.Var)
		if s.kind != slotInt {
			throwf("exec: int read of non-int variable %s", ex.Var)
		}
		idx := s.idx
		return func(f *frame) int64 { return f.ints[idx] }
	case *inspire.Load:
		buf := cc.bufferFor(ex.Buf)
		idx := cc.intExpr(ex.Index)
		isLocal := ex.Buf.Type.Space == minicl.Local
		name := ex.Buf.Name
		return func(f *frame) int64 {
			b := buf(f)
			i := idx(f)
			if i < 0 || i >= int64(len(b.I)) {
				throwf("exec: load %s[%d] out of bounds (len %d)", name, i, len(b.I))
			}
			if isLocal {
				f.cnt.LocalOps++
			} else {
				f.cnt.GlobalLoads++
			}
			return int64(b.I[i])
		}
	case *inspire.BinOp:
		return cc.intBinOp(ex)
	case *inspire.UnOp:
		x := cc.intExpr(ex.X)
		return func(f *frame) int64 { f.cnt.IntOps++; return -x(f) }
	case *inspire.Select:
		cond := cc.boolExpr(ex.Cond)
		then := cc.intExpr(ex.Then)
		els := cc.intExpr(ex.Else)
		return func(f *frame) int64 {
			f.cnt.Branches++
			if cond(f) {
				return then(f)
			}
			return els(f)
		}
	case *inspire.Cast:
		return cc.intExpr(ex.X) // int<->uint<->bool handled by operand paths
	case *inspire.WorkItem:
		return cc.workItem(ex)
	case *inspire.CallBuiltin:
		args := make([]func(*frame) int64, len(ex.Args))
		for i, a := range ex.Args {
			args[i] = cc.intExpr(a)
		}
		return builtin(ex, ex.Builtin.Int, args)
	case *inspire.CallFunc:
		call := cc.callFunc(ex)
		return func(f *frame) int64 {
			child := call(f)
			return child.ints[len(child.ints)-1]
		}
	}
	throwf("exec: cannot compile int expression %T", e)
	return nil
}

func (cc *compiler) intBinOp(ex *inspire.BinOp) intFn {
	l := cc.intExpr(ex.L)
	r := cc.intExpr(ex.R)
	switch ex.Op {
	case inspire.OpAdd:
		return func(f *frame) int64 { f.cnt.IntOps++; return l(f) + r(f) }
	case inspire.OpSub:
		return func(f *frame) int64 { f.cnt.IntOps++; return l(f) - r(f) }
	case inspire.OpMul:
		return func(f *frame) int64 { f.cnt.IntOps++; return l(f) * r(f) }
	case inspire.OpDiv:
		return func(f *frame) int64 {
			f.cnt.IntOps++
			d := r(f)
			if d == 0 {
				throwf("exec: integer division by zero")
			}
			return l(f) / d
		}
	case inspire.OpMod:
		return func(f *frame) int64 {
			f.cnt.IntOps++
			d := r(f)
			if d == 0 {
				throwf("exec: integer modulo by zero")
			}
			return l(f) % d
		}
	case inspire.OpAnd:
		return func(f *frame) int64 { f.cnt.IntOps++; return l(f) & r(f) }
	case inspire.OpOr:
		return func(f *frame) int64 { f.cnt.IntOps++; return l(f) | r(f) }
	case inspire.OpXor:
		return func(f *frame) int64 { f.cnt.IntOps++; return l(f) ^ r(f) }
	case inspire.OpShl:
		return func(f *frame) int64 { f.cnt.IntOps++; return l(f) << uint(r(f)&63) }
	case inspire.OpShr:
		return func(f *frame) int64 { f.cnt.IntOps++; return l(f) >> uint(r(f)&63) }
	}
	throwf("exec: bad int binop %s", ex.Op)
	return nil
}

// floatExpr compiles a float-valued expression; ints are converted.
func (cc *compiler) floatExpr(e inspire.Expr) floatFn {
	t := e.ExprType()
	if !t.IsFloat() {
		ie := cc.intExpr(e)
		return func(f *frame) float64 { return float64(ie(f)) }
	}
	switch ex := e.(type) {
	case *inspire.ConstFloat:
		v := ex.Value
		return func(*frame) float64 { return v }
	case *inspire.VarRef:
		s := cc.slotFor(ex.Var)
		if s.kind != slotFloat {
			throwf("exec: float read of non-float variable %s", ex.Var)
		}
		idx := s.idx
		return func(f *frame) float64 { return f.floats[idx] }
	case *inspire.Load:
		buf := cc.bufferFor(ex.Buf)
		idx := cc.intExpr(ex.Index)
		isLocal := ex.Buf.Type.Space == minicl.Local
		name := ex.Buf.Name
		return func(f *frame) float64 {
			b := buf(f)
			i := idx(f)
			if i < 0 || i >= int64(len(b.F)) {
				throwf("exec: load %s[%d] out of bounds (len %d)", name, i, len(b.F))
			}
			if isLocal {
				f.cnt.LocalOps++
			} else {
				f.cnt.GlobalLoads++
			}
			return float64(b.F[i])
		}
	case *inspire.BinOp:
		l := cc.floatExpr(ex.L)
		r := cc.floatExpr(ex.R)
		switch ex.Op {
		case inspire.OpAdd:
			return func(f *frame) float64 { f.cnt.FloatOps++; return l(f) + r(f) }
		case inspire.OpSub:
			return func(f *frame) float64 { f.cnt.FloatOps++; return l(f) - r(f) }
		case inspire.OpMul:
			return func(f *frame) float64 { f.cnt.FloatOps++; return l(f) * r(f) }
		case inspire.OpDiv:
			return func(f *frame) float64 { f.cnt.FloatOps++; return l(f) / r(f) }
		}
		throwf("exec: bad float binop %s", ex.Op)
	case *inspire.UnOp:
		x := cc.floatExpr(ex.X)
		return func(f *frame) float64 { f.cnt.FloatOps++; return -x(f) }
	case *inspire.Select:
		cond := cc.boolExpr(ex.Cond)
		then := cc.floatExpr(ex.Then)
		els := cc.floatExpr(ex.Else)
		return func(f *frame) float64 {
			f.cnt.Branches++
			if cond(f) {
				return then(f)
			}
			return els(f)
		}
	case *inspire.Cast:
		return cc.floatExpr(ex.X)
	case *inspire.CallBuiltin:
		args := make([]func(*frame) float64, len(ex.Args))
		for i, a := range ex.Args {
			args[i] = cc.floatExpr(a)
		}
		return builtin(ex, ex.Builtin.Float, args)
	case *inspire.CallFunc:
		call := cc.callFunc(ex)
		return func(f *frame) float64 {
			child := call(f)
			return child.floats[len(child.floats)-1]
		}
	}
	throwf("exec: cannot compile float expression %T", e)
	return nil
}

func (cc *compiler) boolExpr(e inspire.Expr) boolFn {
	t := e.ExprType()
	if !t.IsBool() {
		ie := cc.intExpr(e)
		return func(f *frame) bool { return ie(f) != 0 }
	}
	switch ex := e.(type) {
	case *inspire.ConstBool:
		v := ex.Value
		return func(*frame) bool { return v }
	case *inspire.VarRef:
		s := cc.slotFor(ex.Var)
		idx := s.idx
		return func(f *frame) bool { return f.ints[idx] != 0 }
	case *inspire.UnOp: // LNot
		x := cc.boolExpr(ex.X)
		return func(f *frame) bool { f.cnt.IntOps++; return !x(f) }
	case *inspire.Select:
		cond := cc.boolExpr(ex.Cond)
		then := cc.boolExpr(ex.Then)
		els := cc.boolExpr(ex.Else)
		return func(f *frame) bool {
			f.cnt.Branches++
			if cond(f) {
				return then(f)
			}
			return els(f)
		}
	case *inspire.Cast:
		return cc.boolExpr(ex.X)
	case *inspire.BinOp:
		if ex.Op.IsLogical() {
			l := cc.boolExpr(ex.L)
			r := cc.boolExpr(ex.R)
			if ex.Op == inspire.OpLAnd {
				return func(f *frame) bool { f.cnt.IntOps++; return l(f) && r(f) }
			}
			return func(f *frame) bool { f.cnt.IntOps++; return l(f) || r(f) }
		}
		// Comparison: operand types decide int vs float comparison.
		if ex.L.ExprType().IsFloat() || ex.R.ExprType().IsFloat() {
			l := cc.floatExpr(ex.L)
			r := cc.floatExpr(ex.R)
			switch ex.Op {
			case inspire.OpLt:
				return func(f *frame) bool { f.cnt.FloatOps++; return l(f) < r(f) }
			case inspire.OpLe:
				return func(f *frame) bool { f.cnt.FloatOps++; return l(f) <= r(f) }
			case inspire.OpGt:
				return func(f *frame) bool { f.cnt.FloatOps++; return l(f) > r(f) }
			case inspire.OpGe:
				return func(f *frame) bool { f.cnt.FloatOps++; return l(f) >= r(f) }
			case inspire.OpEq:
				return func(f *frame) bool { f.cnt.FloatOps++; return l(f) == r(f) }
			case inspire.OpNe:
				return func(f *frame) bool { f.cnt.FloatOps++; return l(f) != r(f) }
			}
		}
		l := cc.intExpr(ex.L)
		r := cc.intExpr(ex.R)
		switch ex.Op {
		case inspire.OpLt:
			return func(f *frame) bool { f.cnt.IntOps++; return l(f) < r(f) }
		case inspire.OpLe:
			return func(f *frame) bool { f.cnt.IntOps++; return l(f) <= r(f) }
		case inspire.OpGt:
			return func(f *frame) bool { f.cnt.IntOps++; return l(f) > r(f) }
		case inspire.OpGe:
			return func(f *frame) bool { f.cnt.IntOps++; return l(f) >= r(f) }
		case inspire.OpEq:
			return func(f *frame) bool { f.cnt.IntOps++; return l(f) == r(f) }
		case inspire.OpNe:
			return func(f *frame) bool { f.cnt.IntOps++; return l(f) != r(f) }
		}
	}
	throwf("exec: cannot compile bool expression %T", e)
	return nil
}

func (cc *compiler) workItem(ex *inspire.WorkItem) intFn {
	dim := cc.intExpr(ex.Dim)
	q := ex.Query
	return func(f *frame) int64 {
		f.cnt.IntOps++
		d := dim(f)
		if d < 0 || d > 2 {
			throwf("exec: work-item query dimension %d out of range", d)
		}
		switch q {
		case inspire.GlobalID:
			return f.wi.gid[d]
		case inspire.LocalID:
			return f.wi.lid[d]
		case inspire.GroupID:
			return f.wi.grp[d]
		case inspire.GlobalSize:
			return f.wi.gsz[d]
		case inspire.LocalSize:
			return f.wi.lsz[d]
		default:
			return f.wi.ngr[d]
		}
	}
}

// builtin compiles a call of a math builtin over T, the variant impl
// implements: the arguments in order, one count of the builtin's cost
// class, then the registry's reference implementation.
func builtin[T int64 | float64](ex *inspire.CallBuiltin, impl any, args []func(*frame) T) func(*frame) T {
	trans := ex.Builtin.Cost == minicl.CostTranscendental
	count := func(f *frame) {
		if trans {
			f.cnt.TransOps++
		} else {
			f.cnt.OtherBuiltins++
		}
	}
	switch fn := impl.(type) {
	case func(T) T:
		x := args[0]
		return func(f *frame) T { count(f); return fn(x(f)) }
	case func(T, T) T:
		x, y := args[0], args[1]
		return func(f *frame) T { count(f); return fn(x(f), y(f)) }
	case func(T, T, T) T:
		x, y, z := args[0], args[1], args[2]
		return func(f *frame) T { count(f); return fn(x(f), y(f), z(f)) }
	}
	throwf("exec: builtin %s has no %T variant", ex.Builtin.Name, *new(T))
	return nil
}

// callFunc compiles a helper call: evaluate arguments, run the callee's
// body in a fresh child frame, and hand the frame back for return-value
// extraction. Scalar returns use slot 0 of the respective bank (reserved
// because the callee's first declared variable could collide — so we shift
// callee slots by one).
func (cc *compiler) callFunc(ex *inspire.CallFunc) func(*frame) *frame {
	callee := compileWith(ex.Callee, cc.helpers)
	if callee.body == nil {
		throwf("exec: recursive helper %q not supported", ex.Callee.Name)
	}
	if callee.hasBarrier {
		cc.out.hasBarrier = true
	}
	type binder func(parent, child *frame)
	binders := make([]binder, len(ex.Args))
	for i, a := range ex.Args {
		ps := callee.paramSlots[i]
		switch ps.kind {
		case slotFloat:
			val := cc.floatExpr(a)
			idx := ps.idx
			binders[i] = func(p, c *frame) { c.floats[idx] = val(p) }
		case slotInt:
			val := cc.intExpr(a)
			idx := ps.idx
			binders[i] = func(p, c *frame) { c.ints[idx] = val(p) }
		case slotGlobalBuf:
			vr, ok := a.(*inspire.VarRef)
			if !ok {
				throwf("exec: buffer argument to %q must be a parameter reference", ex.Callee.Name)
			}
			src := cc.bufferFor(vr.Var)
			idx := ps.idx
			binders[i] = func(p, c *frame) { c.bufs[idx] = src(p) }
		case slotLocalBuf:
			vr, ok := a.(*inspire.VarRef)
			if !ok {
				throwf("exec: local buffer argument to %q must be a parameter reference", ex.Callee.Name)
			}
			src := cc.bufferFor(vr.Var)
			idx := ps.idx
			binders[i] = func(p, c *frame) { c.locals[idx] = src(p) }
		}
	}
	nInts, nFloats := callee.nInts+1, callee.nFloats+1
	nG, nL := callee.nGlobal, callee.nLocal
	body := callee.body
	return func(parent *frame) *frame {
		parent.tick()
		child := &frame{
			ints:   make([]int64, nInts),
			floats: make([]float64, nFloats),
			wi:     parent.wi,
			cnt:    parent.cnt,
			bar:    parent.bar,
			budget: parent.budget,
		}
		if nG > 0 {
			child.bufs = make([]*Buffer, nG)
		}
		if nL > 0 {
			child.locals = make([]*Buffer, nL)
		}
		for _, b := range binders {
			b(parent, child)
		}
		body(child)
		return child
	}
}
