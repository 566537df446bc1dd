package vm

import (
	"fmt"

	"repro/internal/inspire"
	"repro/internal/minicl"
)

// Options controls bytecode compilation.
type Options struct {
	// NoFuse disables the peephole super-instruction pass, keeping the
	// straightforward one-IR-op-per-instruction encoding.
	NoFuse bool
}

// compileError is thrown (via panic) for unsupported constructs and
// recovered at the Compile boundary, mirroring exec's execError.
type compileError struct{ err error }

func failf(format string, args ...any) {
	panic(compileError{fmt.Errorf(format, args...)})
}

// bufRef is the compile-time location of a buffer variable: its slot in
// the global or local buffer table plus its name for fault messages.
type bufRef struct {
	local bool
	slot  int32
	name  int32
}

type loopCtx struct {
	breaks    []int // Jmp pcs to patch to the loop end
	continues []int // Jmp pcs to patch to the post/cond label
}

// retCtx is the return target of an inlined helper call: returns
// compile their value into dst and jump past the inlined body.
type retCtx struct {
	dst     int32
	isFloat bool
	jumps   []int
}

type valKind int

const (
	kindInt valKind = iota
	kindFloat
	kindBool
)

type compiler struct {
	code  []Instr
	fpool []float64
	fidx  map[float64]int32
	names []string
	nidx  map[string]int32

	// Variable locations. Helper variables are registered at each call
	// site (recursion is rejected, so one binding is live at a time).
	regI map[*inspire.Var]int32
	regF map[*inspire.Var]int32
	bufs map[*inspire.Var]bufRef

	// Register allocation is monotonic: every variable, temporary, and
	// constant gets its own register (registers are cheap frame slots,
	// and single-assignment temporaries are what lets the peephole pass
	// prove a producer/consumer pair safe to fuse). Variables of the
	// function being compiled sit below the floor; temporaries and
	// inlined helpers' variables are allocated above it.
	floorI, floorF int32
	nextI, nextF   int32

	// Constants are hoisted into dedicated registers, materialized once
	// by a prologue instead of reloaded at every use.
	constIReg map[int64]int32
	constFReg map[float64]int32
	prologue  []Instr

	nGlobal, nLocal int32
	params          []Param

	inline    []*inspire.Function // inlining stack, for recursion detection
	loops     []*loopCtx
	rets      []*retCtx
	haltJumps []int // kernel-level returns, patched to the trailing halt
}

// Compile lowers a sema-checked kernel to bytecode with fusion enabled.
func Compile(fn *inspire.Function) (*Func, error) {
	return CompileOpts(fn, Options{})
}

// CompileOpts lowers a sema-checked kernel to bytecode. Helper calls
// are inlined; recursion and constructs the closure tier rejects fail
// with the same errors.
func CompileOpts(fn *inspire.Function, opt Options) (prog *Func, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(compileError); ok {
				prog, err = nil, ce.err
				return
			}
			panic(r)
		}
	}()
	c := &compiler{
		fidx: map[float64]int32{},
		nidx: map[string]int32{},
		regI: map[*inspire.Var]int32{},
		regF: map[*inspire.Var]int32{},
		bufs: map[*inspire.Var]bufRef{},

		constIReg: map[int64]int32{},
		constFReg: map[float64]int32{},
	}
	for _, p := range fn.Params {
		switch {
		case p.Type.Ptr && p.Type.Space == minicl.Local:
			c.bufs[p] = bufRef{local: true, slot: c.nLocal, name: c.nameOf(p.Name)}
			c.params = append(c.params, Param{Kind: ParamLocal, Index: c.nLocal})
			c.nLocal++
		case p.Type.Ptr:
			c.bufs[p] = bufRef{slot: c.nGlobal, name: c.nameOf(p.Name)}
			c.params = append(c.params, Param{Kind: ParamGlobal, Index: c.nGlobal})
			c.nGlobal++
		case p.Type.IsFloat():
			r := c.allocF()
			c.regF[p] = r
			c.params = append(c.params, Param{Kind: ParamFloat, Index: r})
		default: // int, uint, bool scalars
			r := c.allocI()
			c.regI[p] = r
			c.params = append(c.params, Param{Kind: ParamInt, Index: r})
		}
	}
	c.declareLocals(fn.Body)
	c.floorI, c.floorF = c.nextI, c.nextF
	c.block(fn.Body)
	halt := c.emit(Instr{Op: OpHalt})
	for _, pc := range c.haltJumps {
		c.code[pc].Imm = int64(halt)
	}
	// Materialize hoisted constants once, ahead of the body; every jump
	// target shifts by the prologue length. (Fusion has not run yet, so
	// these four are the only jump encodings.)
	if n := len(c.prologue); n > 0 {
		code := make([]Instr, 0, n+len(c.code))
		code = append(code, c.prologue...)
		for _, in := range c.code {
			switch in.Op {
			case OpJmp, OpJZBr, OpJZLog, OpJNZLog:
				in.Imm += int64(n)
			}
			code = append(code, in)
		}
		c.code = code
	}
	prog = &Func{
		Name:       fn.Name,
		Code:       c.code,
		FPool:      c.fpool,
		Names:      c.names,
		NumI:       int(c.nextI),
		NumF:       int(c.nextF),
		NumGlobals: int(c.nGlobal),
		NumLocal:   int(c.nLocal),
		Params:     c.params,
	}
	if !opt.NoFuse {
		fuse(prog)
	}
	if err := prog.buildProfile(); err != nil {
		return nil, err
	}
	return prog, nil
}

// declareLocals assigns registers to every variable declared in the
// block tree (including loop-init declarations).
func (c *compiler) declareLocals(b *inspire.Block) {
	inspire.WalkStmts(b, func(s inspire.Stmt) bool {
		d, ok := s.(*inspire.Decl)
		if !ok {
			return true
		}
		v := d.Var
		switch {
		case v.Type.Ptr:
			failf("exec: cannot declare pointer-typed local %s", v)
		case v.Type.IsFloat():
			c.regF[v] = c.allocF()
		default:
			c.regI[v] = c.allocI()
		}
		return true
	})
}

func (c *compiler) allocI() int32 {
	r := c.nextI
	c.nextI++
	return r
}

func (c *compiler) allocF() int32 {
	r := c.nextF
	c.nextF++
	return r
}

// constI returns the dedicated register holding integer constant v,
// materialized once in the prologue.
func (c *compiler) constI(v int64) int32 {
	if r, ok := c.constIReg[v]; ok {
		return r
	}
	r := c.allocI()
	c.constIReg[v] = r
	c.prologue = append(c.prologue, Instr{Op: OpLdcI, A: r, Imm: v})
	return r
}

// constF returns the dedicated register holding float constant v.
func (c *compiler) constF(v float64) int32 {
	if r, ok := c.constFReg[v]; ok {
		return r
	}
	r := c.allocF()
	c.constFReg[v] = r
	c.prologue = append(c.prologue, Instr{Op: OpLdcF, A: r, Imm: int64(c.fconst(v))})
	return r
}
func (c *compiler) emit(in Instr) int    { c.code = append(c.code, in); return len(c.code) - 1 }
func (c *compiler) here() int            { return len(c.code) }
func (c *compiler) patch(pc, target int) { c.code[pc].Imm = int64(target) }

func (c *compiler) fconst(v float64) int32 {
	if i, ok := c.fidx[v]; ok {
		return i
	}
	i := int32(len(c.fpool))
	c.fpool = append(c.fpool, v)
	c.fidx[v] = i
	return i
}

func (c *compiler) nameOf(s string) int32 {
	if i, ok := c.nidx[s]; ok {
		return i
	}
	i := int32(len(c.names))
	c.names = append(c.names, s)
	c.nidx[s] = i
	return i
}

// --- statements ---

func (c *compiler) block(b *inspire.Block) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		c.stmt(s)
	}
}

func (c *compiler) stmt(s inspire.Stmt) {
	switch st := s.(type) {
	case *inspire.Block:
		c.block(st)
	case *inspire.Decl:
		c.assignVar(st.Var, st.Init)
	case *inspire.StoreVar:
		c.assignVar(st.Var, st.Value)
	case *inspire.StoreElem:
		c.storeElem(st)
	case *inspire.If:
		t := c.boolVal(st.Cond)
		jz := c.emit(Instr{Op: OpJZBr, A: t})
		c.block(st.Then)
		if st.Else == nil {
			c.patch(jz, c.here())
			return
		}
		jend := c.emit(Instr{Op: OpJmp})
		c.patch(jz, c.here())
		c.block(st.Else)
		c.patch(jend, c.here())
	case *inspire.For:
		if st.Init != nil {
			c.stmt(st.Init)
		}
		lcond := c.here()
		jz := -1
		if st.Cond != nil {
			t := c.boolVal(st.Cond)
			jz = c.emit(Instr{Op: OpJZBr, A: t})
		}
		lc := &loopCtx{}
		c.loops = append(c.loops, lc)
		c.block(st.Body)
		c.loops = c.loops[:len(c.loops)-1]
		lpost := c.here()
		if st.Post != nil {
			c.stmt(st.Post)
		}
		c.emit(Instr{Op: OpJmp, Imm: int64(lcond)})
		lend := c.here()
		if jz >= 0 {
			c.patch(jz, lend)
		}
		for _, pc := range lc.breaks {
			c.patch(pc, lend)
		}
		for _, pc := range lc.continues {
			c.patch(pc, lpost)
		}
	case *inspire.While:
		lcond := c.here()
		t := c.boolVal(st.Cond)
		jz := c.emit(Instr{Op: OpJZBr, A: t})
		lc := &loopCtx{}
		c.loops = append(c.loops, lc)
		c.block(st.Body)
		c.loops = c.loops[:len(c.loops)-1]
		c.emit(Instr{Op: OpJmp, Imm: int64(lcond)})
		lend := c.here()
		c.patch(jz, lend)
		for _, pc := range lc.breaks {
			c.patch(pc, lend)
		}
		for _, pc := range lc.continues {
			c.patch(pc, lcond)
		}
	case *inspire.Return:
		if len(c.rets) == 0 {
			// Kernel-level return: evaluate for effects, jump to halt.
			if st.Value != nil {
				c.evalExpr(st.Value)
			}
			c.haltJumps = append(c.haltJumps, c.emit(Instr{Op: OpJmp}))
			return
		}
		r := c.rets[len(c.rets)-1]
		if st.Value != nil {
			if r.isFloat {
				c.fltInto(st.Value, r.dst)
			} else {
				c.intInto(st.Value, r.dst)
			}
		}
		r.jumps = append(r.jumps, c.emit(Instr{Op: OpJmp}))
	case *inspire.Break:
		if len(c.loops) == 0 {
			failf("exec: break outside loop")
		}
		lc := c.loops[len(c.loops)-1]
		lc.breaks = append(lc.breaks, c.emit(Instr{Op: OpJmp}))
	case *inspire.Continue:
		if len(c.loops) == 0 {
			failf("exec: continue outside loop")
		}
		lc := c.loops[len(c.loops)-1]
		lc.continues = append(lc.continues, c.emit(Instr{Op: OpJmp}))
	case *inspire.Barrier:
		c.emit(Instr{Op: OpBar})
	case *inspire.Eval:
		if st.X.ExprType().Equal(minicl.TypeVoid) {
			failf("exec: void expression statement not supported")
		}
		c.evalExpr(st.X)
	default:
		failf("exec: cannot compile statement %T", s)
	}
}

// evalExpr compiles an expression for its side effects only.
func (c *compiler) evalExpr(e inspire.Expr) {
	if e.ExprType().IsFloat() {
		c.fltVal(e)
	} else {
		c.intVal(e)
	}
}

func (c *compiler) assignVar(v *inspire.Var, val inspire.Expr) {
	if r, ok := c.regF[v]; ok {
		if val == nil {
			c.emit(Instr{Op: OpLdcF, A: r, Imm: int64(c.fconst(0))})
		} else {
			c.fltInto(val, r)
		}
		return
	}
	r, ok := c.regI[v]
	if !ok {
		failf("exec: cannot store to pointer variable %s", v)
	}
	switch {
	case val == nil:
		c.emit(Instr{Op: OpLdcI, A: r})
	case v.Type.IsBool():
		c.boolInto(val, r)
	default:
		c.intInto(val, r)
	}
}

func (c *compiler) storeElem(st *inspire.StoreElem) {
	ref, ok := c.bufs[st.Buf]
	if !ok {
		failf("exec: cannot store to pointer variable %s", st.Buf)
	}
	idx := c.intVal(st.Index)
	if st.Buf.Type.Elem().IsFloat() {
		v := c.fltVal(st.Value)
		op := OpStGF
		if ref.local {
			op = OpStLF
		}
		c.emit(Instr{Op: op, A: v, B: ref.slot, C: idx, Imm: int64(ref.name)})
	} else {
		v := c.intVal(st.Value)
		op := OpStGI
		if ref.local {
			op = OpStLI
		}
		c.emit(Instr{Op: op, A: v, B: ref.slot, C: idx, Imm: int64(ref.name)})
	}
}

// --- expressions ---

// intVal returns a register holding the integer value of e; variable
// reads return the variable's own register without a move.
func (c *compiler) intVal(e inspire.Expr) int32 {
	t := e.ExprType()
	if t.IsBool() {
		return c.boolVal(e)
	}
	if ci, ok := e.(*inspire.ConstInt); ok {
		return c.constI(ci.Value)
	}
	if vr, ok := e.(*inspire.VarRef); ok && !t.IsFloat() {
		if r, ok := c.regI[vr.Var]; ok {
			return r
		}
	}
	r := c.allocI()
	c.intInto(e, r)
	return r
}

func (c *compiler) fltVal(e inspire.Expr) int32 {
	if cf, ok := e.(*inspire.ConstFloat); ok && e.ExprType().IsFloat() {
		return c.constF(cf.Value)
	}
	if vr, ok := e.(*inspire.VarRef); ok && e.ExprType().IsFloat() {
		if r, ok := c.regF[vr.Var]; ok {
			return r
		}
	}
	r := c.allocF()
	c.fltInto(e, r)
	return r
}

func (c *compiler) boolVal(e inspire.Expr) int32 {
	if cb, ok := e.(*inspire.ConstBool); ok && e.ExprType().IsBool() {
		if cb.Value {
			return c.constI(1)
		}
		return c.constI(0)
	}
	if vr, ok := e.(*inspire.VarRef); ok && e.ExprType().IsBool() {
		if r, ok := c.regI[vr.Var]; ok {
			return r
		}
	}
	r := c.allocI()
	c.boolInto(e, r)
	return r
}

var intBinOps = map[inspire.Op]Opcode{
	inspire.OpAdd: OpAddI, inspire.OpSub: OpSubI, inspire.OpMul: OpMulI,
	inspire.OpDiv: OpDivI, inspire.OpMod: OpModI, inspire.OpAnd: OpAndI,
	inspire.OpOr: OpOrI, inspire.OpXor: OpXorI, inspire.OpShl: OpShlI,
	inspire.OpShr: OpShrI,
}

var fltBinOps = map[inspire.Op]Opcode{
	inspire.OpAdd: OpAddF, inspire.OpSub: OpSubF,
	inspire.OpMul: OpMulF, inspire.OpDiv: OpDivF,
}

var intCmpOps = map[inspire.Op]Opcode{
	inspire.OpLt: OpLtI, inspire.OpLe: OpLeI, inspire.OpGt: OpGtI,
	inspire.OpGe: OpGeI, inspire.OpEq: OpEqI, inspire.OpNe: OpNeI,
}

var fltCmpOps = map[inspire.Op]Opcode{
	inspire.OpLt: OpLtF, inspire.OpLe: OpLeF, inspire.OpGt: OpGtF,
	inspire.OpGe: OpGeF, inspire.OpEq: OpEqF, inspire.OpNe: OpNeF,
}

// intInto compiles an integer-valued expression into I[dst] (bools
// yield 0/1, floats truncate like the closure tier).
func (c *compiler) intInto(e inspire.Expr, dst int32) {
	t := e.ExprType()
	if t.IsBool() {
		c.boolInto(e, dst)
		return
	}
	if t.IsFloat() {
		s := c.fltVal(e)
		c.emit(Instr{Op: OpF2I, A: dst, B: s})
		return
	}
	switch ex := e.(type) {
	case *inspire.ConstInt:
		c.emit(Instr{Op: OpLdcI, A: dst, Imm: ex.Value})
	case *inspire.VarRef:
		r, ok := c.regI[ex.Var]
		if !ok {
			failf("exec: int read of non-int variable %s", ex.Var)
		}
		if r != dst {
			c.emit(Instr{Op: OpMovI, A: dst, B: r})
		}
	case *inspire.Load:
		c.load(ex, dst, false)
	case *inspire.BinOp:
		op, ok := intBinOps[ex.Op]
		if !ok {
			failf("exec: bad int binop %s", ex.Op)
		}
		l := c.intVal(ex.L)
		r := c.intVal(ex.R)
		c.emit(Instr{Op: op, A: dst, B: l, C: r})
	case *inspire.UnOp:
		x := c.intVal(ex.X)
		c.emit(Instr{Op: OpNegI, A: dst, B: x})
	case *inspire.Select:
		c.selectInto(ex.Cond, ex.Then, ex.Else, dst, kindInt)
	case *inspire.Cast:
		c.intInto(ex.X, dst)
	case *inspire.WorkItem:
		c.workItem(ex, dst)
	case *inspire.CallBuiltin:
		c.builtin(ex, dst, intVariant)
	case *inspire.CallFunc:
		c.callInto(ex, dst, false)
	default:
		failf("exec: cannot compile int expression %T", e)
	}
}

// fltInto compiles a float-valued expression into F[dst]; integer and
// bool values are converted.
func (c *compiler) fltInto(e inspire.Expr, dst int32) {
	if !e.ExprType().IsFloat() {
		s := c.intVal(e)
		c.emit(Instr{Op: OpI2F, A: dst, B: s})
		return
	}
	switch ex := e.(type) {
	case *inspire.ConstFloat:
		c.emit(Instr{Op: OpLdcF, A: dst, Imm: int64(c.fconst(ex.Value))})
	case *inspire.VarRef:
		r, ok := c.regF[ex.Var]
		if !ok {
			failf("exec: float read of non-float variable %s", ex.Var)
		}
		if r != dst {
			c.emit(Instr{Op: OpMovF, A: dst, B: r})
		}
	case *inspire.Load:
		c.load(ex, dst, true)
	case *inspire.BinOp:
		op, ok := fltBinOps[ex.Op]
		if !ok {
			failf("exec: bad float binop %s", ex.Op)
		}
		l := c.fltVal(ex.L)
		r := c.fltVal(ex.R)
		c.emit(Instr{Op: op, A: dst, B: l, C: r})
	case *inspire.UnOp:
		x := c.fltVal(ex.X)
		c.emit(Instr{Op: OpNegF, A: dst, B: x})
	case *inspire.Select:
		c.selectInto(ex.Cond, ex.Then, ex.Else, dst, kindFloat)
	case *inspire.Cast:
		c.fltInto(ex.X, dst)
	case *inspire.CallBuiltin:
		c.builtin(ex, dst, floatVariant)
	case *inspire.CallFunc:
		c.callInto(ex, dst, true)
	default:
		failf("exec: cannot compile float expression %T", e)
	}
}

// boolInto compiles a bool-valued expression into I[dst] as 0/1;
// numeric values are normalized with an uncounted snz, matching the
// closure tier's uncounted != 0 read.
func (c *compiler) boolInto(e inspire.Expr, dst int32) {
	if !e.ExprType().IsBool() {
		s := c.intVal(e)
		c.emit(Instr{Op: OpSnzI, A: dst, B: s})
		return
	}
	switch ex := e.(type) {
	case *inspire.ConstBool:
		in := Instr{Op: OpLdcI, A: dst}
		if ex.Value {
			in.Imm = 1
		}
		c.emit(in)
	case *inspire.VarRef:
		r, ok := c.regI[ex.Var]
		if !ok {
			failf("exec: cannot compile bool expression %T", e)
		}
		if r != dst {
			c.emit(Instr{Op: OpMovI, A: dst, B: r})
		}
	case *inspire.UnOp: // logical not
		x := c.boolVal(ex.X)
		c.emit(Instr{Op: OpNotB, A: dst, B: x})
	case *inspire.Select:
		c.selectInto(ex.Cond, ex.Then, ex.Else, dst, kindBool)
	case *inspire.Cast:
		c.boolInto(ex.X, dst)
	case *inspire.BinOp:
		if ex.Op.IsLogical() {
			c.logical(ex, dst)
			return
		}
		if ex.L.ExprType().IsFloat() || ex.R.ExprType().IsFloat() {
			l := c.fltVal(ex.L)
			r := c.fltVal(ex.R)
			c.emit(Instr{Op: fltCmpOps[ex.Op], A: dst, B: l, C: r})
		} else {
			l := c.intVal(ex.L)
			r := c.intVal(ex.R)
			c.emit(Instr{Op: intCmpOps[ex.Op], A: dst, B: l, C: r})
		}
	default:
		failf("exec: cannot compile bool expression %T", e)
	}
}

// logical compiles a short-circuit && or ||. The left value lands in a
// scratch register first when dst could be read by the right operand
// (dst below the temp floor means it is a live variable).
func (c *compiler) logical(ex *inspire.BinOp, dst int32) {
	t := dst
	if dst < c.floorI {
		t = c.allocI()
	}
	c.boolInto(ex.L, t)
	op := OpJZLog
	if ex.Op == inspire.OpLOr {
		op = OpJNZLog
	}
	j := c.emit(Instr{Op: op, A: t})
	c.boolInto(ex.R, t)
	c.patch(j, c.here())
	if t != dst {
		c.emit(Instr{Op: OpMovI, A: dst, B: t})
	}
}

func (c *compiler) selectInto(cond, then, els inspire.Expr, dst int32, k valKind) {
	t := c.boolVal(cond)
	jz := c.emit(Instr{Op: OpJZBr, A: t})
	c.kindInto(then, dst, k)
	j := c.emit(Instr{Op: OpJmp})
	c.patch(jz, c.here())
	c.kindInto(els, dst, k)
	c.patch(j, c.here())
}

func (c *compiler) kindInto(e inspire.Expr, dst int32, k valKind) {
	switch k {
	case kindFloat:
		c.fltInto(e, dst)
	case kindBool:
		c.boolInto(e, dst)
	default:
		c.intInto(e, dst)
	}
}

func (c *compiler) load(ex *inspire.Load, dst int32, isFloat bool) {
	ref, ok := c.bufs[ex.Buf]
	if !ok {
		failf("exec: cannot compile load from %s", ex.Buf)
	}
	idx := c.intVal(ex.Index)
	var op Opcode
	switch {
	case isFloat && ref.local:
		op = OpLdLF
	case isFloat:
		op = OpLdGF
	case ref.local:
		op = OpLdLI
	default:
		op = OpLdGI
	}
	c.emit(Instr{Op: op, A: dst, B: ref.slot, C: idx, Imm: int64(ref.name)})
}

func (c *compiler) workItem(ex *inspire.WorkItem, dst int32) {
	if ci, ok := ex.Dim.(*inspire.ConstInt); ok && ci.Value >= 0 && ci.Value <= 2 {
		c.emit(Instr{Op: OpWI, A: dst, B: int32(ex.Query), C: int32(ci.Value)})
		return
	}
	d := c.intVal(ex.Dim)
	c.emit(Instr{Op: OpWIDyn, A: dst, B: int32(ex.Query), C: d})
}

// builtin compiles a call of a math builtin into register dst of the
// variant's register file: the arguments in order into B, C and the
// register packed in Imm, then the opcode bindBuiltins resolved for the
// variant.
func (c *compiler) builtin(ex *inspire.CallBuiltin, dst int32, variant int) {
	var args [3]int32
	for i, a := range ex.Args {
		if variant == floatVariant {
			args[i] = c.fltVal(a)
		} else {
			args[i] = c.intVal(a)
		}
	}
	op := builtinOps[ex.Builtin.ID][variant]
	if op == OpNop {
		failf("exec: builtin %s has no %s variant", ex.Builtin.Name, [2]string{"float", "int"}[variant])
	}
	c.emit(Instr{Op: op, A: dst, B: args[0], C: args[1], Imm: int64(args[2])})
}

// callInto inlines a helper call: arguments are evaluated in order into
// freshly allocated callee registers, buffer arguments rebind the
// callee's slots to the caller's, and the body is compiled in place
// with returns jumping past it. The destination is zeroed first so a
// body that falls off the end yields the closure tier's zero return.
func (c *compiler) callInto(ex *inspire.CallFunc, dst int32, isFloat bool) {
	callee := ex.Callee
	for _, f := range c.inline {
		if f == callee {
			failf("exec: recursive helper %q not supported", callee.Name)
		}
	}
	saveFI, saveFF := c.floorI, c.floorF
	for i, p := range callee.Params {
		a := ex.Args[i]
		switch {
		case p.Type.Ptr && p.Type.Space == minicl.Local:
			vr, ok := a.(*inspire.VarRef)
			if !ok {
				failf("exec: local buffer argument to %q must be a parameter reference", callee.Name)
			}
			ref := c.bufs[vr.Var]
			ref.name = c.nameOf(p.Name)
			c.bufs[p] = ref
		case p.Type.Ptr:
			vr, ok := a.(*inspire.VarRef)
			if !ok {
				failf("exec: buffer argument to %q must be a parameter reference", callee.Name)
			}
			ref := c.bufs[vr.Var]
			ref.name = c.nameOf(p.Name)
			c.bufs[p] = ref
		case p.Type.IsFloat():
			r := c.allocF()
			c.fltInto(a, r)
			c.regF[p] = r
		default:
			r := c.allocI()
			if p.Type.IsBool() {
				c.boolInto(a, r)
			} else {
				c.intInto(a, r)
			}
			c.regI[p] = r
		}
	}
	c.declareLocals(callee.Body)
	c.floorI, c.floorF = c.nextI, c.nextF
	if isFloat {
		c.emit(Instr{Op: OpLdcF, A: dst, Imm: int64(c.fconst(0))})
	} else {
		c.emit(Instr{Op: OpLdcI, A: dst})
	}
	r := &retCtx{dst: dst, isFloat: isFloat}
	c.rets = append(c.rets, r)
	c.inline = append(c.inline, callee)
	c.block(callee.Body)
	c.inline = c.inline[:len(c.inline)-1]
	c.rets = c.rets[:len(c.rets)-1]
	end := c.here()
	for _, pc := range r.jumps {
		c.patch(pc, end)
	}
	c.floorI, c.floorF = saveFI, saveFF
}
