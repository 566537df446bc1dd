// Package vm executes INSPIRE kernels as compact register bytecode.
//
// It is the fast execution tier behind internal/exec: the closure-tree
// interpreter (exec/compile.go) pays an indirect Go call per IR node per
// work item, while this package lowers an already-sema-checked kernel to
// a flat []Instr over two register files (int64 and float64) and runs it
// in one tight switch-based dispatch loop. Helper calls are inlined at
// compile time, so a kernel is always a single flat code array with no
// call machinery, and a peephole pass fuses the common
// load-compute-store and index-arithmetic sequences into
// super-instructions.
//
// Dynamic operation counts (Counts) are maintained exactly as the
// closure tier maintains them — every instruction bumps the same
// counters the equivalent closure would have bumped, and fused
// super-instructions bump the sum of their parts — so profiles are
// byte-identical between tiers. The closure tree is the reference the
// differential suites compare this package against; it serves nothing.
package vm

import (
	"fmt"

	"repro/internal/minicl"
)

// Opcode identifies one VM instruction.
type Opcode uint8

// Instruction set. Operand conventions are per-opcode and documented in
// the metadata registry below; broadly A is the destination register,
// B/C are source registers, and Imm holds an immediate, a jump target,
// a constant-pool index, or a packed memory operand.
const (
	OpNop Opcode = iota
	OpHalt

	// Moves and constants.
	OpMovI // I[A] = I[B]
	OpMovF // F[A] = F[B]
	OpLdcI // I[A] = Imm
	OpLdcF // F[A] = FPool[Imm]
	OpI2F  // F[A] = float64(I[B])
	OpF2I  // I[A] = int64(F[B])
	OpSnzI // I[A] = I[B] != 0 ? 1 : 0 (bool conversion; uncounted)

	// Integer ALU (IntOps++): I[A] = I[B] op I[C].
	OpAddI
	OpSubI
	OpMulI
	OpDivI
	OpModI
	OpAndI
	OpOrI
	OpXorI
	OpShlI
	OpShrI
	OpNegI // I[A] = -I[B]
	OpNotB // I[A] = !I[B] (logical not on 0/1)

	// Integer comparisons (IntOps++): I[A] = I[B] cmp I[C] ? 1 : 0.
	OpLtI
	OpLeI
	OpGtI
	OpGeI
	OpEqI
	OpNeI

	// Float ALU (FloatOps++): F[A] = F[B] op F[C].
	OpAddF
	OpSubF
	OpMulF
	OpDivF
	OpNegF // F[A] = -F[B]

	// Float comparisons (FloatOps++): I[A] = F[B] cmp F[C] ? 1 : 0.
	OpLtF
	OpLeF
	OpGtF
	OpGeF
	OpEqF
	OpNeF

	// Control flow. Targets are absolute instruction indices.
	OpJmp    // pc = Imm
	OpJZBr   // Branches++; if I[A] == 0 pc = Imm (If/While/For/Select)
	OpJZLog  // IntOps++;   if I[A] == 0 pc = Imm (short-circuit &&)
	OpJNZLog // IntOps++;   if I[A] != 0 pc = Imm (short-circuit ||)

	// Work-item queries (IntOps++). B is the WIQuery, the dimension is
	// the constant C (OpWI) or read from I[C] with a range check (OpWIDyn).
	OpWI
	OpWIDyn

	// Memory. B = buffer slot, C = index register, Imm = name-pool index
	// for fault messages. Loads/stores count GlobalLoads/GlobalStores
	// (global space) or LocalOps (local space), exactly like the closures.
	OpLdGF // F[A] = globals[B].F[I[C]]
	OpLdGI // I[A] = globals[B].I[I[C]]
	OpLdLF // F[A] = locals[B].F[I[C]]
	OpLdLI // I[A] = locals[B].I[I[C]]
	OpStGF // globals[B].F[I[C]] = float32(F[A])
	OpStGI // globals[B].I[I[C]] = int32(I[A])
	OpStLF // locals[B].F[I[C]] = float32(F[A])
	OpStLI // locals[B].I[I[C]] = int32(I[A])

	// Float builtins. Unary: F[A] = op(F[B]). Binary: F[A] = op(F[B], F[C]).
	// Each counts one op of its minicl builtin's cost class: TransOps or
	// OtherBuiltins.
	OpSqrtF
	OpRsqrtF
	OpExpF
	OpLogF
	OpLog2F
	OpSinF
	OpCosF
	OpTanF
	OpPowF
	OpAbsF
	OpFloorF
	OpCeilF
	OpMinF
	OpMaxF
	OpFmaF   // F[A] = F[B]*F[C] + F[Imm] (unfused multiply-add, like the closure)
	OpClampF // F[A] = max(F[C], min(F[B], F[Imm]))

	// Integer builtins (the int variants of the Poly builtins).
	OpMinI
	OpMaxI
	OpAbsI   // I[A] = |I[B]|
	OpClampI // I[A] = max(I[C], min(I[B], I[Imm]))

	// Work-group barrier (Barriers++). Suspends the frame; the group
	// runner resumes it once every live item of the group has arrived.
	OpBar

	// Super-instructions, produced only by the peephole fuser. Each
	// counts exactly what its unfused sequence would have counted.
	OpMulAddI   // IntOps += 2;   I[A] = I[B]*I[C] + I[Imm]
	OpMulAddF   // FloatOps += 2; F[A] = F[B]*F[C] + F[Imm]
	OpAddFLdG   // FloatOps++, GlobalLoads++; F[A] = F[B] + load(packed, I[C])
	OpMulFLdG   // FloatOps++, GlobalLoads++; F[A] = F[B] * load(packed, I[C])
	OpJCmpI     // IntOps++, Branches++;   if I[A] cc(C) I[B] pc = Imm
	OpJCmpF     // FloatOps++, Branches++; if F[A] cc(C) F[B] pc = Imm
	OpSubFLdG   // FloatOps++, GlobalLoads++; F[A] = F[B] - load(packed, I[C])
	OpLdSubFG   // FloatOps++, GlobalLoads++; F[A] = load(packed, I[C]) - F[B]
	OpMulAccLdG // FloatOps += 2, GlobalLoads++; F[A] += F[B] * load(packed, I[C])
	OpMulMulF   // FloatOps += 2; F[A] = F[B]*F[C]*F[Imm] (two rounded multiplies)
	OpLdGFIdx   // IntOps += 2, GlobalLoads++; F[A] = load(slot, I[B]*I[C]+I[r])
	OpMacLdGIdx // IntOps += 2, FloatOps += 2, GlobalLoads++; F[A] += F[B]*load(slot, I[C]*I[r2]+I[r3])
	OpIncJCmpI  // IntOps += 2, Branches++; I[A] += I[B]; if I[A] cc I[C] pc = target (cc|target in Imm)
	OpAddRsqrtF // FloatOps++, TransOps++; F[A] = 1/sqrt(F[B]+F[C]) (softened inverse distance)

	opCount // sentinel
)

// Condition codes for OpJCmp*. The N codes are the float-only negations
// of the ordered compares — "not less than" holds when the operands are
// unordered (a NaN) where "greater or equal" does not — so a fused
// compare-branch that jumps when `x < y` is false keeps doing so for NaN.
const (
	CcLt = iota
	CcLe
	CcGt
	CcGe
	CcEq
	CcNe
	CcNLt
	CcNLe
	CcNGt
	CcNGe
)

var ccNames = [...]string{CcLt: "lt", CcLe: "le", CcGt: "gt", CcGe: "ge", CcEq: "eq", CcNe: "ne",
	CcNLt: "nlt", CcNLe: "nle", CcNGt: "ngt", CcNGe: "nge"}

// invCc and invCcF invert an int and a float condition code (for loop
// rotation: the back-jump runs the loop test with the opposite sense of
// the exiting head compare).
var (
	invCc  = [...]int32{CcLt: CcGe, CcLe: CcGt, CcGt: CcLe, CcGe: CcLt, CcEq: CcNe, CcNe: CcEq}
	invCcF = [...]int32{CcLt: CcNLt, CcLe: CcNLe, CcGt: CcNGt, CcGe: CcNGe, CcEq: CcNe, CcNe: CcEq,
		CcNLt: CcLt, CcNLe: CcLe, CcNGt: CcGt, CcNGe: CcGe}
)

// Instr is one VM instruction. The operand meaning is per-opcode (see
// the opcode comments); unused fields are zero.
type Instr struct {
	Op      Opcode
	A, B, C int32
	Imm     int64
}

// Fmt describes an opcode's operand shape. The disassembler renders it;
// destReg and srcRegs read it to say which registers an instruction
// writes and reads, and whatever else needs to know — the peephole
// fuser's use counts, liveness, the vector tier's scal and srcU tables —
// asks those two.
type Fmt uint8

// Operand formats.
const (
	FmtNone      Fmt = iota
	FmtIabc          // I[A] <- I[B], I[C]
	FmtIab           // I[A] <- I[B]
	FmtIaImm         // I[A] <- Imm
	FmtFabc          // F[A] <- F[B], F[C]
	FmtFab           // F[A] <- F[B]
	FmtFaPool        // F[A] <- FPool[Imm]
	FmtFaIb          // F[A] <- I[B]
	FmtIaFb          // I[A] <- F[B]
	FmtIaFbc         // I[A] <- F[B], F[C]
	FmtFabcImm       // F[A] <- F[B], F[C], F[Imm]
	FmtIabcImm       // I[A] <- I[B], I[C], I[Imm]
	FmtJmp           // pc <- Imm
	FmtJCond         // test I[A]; pc <- Imm
	FmtWI            // I[A] <- query B, const dim C
	FmtWIDyn         // I[A] <- query B, dim I[C]
	FmtLoadF         // F[A] <- buf B [I[C]]
	FmtLoadI         // I[A] <- buf B [I[C]]
	FmtStoreF        // buf B [I[C]] <- F[A]
	FmtStoreI        // buf B [I[C]] <- I[A]
	FmtFusedLdF      // F[A] <- F[B] op load(packed Imm, I[C])
	FmtJCmpI         // if I[A] cc(C) I[B]: pc <- Imm
	FmtJCmpF         // if F[A] cc(C) F[B]: pc <- Imm
	FmtFusedMacF     // F[A] <- F[A] + F[B] * load(packed Imm, I[C])
	FmtLdIdxF        // F[A] <- buf [I[B]*I[C] + I[r]], packed Imm
	FmtMacIdxF       // F[A] <- F[A] + F[B] * buf [I[C]*I[r2] + I[r3]], packed Imm
	FmtIncJCmpI      // I[A] += I[B]; if I[A] cc I[C]: pc <- target
	FmtBar
)

// OpInfo is the registered metadata of one opcode: its mnemonic, its
// operand format, and whether the peephole pass created it (super).
type OpInfo struct {
	Name  string
	Fmt   Fmt
	Super bool
}

var opTable [opCount]OpInfo

// registerOp records opcode metadata; duplicate registration panics so
// mnemonic collisions are caught at init.
func registerOp(op Opcode, name string, f Fmt, super bool) {
	if opTable[op].Name != "" {
		panic(fmt.Sprintf("vm: opcode %d (%s) already registered", op, opTable[op].Name))
	}
	opTable[op] = OpInfo{Name: name, Fmt: f, Super: super}
}

// LookupOp returns the metadata registered for an opcode.
func LookupOp(op Opcode) (OpInfo, bool) {
	if int(op) >= len(opTable) || opTable[op].Name == "" {
		return OpInfo{}, false
	}
	return opTable[op], true
}

// String returns the opcode mnemonic.
func (op Opcode) String() string {
	if info, ok := LookupOp(op); ok {
		return info.Name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

func init() {
	registerOp(OpNop, "nop", FmtNone, false)
	registerOp(OpHalt, "halt", FmtNone, false)
	registerOp(OpMovI, "mov.i", FmtIab, false)
	registerOp(OpMovF, "mov.f", FmtFab, false)
	registerOp(OpLdcI, "ldc.i", FmtIaImm, false)
	registerOp(OpLdcF, "ldc.f", FmtFaPool, false)
	registerOp(OpI2F, "i2f", FmtFaIb, false)
	registerOp(OpF2I, "f2i", FmtIaFb, false)
	registerOp(OpSnzI, "snz.i", FmtIab, false)
	registerOp(OpAddI, "add.i", FmtIabc, false)
	registerOp(OpSubI, "sub.i", FmtIabc, false)
	registerOp(OpMulI, "mul.i", FmtIabc, false)
	registerOp(OpDivI, "div.i", FmtIabc, false)
	registerOp(OpModI, "mod.i", FmtIabc, false)
	registerOp(OpAndI, "and.i", FmtIabc, false)
	registerOp(OpOrI, "or.i", FmtIabc, false)
	registerOp(OpXorI, "xor.i", FmtIabc, false)
	registerOp(OpShlI, "shl.i", FmtIabc, false)
	registerOp(OpShrI, "shr.i", FmtIabc, false)
	registerOp(OpNegI, "neg.i", FmtIab, false)
	registerOp(OpNotB, "not.b", FmtIab, false)
	registerOp(OpLtI, "lt.i", FmtIabc, false)
	registerOp(OpLeI, "le.i", FmtIabc, false)
	registerOp(OpGtI, "gt.i", FmtIabc, false)
	registerOp(OpGeI, "ge.i", FmtIabc, false)
	registerOp(OpEqI, "eq.i", FmtIabc, false)
	registerOp(OpNeI, "ne.i", FmtIabc, false)
	registerOp(OpAddF, "add.f", FmtFabc, false)
	registerOp(OpSubF, "sub.f", FmtFabc, false)
	registerOp(OpMulF, "mul.f", FmtFabc, false)
	registerOp(OpDivF, "div.f", FmtFabc, false)
	registerOp(OpNegF, "neg.f", FmtFab, false)
	registerOp(OpLtF, "lt.f", FmtIaFbc, false)
	registerOp(OpLeF, "le.f", FmtIaFbc, false)
	registerOp(OpGtF, "gt.f", FmtIaFbc, false)
	registerOp(OpGeF, "ge.f", FmtIaFbc, false)
	registerOp(OpEqF, "eq.f", FmtIaFbc, false)
	registerOp(OpNeF, "ne.f", FmtIaFbc, false)
	registerOp(OpJmp, "jmp", FmtJmp, false)
	registerOp(OpJZBr, "jz.br", FmtJCond, false)
	registerOp(OpJZLog, "jz.and", FmtJCond, false)
	registerOp(OpJNZLog, "jnz.or", FmtJCond, false)
	registerOp(OpWI, "wi", FmtWI, false)
	registerOp(OpWIDyn, "wi.dyn", FmtWIDyn, false)
	registerOp(OpLdGF, "ld.gf", FmtLoadF, false)
	registerOp(OpLdGI, "ld.gi", FmtLoadI, false)
	registerOp(OpLdLF, "ld.lf", FmtLoadF, false)
	registerOp(OpLdLI, "ld.li", FmtLoadI, false)
	registerOp(OpStGF, "st.gf", FmtStoreF, false)
	registerOp(OpStGI, "st.gi", FmtStoreI, false)
	registerOp(OpStLF, "st.lf", FmtStoreF, false)
	registerOp(OpStLI, "st.li", FmtStoreI, false)
	registerOp(OpSqrtF, "sqrt.f", FmtFab, false)
	registerOp(OpRsqrtF, "rsqrt.f", FmtFab, false)
	registerOp(OpExpF, "exp.f", FmtFab, false)
	registerOp(OpLogF, "log.f", FmtFab, false)
	registerOp(OpLog2F, "log2.f", FmtFab, false)
	registerOp(OpSinF, "sin.f", FmtFab, false)
	registerOp(OpCosF, "cos.f", FmtFab, false)
	registerOp(OpTanF, "tan.f", FmtFab, false)
	registerOp(OpPowF, "pow.f", FmtFabc, false)
	registerOp(OpAbsF, "abs.f", FmtFab, false)
	registerOp(OpFloorF, "floor.f", FmtFab, false)
	registerOp(OpCeilF, "ceil.f", FmtFab, false)
	registerOp(OpMinF, "min.f", FmtFabc, false)
	registerOp(OpMaxF, "max.f", FmtFabc, false)
	registerOp(OpFmaF, "fma.f", FmtFabcImm, false)
	registerOp(OpClampF, "clamp.f", FmtFabcImm, false)
	registerOp(OpMinI, "min.i", FmtIabc, false)
	registerOp(OpMaxI, "max.i", FmtIabc, false)
	registerOp(OpAbsI, "abs.i", FmtIab, false)
	registerOp(OpClampI, "clamp.i", FmtIabcImm, false)
	registerOp(OpBar, "barrier", FmtBar, false)
	registerOp(OpMulAddI, "muladd.i", FmtIabcImm, true)
	registerOp(OpMulAddF, "muladd.f", FmtFabcImm, true)
	registerOp(OpAddFLdG, "addld.f", FmtFusedLdF, true)
	registerOp(OpMulFLdG, "mulld.f", FmtFusedLdF, true)
	registerOp(OpJCmpI, "jcmp.i", FmtJCmpI, true)
	registerOp(OpJCmpF, "jcmp.f", FmtJCmpF, true)
	registerOp(OpSubFLdG, "subld.f", FmtFusedLdF, true)
	registerOp(OpLdSubFG, "ldsub.f", FmtFusedLdF, true)
	registerOp(OpMulAccLdG, "macld.f", FmtFusedMacF, true)
	registerOp(OpMulMulF, "mulmul.f", FmtFabcImm, true)
	registerOp(OpLdGFIdx, "ldidx.f", FmtLdIdxF, true)
	registerOp(OpMacLdGIdx, "macidx.f", FmtMacIdxF, true)
	registerOp(OpIncJCmpI, "addjcmp.i", FmtIncJCmpI, true)
	registerOp(OpAddRsqrtF, "addrsqrt.f", FmtFabc, true)

	// What the package derives from the table, in this order: staticCounts
	// reads the builtin bindings, and laneK is built from staticCounts.
	bindBuiltins()
	initLaneK()
}

// The variants of a math builtin, indexing builtinOps' pairs.
const (
	floatVariant = iota
	intVariant
)

// builtinOps[b.ID] is math builtin b's float and int opcode (OpNop for a
// variant it lacks), and opBuiltin[op] the builtin that opcode runs: both
// resolved from the minicl registry by bindBuiltins.
var (
	builtinOps [][2]Opcode
	opBuiltin  [opCount]*minicl.Builtin
)

// bindBuiltins resolves each registered math builtin's variants to the
// opcodes named Mnemonic+".f" and Mnemonic+".i". It panics if one is not
// registered, takes other operands than the builtin has arguments, or
// runs builtins of two cost classes (staticCounts counts a builtin
// opcode by its builtin's class).
func bindBuiltins() {
	byName := make(map[string]Opcode, opCount)
	for op, info := range opTable {
		byName[info.Name] = Opcode(op)
	}
	formats := [2][3]Fmt{{FmtFab, FmtFabc, FmtFabcImm}, {FmtIab, FmtIabc, FmtIabcImm}}
	builtinOps = make([][2]Opcode, len(minicl.Builtins))
	opBuiltin = [opCount]*minicl.Builtin{}
	for _, b := range minicl.Builtins {
		for v, impl := range [2]any{b.Float, b.Int} {
			if b.Kind != minicl.BuiltinMath || impl == nil {
				continue
			}
			name := b.Mnemonic + [2]string{".f", ".i"}[v]
			op, ok := byName[name]
			switch {
			case !ok:
				panic(fmt.Sprintf("vm: builtin %s: no opcode %s", b.Name, name))
			case opTable[op].Fmt != formats[v][len(b.Args)-1]:
				panic(fmt.Sprintf("vm: builtin %s: opcode %s does not take %d operands", b.Name, name, len(b.Args)))
			case opBuiltin[op] != nil && opBuiltin[op].Cost != b.Cost:
				panic(fmt.Sprintf("vm: opcode %s runs %s and %s, of two cost classes", name, opBuiltin[op].Name, b.Name))
			}
			builtinOps[b.ID][v] = op
			opBuiltin[op] = b
		}
	}
}

// destReg reports the register an instruction writes, if any, and
// which file it lives in. Jumps (except the fused counter), stores,
// barriers, nop and halt write no register. The vector tier's
// uniformity analysis keys on this to find region-safe divergence
// joins.
func destReg(in *Instr) (isF bool, r int32, ok bool) {
	info, known := LookupOp(in.Op)
	if !known {
		return false, 0, false
	}
	switch info.Fmt {
	case FmtIab, FmtIabc, FmtIaImm, FmtIaFb, FmtIaFbc,
		FmtIabcImm, FmtWI, FmtWIDyn, FmtLoadI, FmtIncJCmpI:
		return false, in.A, true
	case FmtFab, FmtFabc, FmtFaPool, FmtFaIb, FmtFabcImm,
		FmtLoadF, FmtFusedLdF, FmtFusedMacF, FmtLdIdxF, FmtMacIdxF:
		return true, in.A, true
	}
	return false, 0, false
}

// isStore reports whether op writes a buffer element: the one kind of
// instruction with sources and a side effect but no destination.
func isStore(op Opcode) bool {
	f := opTable[op].Fmt
	return f == FmtStoreF || f == FmtStoreI
}

// Operand slots: where in an instruction a source register sits, one
// bit each so that VecFunc.srcU can mark the uniform ones of an
// instruction. The slots are named after where the vector dispatch arms
// read the bit, not after the Instr field: B and C are the first and
// second register source — the B and C fields of an ALU instruction,
// value and index of a store, the two operands of a fused
// compare-branch — X is the third (packed in Imm: the addend of fma.f
// or muladd.i, r of ldidx.f, r3 of macidx.f) and X2 is macidx.f's r2.
// srcUAcc is an accumulating destination read as a source: no bit,
// because it is varying whenever its instruction is not scalarized.
const (
	srcUB uint8 = 1 << iota
	srcUC
	srcUX
	srcUX2
	srcUAcc uint8 = 0
)

// srcRegs calls useI/useF for every register the instruction reads,
// with the operand slot it sits in (an accumulating destination —
// macld.f, macidx.f, addjcmp.i — is a source too), and reports whether
// it queries a work-item row.
func srcRegs(in *Instr, useI, useF func(r int32, slot uint8)) (wi bool) {
	info, _ := LookupOp(in.Op)
	switch info.Fmt {
	case FmtNone, FmtJmp, FmtBar, FmtIaImm, FmtFaPool:
	case FmtJCond:
		useI(in.A, srcUB)
	case FmtJCmpI:
		useI(in.A, srcUB)
		useI(in.B, srcUC)
	case FmtJCmpF:
		useF(in.A, srcUB)
		useF(in.B, srcUC)
	case FmtStoreF:
		useF(in.A, srcUB)
		useI(in.C, srcUC)
	case FmtStoreI:
		useI(in.A, srcUB)
		useI(in.C, srcUC)
	case FmtIab, FmtFaIb:
		useI(in.B, srcUB)
	case FmtIabc:
		useI(in.B, srcUB)
		useI(in.C, srcUC)
	case FmtIncJCmpI:
		useI(in.A, srcUAcc)
		useI(in.B, srcUB)
		useI(in.C, srcUC)
	case FmtFab, FmtIaFb:
		useF(in.B, srcUB)
	case FmtFabc, FmtIaFbc:
		useF(in.B, srcUB)
		useF(in.C, srcUC)
	case FmtFabcImm:
		useF(in.B, srcUB)
		useF(in.C, srcUC)
		useF(int32(in.Imm), srcUX)
	case FmtIabcImm:
		useI(in.B, srcUB)
		useI(in.C, srcUC)
		useI(int32(in.Imm), srcUX)
	case FmtWI:
		return true
	case FmtWIDyn:
		useI(in.C, srcUC)
		return true
	case FmtLoadF, FmtLoadI:
		useI(in.C, srcUC)
	case FmtFusedLdF:
		useF(in.B, srcUB)
		useI(in.C, srcUC)
	case FmtFusedMacF:
		useF(in.A, srcUAcc)
		useF(in.B, srcUB)
		useI(in.C, srcUC)
	case FmtLdIdxF:
		_, _, r3 := unpackMemIdx(in.Imm)
		useI(in.B, srcUB)
		useI(in.C, srcUC)
		useI(r3, srcUX)
	case FmtMacIdxF:
		_, _, r2, r3 := unpackMacIdx(in.Imm)
		useF(in.A, srcUAcc)
		useF(in.B, srcUB)
		useI(in.C, srcUC)
		useI(r2, srcUX2)
		useI(r3, srcUX)
	}
	return false
}

// packMem packs a buffer slot and a name-pool index into the Imm field
// of a fused load super-instruction.
func packMem(slot int32, name int32) int64 { return int64(slot)<<32 | int64(uint32(name)) }

func unpackMem(imm int64) (slot int32, name int32) {
	return int32(imm >> 32), int32(uint32(imm))
}

// packMemIdx packs a buffer slot, name-pool index, and the addend
// register of a fused multiply-add index: slot<<48 | reg<<32 | name.
// Fuse-time range guards keep every field in bounds.
func packMemIdx(slot, name, reg int32) int64 {
	return int64(slot)<<48 | int64(reg)<<32 | int64(uint32(name))
}

func unpackMemIdx(imm int64) (slot, name, reg int32) {
	return int32(imm >> 48), int32(uint32(imm)), int32((imm >> 32) & 0xffff)
}

// packMacIdx packs the memory operand of macidx.f, whose index needs two
// more registers: slot<<48 | r3<<32 | r2<<16 | name (name and registers
// each limited to 16 bits, guarded at fuse time).
func packMacIdx(slot, name, r2, r3 int32) int64 {
	return int64(slot)<<48 | int64(r3)<<32 | int64(r2)<<16 | int64(uint16(name))
}

func unpackMacIdx(imm int64) (slot, name, r2, r3 int32) {
	return int32(imm >> 48), int32(imm & 0xffff), int32((imm >> 16) & 0xffff), int32((imm >> 32) & 0xffff)
}

// packCcTarget packs a condition code and jump target for addjcmp.i.
func packCcTarget(cc int32, target int64) int64 { return int64(cc)<<32 | target }

func unpackCcTarget(imm int64) (cc int32, target int64) {
	return int32(imm >> 32), int64(uint32(imm))
}
