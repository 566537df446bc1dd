package vm

import (
	"fmt"
	"math"
)

// Counts mirrors exec.Counts field-for-field so the two convert
// directly; the VM bumps exactly the counters the closure tier bumps.
type Counts struct {
	Items         int64
	IntOps        int64
	FloatOps      int64
	TransOps      int64
	OtherBuiltins int64
	GlobalLoads   int64
	GlobalStores  int64
	LocalOps      int64
	Branches      int64
	Barriers      int64
	MaxItemOps    int64
}

// Buf is a typed buffer view. Exactly one of F or I is non-nil; the
// slices alias the executor's backing buffers.
type Buf struct {
	F []float32
	I []int32
}

// ParamKind classifies a kernel parameter for argument binding.
type ParamKind uint8

// Parameter kinds.
const (
	ParamInt    ParamKind = iota // scalar in I[Index]
	ParamFloat                   // scalar in F[Index]
	ParamGlobal                  // global buffer in Globals[Index]
	ParamLocal                   // local buffer in Locals[Index]
)

// Param maps one kernel parameter to its register or buffer slot.
type Param struct {
	Kind  ParamKind
	Index int32
}

// Func is a compiled kernel: flat bytecode over two register files plus
// the constant pools and binding metadata.
type Func struct {
	Name  string
	Code  []Instr
	FPool []float64 // float constants, indexed by OpLdcF Imm
	Names []string  // buffer names for fault messages

	NumI, NumF           int // register file sizes (variables + temporaries)
	NumGlobals, NumLocal int // buffer slot table sizes
	Params               []Param
	Fused                int // super-instructions created by the peephole pass

	// room seeds the packed-counter spill countdown (see counts.go).
	room int
}

// Status reports how a Run call ended.
type Status uint8

// Run statuses.
const (
	// Halted: the work item finished (end of kernel or return).
	Halted Status = iota
	// Suspended: the work item reached a barrier; Run resumes after the
	// barrier on the next call.
	Suspended
)

// Frame.WI row indices, matching inspire.WIQuery order.
const (
	WIGlobalID = iota
	WILocalID
	WIGroupID
	WIGlobalSize
	WILocalSize
	WINumGroups
)

// Frame is the per-work-item execution state: the register files, the
// bound buffers, the NDRange coordinates, and the dynamic counts. It is
// also the uniform half of a VecFrame (see NewVecFrame): there I and F
// are the scalar slots of the group-uniform registers and WI holds the
// four queries every item of a group answers alike.
type Frame struct {
	I []int64
	F []float64

	Globals []Buf
	Locals  []Buf

	// WI holds the six work-item query vectors indexed by
	// inspire.WIQuery order: gid, lid, group, gsize, lsize, ngroups.
	WI [6][3]int64

	Cnt Counts
	PC  int

	// Fuel is the frame's local step allowance, charged at taken jumps
	// (one step per item per loop iteration). When it underflows, spend
	// refills it from B; a nil B grants an effectively unlimited lease.
	// Fuel deliberately survives Reset so a lease spans work items.
	Fuel int64
	B    *Budget

	// span marks the uniform half of a VecFrame: run executes one
	// straight-line span of scalarized instructions for the whole group,
	// and a would-fault instruction parks the group (see fault) instead
	// of reporting the error.
	span bool
}

// spend burns w units of fuel — one per item that took the jump: 1 on a
// scalar frame, the lane count on a vector frame — refilling the lease
// from the budget on underflow. The fast path is a subtract and
// compare; only lease boundaries touch the shared budget.
func (f *Frame) spend(w int64) error {
	f.Fuel -= w
	if f.Fuel >= 0 {
		return nil
	}
	return f.refill()
}

// Fault message formats of the bounds-checked memory arms.
const (
	errLoad  = "exec: load %s[%d] out of bounds (len %d)"
	errStore = "exec: store to %s[%d] out of bounds (len %d)"
)

// fault ends run at the instruction at pc, which would fault and has
// neither executed nor counted. A work item's frame reports the error,
// in the words the closure tier throws. In a span the operands are
// group-uniform, so every lane would fault: the group parks at pc with
// Diverged and the caller reruns each lane on its own scalar frame,
// which reports the canonical item's message.
func (f *Frame) fault(a0, a1 uint64, pc int, format string, args ...any) (uint64, uint64, int, Status, error) {
	if f.span {
		return a0, a1, pc, Diverged, nil
	}
	return a0, a1, pc, Halted, fmt.Errorf(format, args...)
}

// NewFrame allocates a frame sized for fn. Buffer tables (shared by the
// frames of a group), scalar arguments and WI vectors are bound by the
// caller.
func (fn *Func) NewFrame() *Frame {
	// Register files are rounded up to powers of two so Run can mask
	// register indices instead of bounds-checking them; nothing outside
	// the VM observes the padding.
	return &Frame{
		I: make([]int64, ceilPow2(fn.NumI)),
		F: make([]float64, ceilPow2(fn.NumF)),
	}
}

// Reset rewinds the frame to the kernel entry and clears its counts.
// Registers keep their values: scalar parameters stay bound, and every
// local variable is re-initialized by its declaration instruction.
func (f *Frame) Reset() {
	f.PC = 0
	f.Cnt = Counts{}
}

func ccHoldsI(cc int32, l, r int64) bool {
	switch cc {
	case CcLt:
		return l < r
	case CcLe:
		return l <= r
	case CcGt:
		return l > r
	case CcGe:
		return l >= r
	case CcEq:
		return l == r
	default:
		return l != r
	}
}

func ccHoldsF(cc int32, l, r float64) bool {
	switch cc {
	case CcLt:
		return l < r
	case CcLe:
		return l <= r
	case CcGt:
		return l > r
	case CcGe:
		return l >= r
	case CcEq:
		return l == r
	case CcNLt:
		return !(l < r)
	case CcNLe:
		return !(l <= r)
	case CcNGt:
		return !(l > r)
	case CcNGe:
		return !(l >= r)
	default:
		return l != r
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Run executes the frame from its saved PC until the kernel halts, a
// barrier suspends it, or a fault occurs. Faults
// (out-of-bounds access, division by zero, bad work-item dimension)
// return errors with the same messages the closure tier throws.
func (p *Func) Run(f *Frame) (Status, error) {
	a0, a1, pc, st, err := p.run(f, p.Code, 0, uint64(p.room)<<roomShift, f.PC)
	p.exit(f, a0, a1, pc)
	return st, err
}

// run is the one scalar interpreter: it executes code from pc on the
// frame's registers until it runs off the end of code, halts, a barrier
// suspends it or an instruction faults, and returns where and how it
// stopped. Run gives it a work item's frame and the whole kernel. The
// vector tier gives it the uniform half of a VecFrame and code cut off
// at the end of a span of scalarized instructions (VecFunc.scalEnd):
// spans are straight-line, so running off the end is the loop test
// that is here anyway, and no jump arm ever runs for a group.
//
// Profile counters are batched in two packed accumulators (see
// counts.go): every opcode's counter contribution is a compile-time
// lane constant, so a counting arm is one register add instead of a
// memory counter bump, and the accumulators unpack into Frame.Cnt only
// when lane headroom runs out (checked at taken jumps, where the
// countdown bounds any linear stretch) or the caller spills them. a1
// carries the spill countdown in its top bits: taken jumps decrement
// it, and a countdown of zero forces a spill, so no lane can overflow
// into its neighbor within one linear stretch of code.
//
// The accumulators and the PC come in and go out as values, not through
// the frame: a span is a handful of instructions between two vector
// dispatches, and when this was sized, handing them over through frame
// fields read +2.1 to +6.3% cpu_ms_per_op on execute-large in four
// pairs where passing and returning them read +0.7 to +2.9%.
func (p *Func) run(f *Frame, code []Instr, a0, a1 uint64, pc int) (uint64, uint64, int, Status, error) {
	ri := f.I
	rf := f.F
	// Register files are pow2-sized (NewFrame), so masked indices can
	// never leave the file and the compiler elides the bounds checks.
	mi := int32(len(ri) - 1)
	mf := int32(len(rf) - 1)
	for pc < len(code) {
		in := &code[pc]
		switch in.Op {
		case OpNop:
		case OpHalt:
			return a0, a1, pc, Halted, nil

		case OpMovI:
			ri[in.A&mi] = ri[in.B&mi]
		case OpMovF:
			rf[in.A&mf] = rf[in.B&mf]
		case OpLdcI:
			ri[in.A&mi] = in.Imm
		case OpLdcF:
			rf[in.A&mf] = p.FPool[in.Imm]
		case OpI2F:
			rf[in.A&mf] = float64(ri[in.B&mi])
		case OpF2I:
			ri[in.A&mi] = int64(rf[in.B&mf])
		case OpSnzI:
			ri[in.A&mi] = b2i(ri[in.B&mi] != 0)

		case OpAddI:
			a0 += lIntOp
			ri[in.A&mi] = ri[in.B&mi] + ri[in.C&mi]
		case OpSubI:
			a0 += lIntOp
			ri[in.A&mi] = ri[in.B&mi] - ri[in.C&mi]
		case OpMulI:
			a0 += lIntOp
			ri[in.A&mi] = ri[in.B&mi] * ri[in.C&mi]
		case OpDivI:
			d := ri[in.C&mi]
			if d == 0 {
				return f.fault(a0, a1, pc, "exec: integer division by zero")
			}
			a0 += lIntOp
			ri[in.A&mi] = ri[in.B&mi] / d
		case OpModI:
			d := ri[in.C&mi]
			if d == 0 {
				return f.fault(a0, a1, pc, "exec: integer modulo by zero")
			}
			a0 += lIntOp
			ri[in.A&mi] = ri[in.B&mi] % d
		case OpAndI:
			a0 += lIntOp
			ri[in.A&mi] = ri[in.B&mi] & ri[in.C&mi]
		case OpOrI:
			a0 += lIntOp
			ri[in.A&mi] = ri[in.B&mi] | ri[in.C&mi]
		case OpXorI:
			a0 += lIntOp
			ri[in.A&mi] = ri[in.B&mi] ^ ri[in.C&mi]
		case OpShlI:
			a0 += lIntOp
			ri[in.A&mi] = ri[in.B&mi] << uint(ri[in.C&mi]&63)
		case OpShrI:
			a0 += lIntOp
			ri[in.A&mi] = ri[in.B&mi] >> uint(ri[in.C&mi]&63)
		case OpNegI:
			a0 += lIntOp
			ri[in.A&mi] = -ri[in.B&mi]
		case OpNotB:
			a0 += lIntOp
			ri[in.A&mi] = b2i(ri[in.B&mi] == 0)

		case OpLtI:
			a0 += lIntOp
			ri[in.A&mi] = b2i(ri[in.B&mi] < ri[in.C&mi])
		case OpLeI:
			a0 += lIntOp
			ri[in.A&mi] = b2i(ri[in.B&mi] <= ri[in.C&mi])
		case OpGtI:
			a0 += lIntOp
			ri[in.A&mi] = b2i(ri[in.B&mi] > ri[in.C&mi])
		case OpGeI:
			a0 += lIntOp
			ri[in.A&mi] = b2i(ri[in.B&mi] >= ri[in.C&mi])
		case OpEqI:
			a0 += lIntOp
			ri[in.A&mi] = b2i(ri[in.B&mi] == ri[in.C&mi])
		case OpNeI:
			a0 += lIntOp
			ri[in.A&mi] = b2i(ri[in.B&mi] != ri[in.C&mi])

		case OpAddF:
			a0 += lFloatOp
			rf[in.A&mf] = rf[in.B&mf] + rf[in.C&mf]
		case OpSubF:
			a0 += lFloatOp
			rf[in.A&mf] = rf[in.B&mf] - rf[in.C&mf]
		case OpMulF:
			a0 += lFloatOp
			rf[in.A&mf] = rf[in.B&mf] * rf[in.C&mf]
		case OpDivF:
			a0 += lFloatOp
			rf[in.A&mf] = rf[in.B&mf] / rf[in.C&mf]
		case OpNegF:
			a0 += lFloatOp
			rf[in.A&mf] = -rf[in.B&mf]

		case OpLtF:
			a0 += lFloatOp
			ri[in.A&mi] = b2i(rf[in.B&mf] < rf[in.C&mf])
		case OpLeF:
			a0 += lFloatOp
			ri[in.A&mi] = b2i(rf[in.B&mf] <= rf[in.C&mf])
		case OpGtF:
			a0 += lFloatOp
			ri[in.A&mi] = b2i(rf[in.B&mf] > rf[in.C&mf])
		case OpGeF:
			a0 += lFloatOp
			ri[in.A&mi] = b2i(rf[in.B&mf] >= rf[in.C&mf])
		case OpEqF:
			a0 += lFloatOp
			ri[in.A&mi] = b2i(rf[in.B&mf] == rf[in.C&mf])
		case OpNeF:
			a0 += lFloatOp
			ri[in.A&mi] = b2i(rf[in.B&mf] != rf[in.C&mf])

		case OpJmp:
			a1 -= roomOne
			if a1 < roomOne {
				f.Cnt.addPacked(a0, a1)
				a0, a1 = 0, uint64(p.room)<<roomShift
			}
			if err := f.spend(1); err != nil {
				return a0, a1, pc, Halted, err
			}
			pc = int(in.Imm)
			continue
		case OpJZBr:
			a1 += lBranch
			if ri[in.A&mi] == 0 {
				a1 -= roomOne
				if a1 < roomOne {
					f.Cnt.addPacked(a0, a1)
					a0, a1 = 0, uint64(p.room)<<roomShift
				}
				if err := f.spend(1); err != nil {
					return a0, a1, pc, Halted, err
				}
				pc = int(in.Imm)
				continue
			}
		case OpJZLog:
			a0 += lIntOp
			if ri[in.A&mi] == 0 {
				a1 -= roomOne
				if a1 < roomOne {
					f.Cnt.addPacked(a0, a1)
					a0, a1 = 0, uint64(p.room)<<roomShift
				}
				if err := f.spend(1); err != nil {
					return a0, a1, pc, Halted, err
				}
				pc = int(in.Imm)
				continue
			}
		case OpJNZLog:
			a0 += lIntOp
			if ri[in.A&mi] != 0 {
				a1 -= roomOne
				if a1 < roomOne {
					f.Cnt.addPacked(a0, a1)
					a0, a1 = 0, uint64(p.room)<<roomShift
				}
				if err := f.spend(1); err != nil {
					return a0, a1, pc, Halted, err
				}
				pc = int(in.Imm)
				continue
			}

		case OpWI:
			a0 += lIntOp
			ri[in.A&mi] = f.WI[in.B][in.C]
		case OpWIDyn:
			d := ri[in.C&mi]
			if d < 0 || d > 2 {
				return f.fault(a0, a1, pc, "exec: work-item query dimension %d out of range", d)
			}
			a0 += lIntOp
			ri[in.A&mi] = f.WI[in.B][d]

		case OpLdGF:
			b := &f.Globals[in.B]
			i := ri[in.C&mi]
			if i < 0 || i >= int64(len(b.F)) {
				return f.fault(a0, a1, pc, errLoad, p.Names[in.Imm], i, len(b.F))
			}
			a0 += lGLoad
			rf[in.A&mf] = float64(b.F[i])
		case OpLdGI:
			b := &f.Globals[in.B]
			i := ri[in.C&mi]
			if i < 0 || i >= int64(len(b.I)) {
				return f.fault(a0, a1, pc, errLoad, p.Names[in.Imm], i, len(b.I))
			}
			a0 += lGLoad
			ri[in.A&mi] = int64(b.I[i])
		case OpLdLF:
			b := &f.Locals[in.B]
			i := ri[in.C&mi]
			if i < 0 || i >= int64(len(b.F)) {
				return f.fault(a0, a1, pc, errLoad, p.Names[in.Imm], i, len(b.F))
			}
			a1 += lLocalOp
			rf[in.A&mf] = float64(b.F[i])
		case OpLdLI:
			b := &f.Locals[in.B]
			i := ri[in.C&mi]
			if i < 0 || i >= int64(len(b.I)) {
				return f.fault(a0, a1, pc, errLoad, p.Names[in.Imm], i, len(b.I))
			}
			a1 += lLocalOp
			ri[in.A&mi] = int64(b.I[i])

		case OpStGF:
			b := &f.Globals[in.B]
			i := ri[in.C&mi]
			if i < 0 || i >= int64(len(b.F)) {
				return f.fault(a0, a1, pc, errStore, p.Names[in.Imm], i, len(b.F))
			}
			a1 += lGStore
			b.F[i] = float32(rf[in.A&mf])
		case OpStGI:
			b := &f.Globals[in.B]
			i := ri[in.C&mi]
			if i < 0 || i >= int64(len(b.I)) {
				return f.fault(a0, a1, pc, errStore, p.Names[in.Imm], i, len(b.I))
			}
			a1 += lGStore
			b.I[i] = int32(ri[in.A&mi])
		case OpStLF:
			b := &f.Locals[in.B]
			i := ri[in.C&mi]
			if i < 0 || i >= int64(len(b.F)) {
				return f.fault(a0, a1, pc, errStore, p.Names[in.Imm], i, len(b.F))
			}
			a1 += lLocalOp
			b.F[i] = float32(rf[in.A&mf])
		case OpStLI:
			b := &f.Locals[in.B]
			i := ri[in.C&mi]
			if i < 0 || i >= int64(len(b.I)) {
				return f.fault(a0, a1, pc, errStore, p.Names[in.Imm], i, len(b.I))
			}
			a1 += lLocalOp
			b.I[i] = int32(ri[in.A&mi])

		case OpSqrtF:
			a0 += lTransOp
			rf[in.A&mf] = math.Sqrt(rf[in.B&mf])
		case OpRsqrtF:
			a0 += lTransOp
			rf[in.A&mf] = 1 / math.Sqrt(rf[in.B&mf])
		case OpExpF:
			a0 += lTransOp
			rf[in.A&mf] = math.Exp(rf[in.B&mf])
		case OpLogF:
			a0 += lTransOp
			rf[in.A&mf] = math.Log(rf[in.B&mf])
		case OpLog2F:
			a0 += lTransOp
			rf[in.A&mf] = math.Log2(rf[in.B&mf])
		case OpSinF:
			a0 += lTransOp
			rf[in.A&mf] = math.Sin(rf[in.B&mf])
		case OpCosF:
			a0 += lTransOp
			rf[in.A&mf] = math.Cos(rf[in.B&mf])
		case OpTanF:
			a0 += lTransOp
			rf[in.A&mf] = math.Tan(rf[in.B&mf])
		case OpPowF:
			a0 += lTransOp
			rf[in.A&mf] = math.Pow(rf[in.B&mf], rf[in.C&mf])
		case OpAbsF:
			a0 += lOtherB
			rf[in.A&mf] = math.Abs(rf[in.B&mf])
		case OpFloorF:
			a0 += lOtherB
			rf[in.A&mf] = math.Floor(rf[in.B&mf])
		case OpCeilF:
			a0 += lOtherB
			rf[in.A&mf] = math.Ceil(rf[in.B&mf])
		case OpMinF:
			a0 += lOtherB
			rf[in.A&mf] = math.Min(rf[in.B&mf], rf[in.C&mf])
		case OpMaxF:
			a0 += lOtherB
			rf[in.A&mf] = math.Max(rf[in.B&mf], rf[in.C&mf])
		case OpFmaF:
			a0 += lOtherB
			rf[in.A&mf] = rf[in.B&mf]*rf[in.C&mf] + rf[int32(in.Imm)&mf]
		case OpClampF:
			a0 += lOtherB
			rf[in.A&mf] = math.Max(rf[in.C&mf], math.Min(rf[in.B&mf], rf[int32(in.Imm)&mf]))

		case OpMinI:
			a0 += lOtherB
			ri[in.A&mi] = min(ri[in.B&mi], ri[in.C&mi])
		case OpMaxI:
			a0 += lOtherB
			ri[in.A&mi] = max(ri[in.B&mi], ri[in.C&mi])
		case OpAbsI:
			a0 += lOtherB
			v := ri[in.B&mi]
			if v < 0 {
				v = -v
			}
			ri[in.A&mi] = v
		case OpClampI:
			a0 += lOtherB
			ri[in.A&mi] = max(ri[in.C&mi], min(ri[in.B&mi], ri[int32(in.Imm)&mi]))

		case OpBar:
			a1 += lBarrier
			return a0, a1, pc + 1, Suspended, nil

		case OpMulAddI:
			a0 += 2 * lIntOp
			ri[in.A&mi] = ri[in.B&mi]*ri[in.C&mi] + ri[int32(in.Imm)&mi]
		case OpMulAddF:
			a0 += 2 * lFloatOp
			// The explicit conversion forces the product to round
			// separately, matching the unfused mul-then-add exactly
			// (Go may otherwise contract the pair into an FMA).
			rf[in.A&mf] = float64(rf[in.B&mf]*rf[in.C&mf]) + rf[int32(in.Imm)&mf]
		case OpAddFLdG:
			slot, name := unpackMem(in.Imm)
			b := &f.Globals[slot]
			i := ri[in.C&mi]
			if i < 0 || i >= int64(len(b.F)) {
				return f.fault(a0, a1, pc, errLoad, p.Names[name], i, len(b.F))
			}
			a0 += lFloatOp + lGLoad
			rf[in.A&mf] = rf[in.B&mf] + float64(b.F[i])
		case OpMulFLdG:
			slot, name := unpackMem(in.Imm)
			b := &f.Globals[slot]
			i := ri[in.C&mi]
			if i < 0 || i >= int64(len(b.F)) {
				return f.fault(a0, a1, pc, errLoad, p.Names[name], i, len(b.F))
			}
			a0 += lFloatOp + lGLoad
			rf[in.A&mf] = rf[in.B&mf] * float64(b.F[i])
		case OpSubFLdG:
			slot, name := unpackMem(in.Imm)
			b := &f.Globals[slot]
			i := ri[in.C&mi]
			if i < 0 || i >= int64(len(b.F)) {
				return f.fault(a0, a1, pc, errLoad, p.Names[name], i, len(b.F))
			}
			a0 += lFloatOp + lGLoad
			rf[in.A&mf] = rf[in.B&mf] - float64(b.F[i])
		case OpLdSubFG:
			slot, name := unpackMem(in.Imm)
			b := &f.Globals[slot]
			i := ri[in.C&mi]
			if i < 0 || i >= int64(len(b.F)) {
				return f.fault(a0, a1, pc, errLoad, p.Names[name], i, len(b.F))
			}
			a0 += lFloatOp + lGLoad
			rf[in.A&mf] = float64(b.F[i]) - rf[in.B&mf]
		case OpMulAccLdG:
			slot, name := unpackMem(in.Imm)
			b := &f.Globals[slot]
			i := ri[in.C&mi]
			if i < 0 || i >= int64(len(b.F)) {
				return f.fault(a0, a1, pc, errLoad, p.Names[name], i, len(b.F))
			}
			a0 += 2*lFloatOp + lGLoad
			rf[in.A&mf] = rf[in.A&mf] + float64(rf[in.B&mf]*float64(b.F[i]))
		case OpMulMulF:
			a0 += 2 * lFloatOp
			rf[in.A&mf] = float64(rf[in.B&mf]*rf[in.C&mf]) * rf[int32(in.Imm)&mf]
		case OpAddRsqrtF:
			a0 += lFloatOp + lTransOp
			rf[in.A&mf] = 1 / math.Sqrt(rf[in.B&mf]+rf[in.C&mf])
		case OpLdGFIdx:
			slot, name, r3 := unpackMemIdx(in.Imm)
			b := &f.Globals[slot]
			i := ri[in.B&mi]*ri[in.C&mi] + ri[r3&mi]
			if i < 0 || i >= int64(len(b.F)) {
				return f.fault(a0, a1, pc, errLoad, p.Names[name], i, len(b.F))
			}
			a0 += 2*lIntOp + lGLoad
			rf[in.A&mf] = float64(b.F[i])
		case OpMacLdGIdx:
			slot, name, r2, r3 := unpackMacIdx(in.Imm)
			b := &f.Globals[slot]
			i := ri[in.C&mi]*ri[r2&mi] + ri[r3&mi]
			if i < 0 || i >= int64(len(b.F)) {
				return f.fault(a0, a1, pc, errLoad, p.Names[name], i, len(b.F))
			}
			a0 += 2*lIntOp + 2*lFloatOp + lGLoad
			rf[in.A&mf] = rf[in.A&mf] + float64(rf[in.B&mf]*float64(b.F[i]))

		case OpJCmpI:
			a0 += lIntOp
			a1 += lBranch
			if ccHoldsI(in.C, ri[in.A&mi], ri[in.B&mi]) {
				a1 -= roomOne
				if a1 < roomOne {
					f.Cnt.addPacked(a0, a1)
					a0, a1 = 0, uint64(p.room)<<roomShift
				}
				if err := f.spend(1); err != nil {
					return a0, a1, pc, Halted, err
				}
				pc = int(in.Imm)
				continue
			}
		case OpJCmpF:
			a0 += lFloatOp
			a1 += lBranch
			if ccHoldsF(in.C, rf[in.A&mf], rf[in.B&mf]) {
				a1 -= roomOne
				if a1 < roomOne {
					f.Cnt.addPacked(a0, a1)
					a0, a1 = 0, uint64(p.room)<<roomShift
				}
				if err := f.spend(1); err != nil {
					return a0, a1, pc, Halted, err
				}
				pc = int(in.Imm)
				continue
			}
		case OpIncJCmpI:
			a0 += 2 * lIntOp
			a1 += lBranch
			v := ri[in.A&mi] + ri[in.B&mi]
			ri[in.A&mi] = v
			if ccHoldsI(int32(in.Imm>>32), v, ri[in.C&mi]) {
				a1 -= roomOne
				if a1 < roomOne {
					f.Cnt.addPacked(a0, a1)
					a0, a1 = 0, uint64(p.room)<<roomShift
				}
				if err := f.spend(1); err != nil {
					return a0, a1, pc, Halted, err
				}
				pc = int(int64(uint32(in.Imm)))
				continue
			}

		default:
			return a0, a1, pc, Halted, fmt.Errorf("exec: vm: illegal opcode %d at pc %d", in.Op, pc)
		}
		pc++
	}
	return a0, a1, pc, Halted, nil
}
