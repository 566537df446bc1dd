package vm

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// The opcode set as an executable specification. For every opcode in
// opTable this file states, independently of op.go, which registers its
// format reads and writes, hand-assembles
//
//	[operand prologue; the instruction; store the result to out[gid]; halt]
//
// and runs it twice: as eight work items on scalar frames, and through
// Vectorize as one W = 8 group, for every uniform/varying assignment of
// the sources (a uniform source is an ldc, a varying one a gid-indexed
// load of values the test chose; all-uniform puts the instruction in a
// scalarized span). It asserts the buffers agree bit for bit, that every
// item's counts on both interpreters are the sum of staticCounts over
// the instructions it retired — which is what holds the scalar
// interpreter's written-out lane constants, and laneK, to counts.go —
// and, for the fault-checked opcodes, that a bad operand in one lane
// parks the whole group before the instruction with nothing counted and
// nothing written while the scalar frame reports the canonical message.
//
// An opcode is added in four places (op.go registration, staticCounts,
// one scalar arm, one lane loop); this test fails until all four exist
// and agree.

const specW = 8

// Register plan of every spec program, in either file.
const (
	rGid = 0 // I: the item's global id
	rB   = 1 // first source
	rC   = 2 // second source
	rX   = 3 // third source (packed in Imm)
	rX2  = 4 // macidx.f's r2
	rA   = 5 // destination, or accumulator
	rAlt = 6 // I: gid + 100
	rRes = 7 // I: which way a jump went

	specRegs = 8
)

// Global buffer table of every spec program; the two local buffers are
// lDataF and lDataI.
const (
	gOutF  = 0
	gOutI  = 1
	gDataF = 2
	gDataI = 3
	gInI   = 4 // + operand index: the int values of a varying source
	gInF   = 9 // + operand index: the float values

	specGlobals = 14
	lDataF      = 0
	lDataI      = 1
	dataLen     = 64
)

// domain is the range of values that keeps an operand from faulting.
type domain uint8

const (
	domAny     domain = iota // -3..4
	domIndex                 // 0..7
	domNonZero               // 1..8
	domDim                   // 0..2
)

type operand struct {
	isF bool
	reg int32
	dom domain
}

type progShape uint8

const (
	shapeLine progShape = iota // prologue; op; store result; halt
	shapeJump                  // a forward jump over `res = gid + 100`
	shapeLoop                  // addjcmp.i as the back-edge of its own loop
)

type opSpec struct {
	in     Instr
	srcs   []operand
	hasDst bool
	dstF   bool
	shape  progShape

	// A fault-checked opcode: operand faultAt takes each of bad in turn,
	// and msg is what the scalar frame must then report for an item
	// whose int source values are v.
	bad     []int64
	faultAt int
	msg     func(v []int64) string
}

// specFor states what op reads and writes, by format.
func specFor(op Opcode) opSpec {
	info, _ := LookupOp(op)
	s := opSpec{in: Instr{Op: op, A: rA, B: rB, C: rC}}
	intSrc := func(reg int32, d domain) operand { return operand{reg: reg, dom: d} }
	fltSrc := func(reg int32) operand { return operand{isF: true, reg: reg} }
	local := op == OpLdLF || op == OpLdLI || op == OpStLF || op == OpStLI
	memFault := func(format string, index func(v []int64) int64) {
		s.bad = []int64{-100, 1000}
		s.msg = func(v []int64) string { return fmt.Sprintf(format, index(v), dataLen) }
	}
	switch info.Fmt {
	case FmtNone, FmtBar:
		s.in = Instr{Op: op}
	case FmtIab:
		s.srcs, s.hasDst = []operand{intSrc(rB, domAny)}, true
	case FmtIabc:
		s.srcs, s.hasDst = []operand{intSrc(rB, domAny), intSrc(rC, domAny)}, true
		if op == OpDivI || op == OpModI {
			s.srcs[1].dom = domNonZero
			s.bad, s.faultAt = []int64{0}, 1
			what := map[Opcode]string{OpDivI: "division", OpModI: "modulo"}[op]
			s.msg = func([]int64) string { return "exec: integer " + what + " by zero" }
		}
	case FmtIaImm:
		s.hasDst = true
		s.in.Imm = 42
	case FmtFab:
		s.srcs, s.hasDst, s.dstF = []operand{fltSrc(rB)}, true, true
	case FmtFabc:
		s.srcs, s.hasDst, s.dstF = []operand{fltSrc(rB), fltSrc(rC)}, true, true
	case FmtFaPool:
		s.hasDst, s.dstF = true, true
	case FmtFaIb:
		s.srcs, s.hasDst, s.dstF = []operand{intSrc(rB, domAny)}, true, true
	case FmtIaFb:
		s.srcs, s.hasDst = []operand{fltSrc(rB)}, true
	case FmtIaFbc:
		s.srcs, s.hasDst = []operand{fltSrc(rB), fltSrc(rC)}, true
	case FmtFabcImm:
		s.srcs, s.hasDst, s.dstF = []operand{fltSrc(rB), fltSrc(rC), fltSrc(rX)}, true, true
		s.in.Imm = rX
	case FmtIabcImm:
		s.srcs, s.hasDst = []operand{intSrc(rB, domAny), intSrc(rC, domAny), intSrc(rX, domAny)}, true
		s.in.Imm = rX
	case FmtJmp:
		s.shape = shapeJump
	case FmtJCond:
		s.in.A = rB
		s.srcs, s.shape = []operand{intSrc(rB, domAny)}, shapeJump
	case FmtJCmpI:
		s.in.A, s.in.B = rB, rC
		s.srcs, s.shape = []operand{intSrc(rB, domAny), intSrc(rC, domAny)}, shapeJump
	case FmtJCmpF:
		s.in.A, s.in.B = rB, rC
		s.srcs, s.shape = []operand{fltSrc(rB), fltSrc(rC)}, shapeJump
	case FmtIncJCmpI:
		// I[A] += I[B]; if I[A] < I[C] loop: a positive step terminates.
		s.srcs = []operand{intSrc(rA, domAny), intSrc(rB, domNonZero), intSrc(rC, domAny)}
		s.hasDst, s.shape = true, shapeLoop
	case FmtWI:
		s.hasDst = true
	case FmtWIDyn:
		s.srcs, s.hasDst = []operand{intSrc(rC, domDim)}, true
		s.bad = []int64{3, -1}
		s.msg = func(v []int64) string {
			return fmt.Sprintf("exec: work-item query dimension %d out of range", v[0])
		}
	case FmtLoadF, FmtLoadI:
		s.srcs, s.hasDst, s.dstF = []operand{intSrc(rC, domIndex)}, true, info.Fmt == FmtLoadF
		s.in.B, s.in.Imm = specDataSlot(local, s.dstF), gDataF
		memFault("exec: load data[%d] out of bounds (len %d)", func(v []int64) int64 { return v[0] })
	case FmtStoreF, FmtStoreI:
		// The value is A, the index C.
		val := intSrc(rB, domAny)
		if info.Fmt == FmtStoreF {
			val = fltSrc(rB)
		}
		s.in.A = rB
		s.srcs, s.faultAt = []operand{val, intSrc(rC, domIndex)}, 1
		s.in.B, s.in.Imm = specDataSlot(local, val.isF), gDataF
		memFault("exec: store to data[%d] out of bounds (len %d)", func(v []int64) int64 { return v[1] })
	case FmtFusedLdF, FmtFusedMacF:
		s.srcs, s.hasDst, s.dstF = []operand{fltSrc(rB), intSrc(rC, domIndex)}, true, true
		s.faultAt = 1
		if info.Fmt == FmtFusedMacF {
			s.srcs = append(s.srcs, fltSrc(rA))
		}
		s.in.Imm = packMem(gDataF, gDataF)
		memFault("exec: load data[%d] out of bounds (len %d)", func(v []int64) int64 { return v[1] })
	case FmtLdIdxF:
		// F[A] = data[I[B]*I[C] + I[r]].
		s.srcs = []operand{intSrc(rB, domIndex), intSrc(rC, domIndex), intSrc(rX, domIndex)}
		s.hasDst, s.dstF, s.faultAt = true, true, 2
		s.in.Imm = packMemIdx(gDataF, gDataF, rX)
		memFault("exec: load data[%d] out of bounds (len %d)", func(v []int64) int64 { return v[0]*v[1] + v[2] })
	case FmtMacIdxF:
		// F[A] += F[B] * data[I[C]*I[r2] + I[r3]].
		s.srcs = []operand{fltSrc(rB), intSrc(rC, domIndex), intSrc(rX2, domIndex), intSrc(rX, domIndex), fltSrc(rA)}
		s.hasDst, s.dstF, s.faultAt = true, true, 3
		s.in.Imm = packMacIdx(gDataF, gDataF, rX2, rX)
		memFault("exec: load data[%d] out of bounds (len %d)", func(v []int64) int64 { return v[1]*v[2] + v[3] })
	default:
		panic(fmt.Sprintf("opspec: no statement of format %d (%s)", info.Fmt, info.Name))
	}
	return s
}

func specDataSlot(local, isF bool) int32 {
	switch {
	case local && isF:
		return lDataF
	case local:
		return lDataI
	case isF:
		return gDataF
	}
	return gDataI
}

// specValue is operand k's value for lane l (l < 0: its uniform
// constant) in value set v, mapped into the operand's domain.
func specValue(o operand, k, v, l int) (int64, float64) {
	base := [5][3]int64{{2, 5, 3}, {5, 2, 3}, {1, 4, 6}, {3, 0, 7}, {6, 1, 2}}[k][v]
	if l >= 0 {
		// Lane patterns that agree in some lanes and differ in others.
		base = int64((l*[5]int{1, 7, 3, 5, 1}[k] + [5]int{0, 2, 1, 4, 3}[k] + 3*v) % 8)
	}
	if o.isF {
		return 0, float64(base)*0.75 - 2
	}
	switch o.dom {
	case domIndex:
		return base, 0
	case domNonZero:
		return base + 1, 0
	case domDim:
		return base % 3, 0
	}
	return base - 3, 0
}

// specRun is one assembled program with its operand values.
type specRun struct {
	spec    opSpec
	fn      *Func
	pc      int // the instruction under test
	varying uint
	vi      [][specW]int64 // per operand, per lane
	vf      [][specW]float64
}

// assemble builds the program for one uniform/varying assignment
// (bit k of varying: operand k is a gid-indexed load) and value set v;
// with bad non-nil, the fault operand takes *bad — in lane 5 only when
// it is varying.
func (s opSpec) assemble(varying uint, v int, bad *int64) *specRun {
	r := &specRun{spec: s, varying: varying}
	fn := &Func{Name: s.in.Op.String(), NumI: specRegs, NumF: specRegs, NumGlobals: specGlobals, NumLocal: 2,
		Names: make([]string, specGlobals)}
	fn.Names[gDataF] = "data"
	emit := func(in Instr) { fn.Code = append(fn.Code, in) }
	emit(Instr{Op: OpWI, A: rGid, B: WIGlobalID})
	emit(Instr{Op: OpLdcI, A: rAlt, Imm: 100})
	emit(Instr{Op: OpAddI, A: rAlt, B: rGid, C: rAlt})
	r.vi = make([][specW]int64, len(s.srcs))
	r.vf = make([][specW]float64, len(s.srcs))
	for k, o := range s.srcs {
		isVar := varying&(1<<k) != 0
		for l := 0; l < specW; l++ {
			src := -1
			if isVar {
				src = l
			}
			r.vi[k][l], r.vf[k][l] = specValue(o, k, v, src)
			if bad != nil && k == s.faultAt && (!isVar || l == 5) {
				r.vi[k][l] = *bad
			}
		}
		switch {
		case isVar && o.isF:
			emit(Instr{Op: OpLdGF, A: o.reg, B: int32(gInF + k), C: rGid})
		case isVar:
			emit(Instr{Op: OpLdGI, A: o.reg, B: int32(gInI + k), C: rGid})
		case o.isF:
			emit(Instr{Op: OpLdcF, A: o.reg, Imm: int64(len(fn.FPool))})
			fn.FPool = append(fn.FPool, r.vf[k][0])
		default:
			emit(Instr{Op: OpLdcI, A: o.reg, Imm: r.vi[k][0]})
		}
	}
	fn.FPool = append(fn.FPool, 2.5) // ldc.f's own constant, in case it is the op
	in := s.in
	if in.Op == OpLdcF {
		in.Imm = int64(len(fn.FPool) - 1)
	}
	switch s.shape {
	case shapeLine:
		r.pc = len(fn.Code)
		emit(in)
		switch {
		case !s.hasDst:
			emit(Instr{Op: OpStGI, A: rGid, B: gOutI, C: rGid})
		case s.dstF:
			emit(Instr{Op: OpStGF, A: rA, B: gOutF, C: rGid})
		default:
			emit(Instr{Op: OpStGI, A: rA, B: gOutI, C: rGid})
		}
	case shapeJump:
		emit(Instr{Op: OpMovI, A: rRes, B: rGid})
		r.pc = len(fn.Code)
		in.Imm = int64(r.pc + 2)
		emit(in)
		emit(Instr{Op: OpMovI, A: rRes, B: rAlt})
		emit(Instr{Op: OpStGI, A: rRes, B: gOutI, C: rGid})
	case shapeLoop:
		emit(Instr{Op: OpNop})
		r.pc = len(fn.Code)
		in.Imm = packCcTarget(CcLt, int64(r.pc-1))
		emit(in)
		emit(Instr{Op: OpStGI, A: rA, B: gOutI, C: rGid})
	}
	emit(Instr{Op: OpHalt})
	if err := fn.buildProfile(); err != nil {
		panic(err)
	}
	r.fn = fn
	return r
}

// buffers returns a fresh buffer table holding the run's inputs.
func (r *specRun) buffers() (globals, locals []Buf) {
	globals = make([]Buf, specGlobals)
	globals[gOutF].F = make([]float32, specW)
	globals[gOutI].I = make([]int32, specW)
	dataF := func() []float32 {
		d := make([]float32, dataLen)
		for i := range d {
			d[i] = float32(i)*0.5 - 7
		}
		return d
	}
	dataI := func() []int32 {
		d := make([]int32, dataLen)
		for i := range d {
			d[i] = int32(i)*3 - 20
		}
		return d
	}
	globals[gDataF].F, globals[gDataI].I = dataF(), dataI()
	for k := 0; k < 5; k++ {
		globals[gInI+k].I = make([]int32, specW)
		globals[gInF+k].F = make([]float32, specW)
		if k < len(r.vi) {
			for l := 0; l < specW; l++ {
				globals[gInI+k].I[l] = int32(r.vi[k][l])
				globals[gInF+k].F[l] = float32(r.vf[k][l])
			}
		}
	}
	return globals, []Buf{lDataF: {F: dataF()}, lDataI: {I: dataI()}}
}

func sameBufs(a, b []Buf) bool {
	return slices.EqualFunc(a, b, func(x, y Buf) bool {
		return slices.Equal(x.I, y.I) &&
			slices.EqualFunc(x.F, y.F, func(p, q float32) bool { return math.Float32bits(p) == math.Float32bits(q) })
	})
}

// specWI is item l's answer to query q in dimension d: gid and lid
// differ from lane to lane, the rest are the group's.
func specWI(q, d, l int) int64 {
	if q <= WILocalID {
		return int64(100*d*(q+1) + l)
	}
	return int64(1000*q + 10*d + 1)
}

// retired sums staticCounts over the instructions an item retires,
// execs[i] times each.
func (r *specRun) retired(upTo int, execs func(pc int) int64) [NCountFields]int64 {
	var sum [NCountFields]int64
	for pc := 0; pc < upTo; pc++ {
		c := staticCounts(r.fn.Code[pc].Op)
		for fi, n := range c.fields() {
			sum[fi] += n * execs(pc)
		}
	}
	return sum
}

// scalarItems runs the program item by item on scalar frames over one
// buffer table, in canonical order.
func (r *specRun) scalarItems(t *testing.T) (globals, locals []Buf, frames []*Frame, errs []error) {
	globals, locals = r.buffers()
	for l := 0; l < specW; l++ {
		f := r.fn.NewFrame()
		f.Globals, f.Locals = globals, locals
		for q := range f.WI {
			for d := range f.WI[q] {
				f.WI[q][d] = specWI(q, d, l)
			}
		}
		st, err := r.fn.Run(f)
		for n := 0; st == Suspended && err == nil && n < 4; n++ {
			st, err = r.fn.Run(f)
		}
		if st != Halted {
			t.Fatalf("item %d: scalar frame stopped with status %d", l, st)
		}
		frames, errs = append(frames, f), append(errs, err)
	}
	return globals, locals, frames, errs
}

const specSentinel = -77

// vecGroup vectorizes the program and runs it as one group.
func (r *specRun) vecGroup() (*VecFunc, *VecFrame, Status, error) {
	vp, err := Vectorize(r.fn)
	if err != nil {
		return nil, nil, 0, err
	}
	f := vp.NewVecFrame(specW)
	for _, file := range [][]int64{f.I, f.Frame.I} {
		for i := range file {
			file[i] = specSentinel
		}
	}
	for _, file := range [][]float64{f.F, f.Frame.F} {
		for i := range file {
			file[i] = specSentinel
		}
	}
	f.Globals, f.Locals = r.buffers()
	for q := range f.WI {
		for d := range f.WI[q] {
			f.WI[q][d] = specWI(q, d, 0)
			if q <= WILocalID {
				for l := 0; l < specW; l++ {
					f.LaneWI[q][d][l] = specWI(q, d, l)
				}
			}
		}
	}
	st, err := vp.Run(f)
	return vp, f, st, err
}

// check runs a non-faulting program on both interpreters and compares.
func (r *specRun) check(t *testing.T) {
	t.Helper()
	globals, locals, frames, errs := r.scalarItems(t)
	for l, err := range errs {
		if err != nil {
			t.Fatalf("item %d on the scalar VM: %v", l, err)
		}
	}
	// Every instruction retires once per item, except behind a halt and
	// around addjcmp.i's loop.
	execs := func(l int) func(pc int) int64 {
		return func(pc int) int64 {
			switch {
			case r.spec.in.Op == OpHalt && pc > r.pc:
				return 0
			case r.spec.shape == shapeLoop && (pc == r.pc || pc == r.pc-1):
				a, step, bound := r.vi[0][l], r.vi[1][l], r.vi[2][l]
				n := int64(1)
				for a += step; a < bound; a += step {
					n++
				}
				return n
			}
			return 1
		}
	}
	for l, f := range frames {
		if got, want := f.Cnt.fields(), r.retired(len(r.fn.Code), execs(l)); got != want {
			t.Errorf("scalar item %d counts %v, staticCounts over what it retired %v", l, got, want)
		}
	}

	vp, f, st, err := r.vecGroup()
	if err != nil || st != Halted {
		t.Fatalf("vector group: status %d, err %v\n%s", st, err, vp.Disassemble())
	}
	// addjcmp.i with a varying operand is a varying back-edge: its loop
	// runs under a mask, each lane leaving at its own trip count to the
	// join right after it.
	if r.spec.shape == shapeLoop && r.varying != 0 && (vp.joinPC[r.pc] != r.pc+1 || !vp.regions[r.pc].loop) {
		t.Errorf("varying addjcmp.i at pc %d: join %d, want a loop mask joining at %d\n%s",
			r.pc, vp.joinPC[r.pc], r.pc+1, vp.Disassemble())
	}
	// A destination is uniform, and its instruction in a span, exactly
	// when every source is (wi.dyn's query can be a lane ramp).
	if all := uint(1)<<len(r.spec.srcs) - 1; r.spec.hasDst && len(r.spec.srcs) > 0 && r.spec.shape == shapeLine && r.spec.in.Op != OpWIDyn {
		if want := r.varying == 0; vp.scal[r.pc] != want {
			t.Errorf("scal[%d] = %v with sources varying %b of %b", r.pc, vp.scal[r.pc], r.varying, all)
		}
	}
	if !sameBufs(f.Globals, globals) || !sameBufs(f.Locals, locals) {
		t.Errorf("buffers differ\nvector: %v %v\nscalar: %v %v\n%s", f.Globals, f.Locals, globals, locals, vp.Disassemble())
	}
	for l := 0; l < specW; l++ {
		cnt := f.LaneCounts(l)
		if got, want := cnt.fields(), r.retired(len(r.fn.Code), execs(l)); got != want {
			t.Errorf("vector lane %d counts %v, staticCounts over what it retired %v", l, got, want)
		}
	}
}

// checkFault runs a program whose fault operand is bad: every scalar
// item that reads the bad value reports the canonical message, and the
// group parks before the instruction.
func (r *specRun) checkFault(t *testing.T) {
	t.Helper()
	_, _, frames, errs := r.scalarItems(t)
	once := func(int) int64 { return 1 }
	for l, err := range errs {
		isBad := r.varying&(1<<r.spec.faultAt) == 0 || l == 5
		var v []int64
		for k := range r.vi {
			v = append(v, r.vi[k][l])
		}
		switch {
		case !isBad && err != nil:
			t.Errorf("item %d on the scalar VM: %v", l, err)
		case isBad && (err == nil || err.Error() != r.spec.msg(v)):
			t.Errorf("item %d on the scalar VM: %v, want %q", l, err, r.spec.msg(v))
		case isBad && (frames[l].PC != r.pc || frames[l].Cnt.fields() != r.retired(r.pc, once)):
			t.Errorf("item %d faulted at pc %d with counts %v, want pc %d and the prologue's counts", l, frames[l].PC, frames[l].Cnt.fields(), r.pc)
		}
	}

	vp, f, st, err := r.vecGroup()
	if err != nil || st != Diverged || f.PC != r.pc || f.PCLaned || f.Laned {
		t.Fatalf("vector group: status %d, err %v, pc %d (laned %v %v); want parked with Diverged at pc %d\n%s",
			st, err, f.PC, f.PCLaned, f.Laned, r.pc, vp.Disassemble())
	}
	if got, want := f.Cnt.fields(), r.retired(r.pc, once); got != want {
		t.Errorf("parked group counts %v, want the prologue's %v: a would-fault instruction counts nothing", got, want)
	}
	if globals, locals := r.buffers(); !sameBufs(f.Globals, globals) || !sameBufs(f.Locals, locals) {
		t.Errorf("a parked instruction wrote a buffer:\n%v %v", f.Globals, f.Locals)
	}
	// The destination still holds what the prologue left there: the
	// accumulator's value, or the sentinel — in the scalar slot when
	// the instruction sits in a span. ldidx.f alone may have written
	// lanes ahead of the faulting one (the rerun rewrites them).
	if !r.spec.hasDst || r.spec.in.Op == OpLdGFIdx {
		return
	}
	want := [specW]float64{}
	for l := range want {
		want[l] = specSentinel
		if acc := len(r.spec.srcs) - 1; r.spec.srcs[acc].reg == rA {
			want[l] = float64(float32(r.vf[acc][l]))
		}
	}
	for l := 0; l < specW; l++ {
		got := float64(f.lanesI(rA)[l])
		switch {
		case r.spec.dstF && vp.uniF[rA]:
			got = f.Frame.F[rA]
		case r.spec.dstF:
			got = f.lanesF(rA)[l]
		case vp.uniI[rA]:
			got = float64(f.Frame.I[rA])
		}
		if got != want[l] {
			t.Errorf("parked instruction wrote its destination: lane %d holds %v, want %v", l, got, want[l])
		}
	}
}

func TestOpcodeSpec(t *testing.T) {
	for op := Opcode(0); op < opCount; op++ {
		info, ok := LookupOp(op)
		if !ok {
			t.Errorf("opcode %d is not registered in opTable", op)
			continue
		}
		t.Run(info.Name, func(t *testing.T) {
			s := specFor(op)

			// op.go's account of the format against this file's.
			var srcs []operand
			note := func(isF bool) func(int32, uint8) {
				return func(r int32, _ uint8) { srcs = append(srcs, operand{isF: isF, reg: r}) }
			}
			srcRegs(&s.in, note(false), note(true))
			same := func(a, b operand) int { return 4*int(a.reg-b.reg) + int(b2i(a.isF)-b2i(b.isF)) }
			want := slices.Clone(s.srcs)
			for i := range want {
				want[i].dom = 0
			}
			slices.SortFunc(srcs, same)
			slices.SortFunc(want, same)
			if !slices.Equal(srcs, want) {
				t.Errorf("srcRegs reports %v, the format reads %v", srcs, want)
			}
			if isF, reg, ok := destReg(&s.in); ok != s.hasDst || ok && (isF != s.dstF || reg != rA) {
				t.Errorf("destReg = %v %d %v, the format writes F=%v r%d %v", isF, reg, ok, s.dstF, rA, s.hasDst)
			}

			// Condition codes and work-item queries are operands too.
			variants := []Instr{s.in}
			switch info.Fmt {
			case FmtJCmpI, FmtJCmpF:
				variants = variants[:0]
				for cc := int32(CcLt); cc <= CcNGe; cc++ {
					if cc > CcNe && info.Fmt != FmtJCmpF {
						break
					}
					in := s.in
					in.C = cc
					variants = append(variants, in)
				}
			case FmtWI, FmtWIDyn:
				variants = variants[:0]
				for q := int32(WIGlobalID); q <= WINumGroups; q++ {
					in := s.in
					in.B = q
					if info.Fmt == FmtWI {
						in.C = q % 3
					}
					variants = append(variants, in)
				}
			}
			for _, in := range variants {
				s.in = in
				for varying := uint(0); varying < 1<<len(s.srcs); varying++ {
					for v := 0; v < 3; v++ {
						s.assemble(varying, v, nil).check(t)
					}
					for i := range s.bad {
						s.assemble(varying, 0, &s.bad[i]).checkFault(t)
					}
					if t.Failed() {
						t.Fatalf("first failure: %+v, sources varying %b", in, varying)
					}
				}
			}
		})
	}
}
