package vm

// fuse runs the peephole super-instruction passes over a compiled
// function: load-operate fusion, multiply-add fusion, and
// compare-branch fusion. Each fused instruction bumps exactly the
// counters its unfused pair would have, so profiles stay
// byte-identical with fusion on or off. Integer constants live in
// prologue registers (constI), so no pass folds one into an immediate
// operand. Every superinstruction must occur in some built-in's
// bytecode (root TestEverySuperinstructionUsed).
//
// A pair (producer, consumer) fuses only when the producer's
// destination is written and read exactly once in the whole function
// (a single-use temporary) and the consumer is not a jump target, so
// no control flow can observe the intermediate register or enter
// between the two instructions.
func fuse(p *Func) {
	n := 0
	n += fusePass(p, tryLoadOp)
	n += fusePass(p, tryMulAccLd)
	n += fusePass(p, tryMulAdd)
	n += fusePass(p, tryMulMul)
	n += fusePass(p, tryAddRsqrt)
	n += fusePass(p, tryIdxLoad)
	n += fusePass(p, tryCmpBranch)
	n += threadJumps(p)
	n += fusePass(p, tryIncJCmp)
	p.Fused = n
}

// regUse tallies per-register reads and writes (srcRegs / destReg).
type regUse struct {
	rI, wI []int
	rF, wF []int
}

func useCounts(p *Func) *regUse {
	u := &regUse{
		rI: make([]int, p.NumI), wI: make([]int, p.NumI),
		rF: make([]int, p.NumF), wF: make([]int, p.NumF),
	}
	readI := func(r int32, _ uint8) { u.rI[r]++ }
	readF := func(r int32, _ uint8) { u.rF[r]++ }
	for i := range p.Code {
		in := &p.Code[i]
		srcRegs(in, readI, readF)
		if isF, r, ok := destReg(in); ok {
			if isF {
				u.wF[r]++
			} else {
				u.wI[r]++
			}
		}
	}
	return u
}

func (u *regUse) soloI(r int32) bool { return u.wI[r] == 1 && u.rI[r] == 1 }
func (u *regUse) soloF(r int32) bool { return u.wF[r] == 1 && u.rF[r] == 1 }

// jumpTargets returns the set of instruction indices any jump lands on.
func jumpTargets(code []Instr) map[int]bool {
	t := map[int]bool{}
	for i := range code {
		switch code[i].Op {
		case OpJmp, OpJZBr, OpJZLog, OpJNZLog, OpJCmpI, OpJCmpF:
			t[int(code[i].Imm)] = true
		case OpIncJCmpI:
			_, tgt := unpackCcTarget(code[i].Imm)
			t[int(tgt)] = true
		}
	}
	return t
}

// fuseFn tries to fuse the adjacent pair (a, b), a at instruction index
// pc, into one super-instruction.
type fuseFn func(pc int, a, b *Instr, u *regUse) (Instr, bool)

// fusePass makes one left-to-right sweep, replacing each fusable
// adjacent pair with its super-instruction and remapping jump targets
// over the compacted code.
func fusePass(p *Func, try fuseFn) int {
	targets := jumpTargets(p.Code)
	u := useCounts(p)
	out := make([]Instr, 0, len(p.Code))
	newPC := make([]int, len(p.Code)+1)
	n := 0
	for i := 0; i < len(p.Code); i++ {
		newPC[i] = len(out)
		if i+1 < len(p.Code) && !targets[i+1] {
			if f, ok := try(i, &p.Code[i], &p.Code[i+1], u); ok {
				out = append(out, f)
				newPC[i+1] = len(out) - 1
				i++
				n++
				continue
			}
		}
		out = append(out, p.Code[i])
	}
	newPC[len(p.Code)] = len(out)
	if n == 0 {
		return 0
	}
	for i := range out {
		switch out[i].Op {
		case OpJmp, OpJZBr, OpJZLog, OpJNZLog, OpJCmpI, OpJCmpF:
			out[i].Imm = int64(newPC[out[i].Imm])
		case OpIncJCmpI:
			cc, tgt := unpackCcTarget(out[i].Imm)
			out[i].Imm = packCcTarget(cc, int64(newPC[tgt]))
		}
	}
	p.Code = out
	return n
}

// tryLoadOp fuses a global float load feeding a float add, multiply, or
// subtract (either side of the subtract).
func tryLoadOp(_ int, a, b *Instr, u *regUse) (Instr, bool) {
	if a.Op != OpLdGF || !u.soloF(a.A) {
		return Instr{}, false
	}
	t := a.A
	mem := packMem(a.B, int32(a.Imm))
	switch b.Op {
	case OpAddF, OpMulF:
		op := OpAddFLdG
		if b.Op == OpMulF {
			op = OpMulFLdG
		}
		var x int32
		switch t {
		case b.C:
			x = b.B
		case b.B:
			x = b.C
		default:
			return Instr{}, false
		}
		return Instr{Op: op, A: b.A, B: x, C: a.C, Imm: mem}, true
	case OpSubF:
		switch t {
		case b.C:
			return Instr{Op: OpSubFLdG, A: b.A, B: b.B, C: a.C, Imm: mem}, true
		case b.B:
			return Instr{Op: OpLdSubFG, A: b.A, B: b.C, C: a.C, Imm: mem}, true
		}
	}
	return Instr{}, false
}

// tryMulAccLd fuses a mulld.f feeding an accumulating add (the reduction
// shape `acc = acc + x * buf[i]`) into one multiply-accumulate-from-load.
func tryMulAccLd(_ int, a, b *Instr, u *regUse) (Instr, bool) {
	if a.Op != OpMulFLdG || b.Op != OpAddF || !u.soloF(a.A) {
		return Instr{}, false
	}
	t := a.A
	if (b.B == t && b.C == b.A) || (b.C == t && b.B == b.A) {
		return Instr{Op: OpMulAccLdG, A: b.A, B: a.B, C: a.C, Imm: a.Imm}, true
	}
	return Instr{}, false
}

// tryMulAdd fuses a multiply feeding an add into a two-count
// multiply-add super-instruction.
func tryMulAdd(_ int, a, b *Instr, u *regUse) (Instr, bool) {
	switch a.Op {
	case OpMulI:
		if b.Op != OpAddI || !u.soloI(a.A) {
			return Instr{}, false
		}
		var other int32
		switch a.A {
		case b.B:
			other = b.C
		case b.C:
			other = b.B
		default:
			return Instr{}, false
		}
		return Instr{Op: OpMulAddI, A: b.A, B: a.B, C: a.C, Imm: int64(other)}, true
	case OpMulF:
		if b.Op != OpAddF || !u.soloF(a.A) {
			return Instr{}, false
		}
		var other int32
		switch a.A {
		case b.B:
			other = b.C
		case b.C:
			other = b.B
		default:
			return Instr{}, false
		}
		return Instr{Op: OpMulAddF, A: b.A, B: a.B, C: a.C, Imm: int64(other)}, true
	}
	return Instr{}, false
}

// tryMulMul fuses a float multiply feeding another multiply (the
// power/scaling chain `a*b*c`) into one two-count super-instruction.
func tryMulMul(_ int, a, b *Instr, u *regUse) (Instr, bool) {
	if a.Op != OpMulF || b.Op != OpMulF || !u.soloF(a.A) {
		return Instr{}, false
	}
	var other int32
	switch a.A {
	case b.B:
		other = b.C
	case b.C:
		other = b.B
	default:
		return Instr{}, false
	}
	return Instr{Op: OpMulMulF, A: b.A, B: a.B, C: a.C, Imm: int64(other)}, true
}

// tryAddRsqrt fuses a float add feeding rsqrt — the softened
// inverse-distance shape 1/sqrt(d2 + eps) in particle kernels.
func tryAddRsqrt(_ int, a, b *Instr, u *regUse) (Instr, bool) {
	if a.Op != OpAddF || b.Op != OpRsqrtF || b.B != a.A || !u.soloF(a.A) {
		return Instr{}, false
	}
	return Instr{Op: OpAddRsqrtF, A: b.A, B: a.B, C: a.C}, true
}

// tryIdxLoad folds a muladd.i address computation (the row-major
// `i*stride + j` shape) into the load it feeds.
func tryIdxLoad(_ int, a, b *Instr, u *regUse) (Instr, bool) {
	if a.Op != OpMulAddI || !u.soloI(a.A) {
		return Instr{}, false
	}
	switch b.Op {
	case OpLdGF:
		if b.C != a.A || b.B >= 1<<15 || b.Imm >= 1<<31 || a.Imm >= 1<<16 {
			return Instr{}, false
		}
		return Instr{Op: OpLdGFIdx, A: b.A, B: a.B, C: a.C,
			Imm: packMemIdx(b.B, int32(b.Imm), int32(a.Imm))}, true
	case OpMulAccLdG:
		slot, name := unpackMem(b.Imm)
		if b.C != a.A || slot >= 1<<15 || name >= 1<<16 || a.C >= 1<<16 || a.Imm >= 1<<16 {
			return Instr{}, false
		}
		return Instr{Op: OpMacLdGIdx, A: b.A, B: b.B, C: a.B,
			Imm: packMacIdx(slot, name, a.C, int32(a.Imm))}, true
	}
	return Instr{}, false
}

// negCc is the condition that makes a fused compare-branch jump exactly
// when the original jz.br would have (i.e. when the compare is false).
var negCc = map[Opcode]int32{
	OpLtI: CcGe, OpLeI: CcGt, OpGtI: CcLe, OpGeI: CcLt, OpEqI: CcNe, OpNeI: CcEq,
	OpLtF: CcNLt, OpLeF: CcNLe, OpGtF: CcNGt, OpGeF: CcNGe, OpEqF: CcNe, OpNeF: CcEq,
}

// tryCmpBranch fuses a comparison feeding a jz.br into one
// compare-and-branch that jumps on the negated condition.
func tryCmpBranch(_ int, a, b *Instr, u *regUse) (Instr, bool) {
	cc, ok := negCc[a.Op]
	if !ok || b.Op != OpJZBr || b.A != a.A || !u.soloI(a.A) {
		return Instr{}, false
	}
	if a.Op >= OpLtF && a.Op <= OpNeF {
		return Instr{Op: OpJCmpF, A: a.B, B: a.C, C: cc, Imm: b.Imm}, true
	}
	return Instr{Op: OpJCmpI, A: a.B, B: a.C, C: cc, Imm: b.Imm}, true
}

// tryIncJCmp fuses a loop counter update into the rotated backedge
// compare, so a counted loop's steady-state overhead is one dispatch.
// Both effects of the pair (the counter write and the compare-branch)
// are preserved, so no single-use condition is needed — only adjacency
// and the no-jump-target rule fusePass already enforces. A forward
// `v++; if (v > x)` pair is left alone: fused, a varying one could not
// take the vector tier's agree-or-split treatment (the counter mutates
// before the test), and it is not a loop's steady state anyway.
func tryIncJCmp(pc int, a, b *Instr, u *regUse) (Instr, bool) {
	if a.Op != OpAddI || b.Op != OpJCmpI || b.A != a.A || int(b.Imm) > pc {
		return Instr{}, false
	}
	var step int32
	switch a.A {
	case a.B:
		step = a.C
	case a.C:
		step = a.B
	default:
		return Instr{}, false
	}
	return Instr{Op: OpIncJCmpI, A: a.A, B: step, C: b.B,
		Imm: packCcTarget(b.C, b.Imm)}, true
}

// threadJumps rotates counted loops: a jmp whose target is a fused
// compare-branch exiting to the instruction right after the jmp is
// replaced in place by the inverted compare targeting the loop body, so
// steady-state iterations pay one dispatch instead of two. The head
// compare still guards entry; total compare/branch counts are unchanged
// (head runs once, the rotated copy runs once per iteration).
func threadJumps(p *Func) int {
	n := 0
	for i := range p.Code {
		in := &p.Code[i]
		if in.Op != OpJmp {
			continue
		}
		t := int(in.Imm)
		if t < 0 || t >= len(p.Code) {
			continue
		}
		h := p.Code[t]
		if (h.Op == OpJCmpI || h.Op == OpJCmpF) && int(h.Imm) == i+1 {
			cc := invCc[:]
			if h.Op == OpJCmpF {
				cc = invCcF[:]
			}
			*in = Instr{Op: h.Op, A: h.A, B: h.B, C: cc[h.C], Imm: int64(t + 1)}
			n++
		}
	}
	return n
}
