package vm

import (
	"math"
	"slices"
)

// The vector tier's ALU lane loops, one helper per operand format
// (op.go), shared by the dispatch arms of (*VecFunc).Run, which hand
// them the destination register's lanes, and the in-place sides of a
// linear branch (linear), which hand them scratch lanes. Each helper switches on
// which sources are uniform (VecFunc.srcU) and reads a uniform operand
// from its scalar slot inside the lane loop: no broadcast into scratch
// lanes, so a uniform operand costs one register instead of W stores and
// W loads. Commutative integer operations swap a uniform left operand to
// the right; float operations keep their operand order, because which
// NaN an operation returns can depend on it. When every source is
// uniform under a varying destination — a register a divergent region
// inside a loop writes — the helper computes one lane from the scalar
// slots and fills the rest. Each float expression has the shape of the
// scalar VM's arm, so rounding is bit-identical. Only integer division
// and modulo can fault: their helpers report false, with nothing
// written, when some lane's divisor is zero.

// fill sets every lane of d to v.
func fill[T int64 | float64](d []T, v T) {
	for l := range d {
		d[l] = v
	}
}

// aluIab runs I[A] <- I[B]: mov.i, snz.i, neg.i, not.b, abs.i.
func (f *VecFrame) aluIab(in *Instr, su uint8, d []int64) {
	if su&srcUB != 0 {
		t := [1]int64{f.Frame.I[in.B&f.mi]}
		unI(in.Op, t[:], t[:])
		fill(d, t[0])
		return
	}
	unI(in.Op, d, f.lanesI(in.B))
}

func unI(op Opcode, d, b []int64) {
	b = b[:len(d)]
	switch op {
	case OpMovI:
		copy(d, b)
	case OpSnzI:
		for l := range d {
			d[l] = b2i(b[l] != 0)
		}
	case OpNegI:
		for l := range d {
			d[l] = -b[l]
		}
	case OpNotB:
		for l := range d {
			d[l] = b2i(b[l] == 0)
		}
	case OpAbsI:
		for l := range d {
			v := b[l]
			if v < 0 {
				v = -v
			}
			d[l] = v
		}
	}
}

// aluIabImm runs I[A] <- I[B], Imm: the immediate arithmetic and
// compares. The fuser never builds a div.i.k or mod.i.k with a zero
// immediate.
func (f *VecFrame) aluIabImm(in *Instr, su uint8, d []int64) {
	if su&srcUB != 0 {
		t := [1]int64{f.Frame.I[in.B&f.mi]}
		immI(in, t[:], t[:])
		fill(d, t[0])
		return
	}
	immI(in, d, f.lanesI(in.B))
}

func immI(in *Instr, d, b []int64) {
	if in.Op >= OpLtIImm && in.Op <= OpNeIImm {
		cmpMask1(d, int32(in.Op-OpLtIImm), b, in.Imm)
		return
	}
	binIK(in.Op, d, b, in.Imm)
}

// aluIabc runs I[A] <- I[B], I[C]: integer arithmetic, min, max and the
// six compares (declared in condition-code order). It reports false,
// with nothing written, when some lane would divide by zero.
func (f *VecFrame) aluIabc(in *Instr, su uint8, d []int64) bool {
	ui := f.Frame.I
	if in.Op >= OpLtI && in.Op <= OpNeI {
		cc := int32(in.Op - OpLtI)
		switch su & (srcUB | srcUC) {
		case 0:
			cmpMask(d, cc, f.lanesI(in.B), f.lanesI(in.C))
		case srcUC:
			cmpMask1(d, cc, f.lanesI(in.B), ui[in.C&f.mi])
		case srcUB:
			cmpMask1(d, swapCc[cc], f.lanesI(in.C), ui[in.B&f.mi])
		default:
			fill(d, b2i(ccHoldsI(cc, ui[in.B&f.mi], ui[in.C&f.mi])))
		}
		return true
	}
	switch su & (srcUB | srcUC) {
	case 0:
		return binI(in.Op, d, f.lanesI(in.B), f.lanesI(in.C))
	case srcUC:
		return binIK(in.Op, d, f.lanesI(in.B), ui[in.C&f.mi])
	case srcUB:
		return binKI(in.Op, d, ui[in.B&f.mi], f.lanesI(in.C))
	}
	t := [1]int64{ui[in.B&f.mi]}
	if !binIK(in.Op, t[:], t[:], ui[in.C&f.mi]) {
		return false
	}
	fill(d, t[0])
	return true
}

// binI is d = b op c lane by lane.
func binI(op Opcode, d, b, c []int64) bool {
	b, c = b[:len(d)], c[:len(d)]
	switch op {
	case OpAddI:
		for l := range d {
			d[l] = b[l] + c[l]
		}
	case OpSubI:
		for l := range d {
			d[l] = b[l] - c[l]
		}
	case OpMulI:
		for l := range d {
			d[l] = b[l] * c[l]
		}
	case OpDivI:
		if slices.Contains(c, 0) {
			return false
		}
		for l := range d {
			d[l] = b[l] / c[l]
		}
	case OpModI:
		if slices.Contains(c, 0) {
			return false
		}
		for l := range d {
			d[l] = b[l] % c[l]
		}
	case OpAndI:
		for l := range d {
			d[l] = b[l] & c[l]
		}
	case OpOrI:
		for l := range d {
			d[l] = b[l] | c[l]
		}
	case OpXorI:
		for l := range d {
			d[l] = b[l] ^ c[l]
		}
	case OpShlI:
		for l := range d {
			d[l] = b[l] << uint(c[l]&63)
		}
	case OpShrI:
		for l := range d {
			d[l] = b[l] >> uint(c[l]&63)
		}
	case OpMinI:
		for l := range d {
			d[l] = min(b[l], c[l])
		}
	case OpMaxI:
		for l := range d {
			d[l] = max(b[l], c[l])
		}
	}
	return true
}

// binIK is d = b op k lane by lane, for a register op with a uniform
// right operand and for its immediate form alike.
func binIK(op Opcode, d, b []int64, k int64) bool {
	b = b[:len(d)]
	switch op {
	case OpAddI, OpAddIImm:
		for l := range d {
			d[l] = b[l] + k
		}
	case OpSubI:
		for l := range d {
			d[l] = b[l] - k
		}
	case OpMulI, OpMulIImm:
		for l := range d {
			d[l] = b[l] * k
		}
	case OpDivI, OpDivIImm:
		if k == 0 {
			return false
		}
		for l := range d {
			d[l] = b[l] / k
		}
	case OpModI, OpModIImm:
		if k == 0 {
			return false
		}
		for l := range d {
			d[l] = b[l] % k
		}
	case OpAndI, OpAndIImm:
		for l := range d {
			d[l] = b[l] & k
		}
	case OpOrI, OpOrIImm:
		for l := range d {
			d[l] = b[l] | k
		}
	case OpXorI, OpXorIImm:
		for l := range d {
			d[l] = b[l] ^ k
		}
	case OpShlI, OpShlIImm:
		for l := range d {
			d[l] = b[l] << uint(k&63)
		}
	case OpShrI, OpShrIImm:
		for l := range d {
			d[l] = b[l] >> uint(k&63)
		}
	case OpMinI:
		for l := range d {
			d[l] = min(b[l], k)
		}
	case OpMaxI:
		for l := range d {
			d[l] = max(b[l], k)
		}
	}
	return true
}

// binKI is d = k op c lane by lane: a uniform left operand.
func binKI(op Opcode, d []int64, k int64, c []int64) bool {
	c = c[:len(d)]
	switch op {
	case OpSubI:
		for l := range d {
			d[l] = k - c[l]
		}
	case OpDivI, OpModI:
		if slices.Contains(c, 0) {
			return false
		}
		if op == OpDivI {
			for l := range d {
				d[l] = k / c[l]
			}
		} else {
			for l := range d {
				d[l] = k % c[l]
			}
		}
	case OpShlI:
		for l := range d {
			d[l] = k << uint(c[l]&63)
		}
	case OpShrI:
		for l := range d {
			d[l] = k >> uint(c[l]&63)
		}
	default:
		// Commutative: add, mul, and, or, xor, min, max.
		return binIK(op, d, c, k)
	}
	return true
}

// aluIabcImm runs I[A] <- I[B], I[C], I[Imm]: clamp.i and muladd.i.
func (f *VecFrame) aluIabcImm(in *Instr, su uint8, d []int64) {
	ui := f.Frame.I
	x := int32(in.Imm)
	if su&(srcUB|srcUC|srcUX) == srcUC|srcUX {
		// The hot shapes: a varying value clamped to uniform bounds, and
		// the address shape varying base times uniform stride plus
		// uniform offset.
		b := f.lanesI(in.B)[:len(d)]
		cv, xv := ui[in.C&f.mi], ui[x&f.mi]
		if in.Op == OpMulAddI {
			for l := range d {
				d[l] = b[l]*cv + xv
			}
		} else {
			for l := range d {
				d[l] = max(cv, min(b[l], xv))
			}
		}
		return
	}
	var ob, oc, ox [1]int64
	b, mb := f.opndI(in.B, su&srcUB != 0, &ob)
	c, mc := f.opndI(in.C, su&srcUC != 0, &oc)
	m, mm := f.opndI(x, su&srcUX != 0, &ox)
	if in.Op == OpMulAddI {
		for l := range d {
			d[l] = b[l&mb]*c[l&mc] + m[l&mm]
		}
	} else {
		for l := range d {
			d[l] = max(c[l&mc], min(b[l&mb], m[l&mm]))
		}
	}
}

// aluMulImmAdd runs I[A] <- I[B]*imm + I[C] (mulkadd.i).
func (f *VecFrame) aluMulImmAdd(in *Instr, su uint8, d []int64) {
	var ob, oc [1]int64
	b, mb := f.opndI(in.B, su&srcUB != 0, &ob)
	c, mc := f.opndI(in.C, su&srcUC != 0, &oc)
	if mb != 0 && mc == 0 {
		b, cv := b[:len(d)], c[0]
		for l := range d {
			d[l] = b[l]*in.Imm + cv
		}
		return
	}
	for l := range d {
		d[l] = b[l&mb]*in.Imm + c[l&mc]
	}
}

// opndI returns register r for a lane loop that indexes it with l&mask:
// its lanes and mask -1 when varying, or its scalar value in the
// one-element array t and mask 0 when uniform.
func (f *VecFrame) opndI(r int32, uniform bool, t *[1]int64) ([]int64, int) {
	if uniform {
		t[0] = f.Frame.I[r&f.mi]
		return t[:], 0
	}
	return f.lanesI(r), -1
}

func (f *VecFrame) opndF(r int32, uniform bool, t *[1]float64) ([]float64, int) {
	if uniform {
		t[0] = f.Frame.F[r&f.mf]
		return t[:], 0
	}
	return f.lanesF(r), -1
}

// aluFaIb runs F[A] <- float(I[B]) (i2f).
func (f *VecFrame) aluFaIb(in *Instr, su uint8, d []float64) {
	if su&srcUB != 0 {
		fill(d, float64(f.Frame.I[in.B&f.mi]))
		return
	}
	b := f.lanesI(in.B)[:len(d)]
	for l := range d {
		d[l] = float64(b[l])
	}
}

// aluIaFb runs I[A] <- int(F[B]) (f2i).
func (f *VecFrame) aluIaFb(in *Instr, su uint8, d []int64) {
	if su&srcUB != 0 {
		fill(d, int64(f.Frame.F[in.B&f.mf]))
		return
	}
	b := f.lanesF(in.B)[:len(d)]
	for l := range d {
		d[l] = int64(b[l])
	}
}

// aluIaFbc runs I[A] <- F[B] cmp F[C]: the six float compares, declared
// in condition-code order.
func (f *VecFrame) aluIaFbc(in *Instr, su uint8, d []int64) {
	uf := f.Frame.F
	cc := int32(in.Op - OpLtF)
	switch su & (srcUB | srcUC) {
	case 0:
		cmpMask(d, cc, f.lanesF(in.B), f.lanesF(in.C))
	case srcUC:
		cmpMask1(d, cc, f.lanesF(in.B), uf[in.C&f.mf])
	case srcUB:
		cmpMask1(d, swapCc[cc], f.lanesF(in.C), uf[in.B&f.mf])
	default:
		fill(d, b2i(ccHoldsF(cc, uf[in.B&f.mf], uf[in.C&f.mf])))
	}
}

// aluFab runs F[A] <- F[B]: mov.f, neg.f and the unary builtins.
func (f *VecFrame) aluFab(in *Instr, su uint8, d []float64) {
	if su&srcUB != 0 {
		t := [1]float64{f.Frame.F[in.B&f.mf]}
		unF(in.Op, t[:], t[:])
		fill(d, t[0])
		return
	}
	unF(in.Op, d, f.lanesF(in.B))
}

func unF(op Opcode, d, b []float64) {
	b = b[:len(d)]
	switch op {
	case OpMovF:
		copy(d, b)
	case OpNegF:
		for l := range d {
			d[l] = -b[l]
		}
	case OpSqrtF:
		for l := range d {
			d[l] = math.Sqrt(b[l])
		}
	case OpRsqrtF:
		for l := range d {
			d[l] = 1 / math.Sqrt(b[l])
		}
	case OpExpF:
		for l := range d {
			d[l] = math.Exp(b[l])
		}
	case OpLogF:
		for l := range d {
			d[l] = math.Log(b[l])
		}
	case OpLog2F:
		for l := range d {
			d[l] = math.Log2(b[l])
		}
	case OpSinF:
		for l := range d {
			d[l] = math.Sin(b[l])
		}
	case OpCosF:
		for l := range d {
			d[l] = math.Cos(b[l])
		}
	case OpTanF:
		for l := range d {
			d[l] = math.Tan(b[l])
		}
	case OpAbsF:
		for l := range d {
			d[l] = math.Abs(b[l])
		}
	case OpFloorF:
		for l := range d {
			d[l] = math.Floor(b[l])
		}
	case OpCeilF:
		for l := range d {
			d[l] = math.Ceil(b[l])
		}
	}
}

// aluFabc runs F[A] <- F[B], F[C]: float arithmetic and the binary
// builtins.
func (f *VecFrame) aluFabc(in *Instr, su uint8, d []float64) {
	uf := f.Frame.F
	switch su & (srcUB | srcUC) {
	case 0:
		binF(in.Op, d, f.lanesF(in.B), f.lanesF(in.C))
	case srcUC:
		binFK(in.Op, d, f.lanesF(in.B), uf[in.C&f.mf])
	case srcUB:
		binKF(in.Op, d, uf[in.B&f.mf], f.lanesF(in.C))
	default:
		t := [1]float64{uf[in.B&f.mf]}
		binFK(in.Op, t[:], t[:], uf[in.C&f.mf])
		fill(d, t[0])
	}
}

func binF(op Opcode, d, b, c []float64) {
	b, c = b[:len(d)], c[:len(d)]
	switch op {
	case OpAddF:
		for l := range d {
			d[l] = b[l] + c[l]
		}
	case OpSubF:
		for l := range d {
			d[l] = b[l] - c[l]
		}
	case OpMulF:
		for l := range d {
			d[l] = b[l] * c[l]
		}
	case OpDivF:
		for l := range d {
			d[l] = b[l] / c[l]
		}
	case OpPowF:
		for l := range d {
			d[l] = math.Pow(b[l], c[l])
		}
	case OpMinF:
		for l := range d {
			d[l] = math.Min(b[l], c[l])
		}
	case OpMaxF:
		for l := range d {
			d[l] = math.Max(b[l], c[l])
		}
	case OpAddRsqrtF:
		for l := range d {
			d[l] = 1 / math.Sqrt(b[l]+c[l])
		}
	}
}

// binFK is binF with a uniform right operand.
func binFK(op Opcode, d, b []float64, k float64) {
	b = b[:len(d)]
	switch op {
	case OpAddF:
		for l := range d {
			d[l] = b[l] + k
		}
	case OpSubF:
		for l := range d {
			d[l] = b[l] - k
		}
	case OpMulF:
		for l := range d {
			d[l] = b[l] * k
		}
	case OpDivF:
		for l := range d {
			d[l] = b[l] / k
		}
	case OpPowF:
		for l := range d {
			d[l] = math.Pow(b[l], k)
		}
	case OpMinF:
		for l := range d {
			d[l] = math.Min(b[l], k)
		}
	case OpMaxF:
		for l := range d {
			d[l] = math.Max(b[l], k)
		}
	case OpAddRsqrtF:
		for l := range d {
			d[l] = 1 / math.Sqrt(b[l]+k)
		}
	}
}

// binKF is binF with a uniform left operand.
func binKF(op Opcode, d []float64, k float64, c []float64) {
	c = c[:len(d)]
	switch op {
	case OpAddF:
		for l := range d {
			d[l] = k + c[l]
		}
	case OpSubF:
		for l := range d {
			d[l] = k - c[l]
		}
	case OpMulF:
		for l := range d {
			d[l] = k * c[l]
		}
	case OpDivF:
		for l := range d {
			d[l] = k / c[l]
		}
	case OpPowF:
		for l := range d {
			d[l] = math.Pow(k, c[l])
		}
	case OpMinF:
		for l := range d {
			d[l] = math.Min(k, c[l])
		}
	case OpMaxF:
		for l := range d {
			d[l] = math.Max(k, c[l])
		}
	case OpAddRsqrtF:
		for l := range d {
			d[l] = 1 / math.Sqrt(k+c[l])
		}
	}
}

// aluFabcImm runs F[A] <- F[B], F[C], F[Imm]: fma.f, clamp.f, muladd.f
// and mulmul.f.
func (f *VecFrame) aluFabcImm(in *Instr, su uint8, d []float64) {
	x := int32(in.Imm)
	if su&(srcUB|srcUC|srcUX) == 0 {
		triF(in.Op, d, f.lanesF(in.B), f.lanesF(in.C), f.lanesF(x))
		return
	}
	var ob, oc, ox [1]float64
	b, mb := f.opndF(in.B, su&srcUB != 0, &ob)
	c, mc := f.opndF(in.C, su&srcUC != 0, &oc)
	m, mm := f.opndF(x, su&srcUX != 0, &ox)
	switch in.Op {
	case OpFmaF:
		for l := range d {
			d[l] = b[l&mb]*c[l&mc] + m[l&mm]
		}
	case OpClampF:
		for l := range d {
			d[l] = math.Max(c[l&mc], math.Min(b[l&mb], m[l&mm]))
		}
	case OpMulAddF:
		for l := range d {
			d[l] = float64(b[l&mb]*c[l&mc]) + m[l&mm]
		}
	case OpMulMulF:
		for l := range d {
			d[l] = float64(b[l&mb]*c[l&mc]) * m[l&mm]
		}
	}
}

func triF(op Opcode, d, b, c, m []float64) {
	b, c, m = b[:len(d)], c[:len(d)], m[:len(d)]
	switch op {
	case OpFmaF:
		for l := range d {
			d[l] = b[l]*c[l] + m[l]
		}
	case OpClampF:
		for l := range d {
			d[l] = math.Max(c[l], math.Min(b[l], m[l]))
		}
	case OpMulAddF:
		for l := range d {
			// Explicit conversion as in the scalar arm: the product
			// rounds separately, never contracted into an FMA.
			d[l] = float64(b[l]*c[l]) + m[l]
		}
	case OpMulMulF:
		for l := range d {
			d[l] = float64(b[l]*c[l]) * m[l]
		}
	}
}
