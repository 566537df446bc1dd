package vm

import "fmt"

// Diverged reports that a vector Run stopped because the group's lanes
// disagreed at a varying branch with no safe join point, or some lane
// would have faulted (out-of-bounds access, division by zero, bad
// work-item dimension). Unless the frame says otherwise (PCLaned), the
// PC is parked at the offending instruction, which has neither
// executed nor counted; the caller completes each lane on the scalar
// VM, which reproduces the canonical per-item behavior (including the
// exact fault message, if any). Lane disagreements at branches WITH a
// recorded join point are handled internally: a linear branch runs its
// sides in place (see linear), any other runs them as compacted
// sub-groups and the group re-forms (see diverge).
const Diverged Status = 2

// park stops the group at the instruction at pc, which some lane would
// fault on: it has neither executed nor counted, and the caller reruns
// it lane by lane on the scalar VM (see Diverged).
func (p *VecFunc) park(u *Frame, a0, a1 uint64, pc int) (Status, error) {
	p.exit(u, a0, a1, pc)
	return Diverged, nil
}

// Run executes all W lanes of the frame from its saved PC until the
// kernel halts, the group diverges irreducibly (see Diverged), the
// frame's Stop PC — the join point of a divergence split — is reached,
// or the step budget is exhausted.
//
// How an arm is laid out. The opcodes of one operand format (op.go)
// share one arm: an ALU arm calls its format's helper (vecalu.go) with
// the destination's lanes, a memory arm fetches its operands itself —
// `d := lanes(A); c := rd(C)` — and an inner switch holds only what
// differs, the lane loop: the same float expression shape as the scalar
// VM's arm (so rounding is bit-identical), over W lanes. What an opcode
// counts is not written here at all: laneK (counts.go, built from
// staticCounts) is added once at the bottom of the loop, so an arm that
// parks a would-fault instruction returns before counting it, and the
// jump arm adds it before it continues at the target. Memory and
// fault-checked arms scan every lane (index in bounds, divisor
// non-zero) before they write one, so a park leaves the frame exactly
// at pre-instruction state, and a store retires its lanes in ascending
// order.
//
// Scalarization: a straight-line span of instructions with uniform
// destinations goes to the scalar interpreter (Func.run) over the
// frame's uniform half, cut off at the span's end or the join point,
// whichever comes first, with the accumulators and the PC handed over
// and back as values. Conditional jumps never sit in a span: one with
// a uniform condition is decided here by laneCond from the scalar
// slots, so fuel (W per taken jump) and the spill countdown are charged
// in one place. The lane storage of a uniform register holds garbage
// and is never read directly. The ALU arms hand their instruction to a
// per-format helper (vecalu.go), which reads a uniform operand from its
// scalar slot inside the lane loop: broadcasting it first cost W stores
// and W loads per operand (splatI alone was 7% of suite kernel CPU, 9%
// with splatF under execute-small). The memory arms read uniform
// operands through rdI/rdF, which broadcast the scalar slot into
// scratch lanes on demand, and the hottest of them skip the broadcast
// when the address is uniform: one bounds check, one load, splat the
// value. A varying branch whose lanes disagree runs its sides in place
// when it is linear (linear, veclinear.go) and splits the group
// otherwise (diverge).
//
// Timing this function in isolation does not resolve +-10% on a shared
// 2-core box (a kernel with no scalarized instruction at all read
// +1.7%, +7% and +12% across three builds that never touched its
// path): judge a change to it by alternated end-to-end pairs of
// cpu_ms_per_op, or by in-process per-program kernel time
// (BenchmarkBuiltinKernel), not by exec.vec.ns_per_op. Its size matters
// too: below the compiler's "big function" threshold rdI and rdF inline
// into the arms as lanesI and lanesF do, and CI checks that they still
// do; the per-format helpers keep the lane loops out of it.
func (p *VecFunc) Run(f *VecFrame) (Status, error) {
	code := p.Code
	u := f.Frame
	ui, uf := u.I, u.F
	wd := int64(f.W)
	pc := f.PC
	var a0 uint64
	a1 := uint64(p.room) << roomShift
	for pc < len(code) {
		if pc == f.Stop {
			p.exit(u, a0, a1, pc)
			return joined, nil
		}
		if end := int(p.scalEnd[pc]); end > pc {
			if pc < f.Stop && f.Stop < end {
				end = f.Stop
			}
			var st Status
			var err error
			a0, a1, pc, st, err = p.run(u, code[:end], a0, a1, pc)
			if st != Halted || err != nil {
				p.exit(u, a0, a1, pc)
				return st, err
			}
			continue
		}
		in := &code[pc]
		su := p.srcU[pc]
		switch in.Op {
		case OpNop:
		case OpBar:
			// The whole lane group is resident and instruction-level
			// lockstep is stronger than barrier-level lockstep: every
			// pre-barrier store has retired before any lane proceeds.
			// (Divergent regions never contain a barrier — computeJoin
			// refuses them — so this arm never runs in a side frame.)
		case OpHalt:
			p.exit(u, a0, a1, pc)
			return Halted, nil

		// Constants and conversions, one opcode to a format.
		case OpLdcI:
			d := f.lanesI(in.A)
			for l := range d {
				d[l] = in.Imm
			}
		case OpLdcF:
			d := f.lanesF(in.A)
			v := p.FPool[in.Imm]
			for l := range d {
				d[l] = v
			}
		case OpI2F:
			f.aluFaIb(in, su, f.lanesF(in.A))
		case OpF2I:
			f.aluIaFb(in, su, f.lanesI(in.A))

		// The ALU formats: one helper each (vecalu.go), which reads a
		// uniform operand from its scalar slot.
		case OpMovI, OpSnzI, OpNegI, OpNotB, OpAbsI:
			f.aluIab(in, su, f.lanesI(in.A))
		case OpAddIImm, OpMulIImm, OpDivIImm, OpModIImm, OpShlIImm, OpShrIImm, OpAndIImm, OpOrIImm, OpXorIImm,
			OpLtIImm, OpLeIImm, OpGtIImm, OpGeIImm, OpEqIImm, OpNeIImm:
			f.aluIabImm(in, su, f.lanesI(in.A))
		case OpAddI, OpSubI, OpMulI, OpDivI, OpModI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI, OpMinI, OpMaxI,
			OpLtI, OpLeI, OpGtI, OpGeI, OpEqI, OpNeI:
			if !f.aluIabc(in, su, f.lanesI(in.A)) {
				return p.park(u, a0, a1, pc)
			}
		case OpLtF, OpLeF, OpGtF, OpGeF, OpEqF, OpNeF:
			f.aluIaFbc(in, su, f.lanesI(in.A))
		case OpMovF, OpNegF, OpSqrtF, OpRsqrtF, OpExpF, OpLogF, OpLog2F, OpSinF, OpCosF, OpTanF, OpAbsF, OpFloorF, OpCeilF:
			f.aluFab(in, su, f.lanesF(in.A))
		case OpAddF, OpSubF, OpMulF, OpDivF, OpPowF, OpMinF, OpMaxF, OpAddRsqrtF:
			f.aluFabc(in, su, f.lanesF(in.A))
		case OpFmaF, OpClampF, OpMulAddF, OpMulMulF:
			f.aluFabcImm(in, su, f.lanesF(in.A))
		case OpClampI, OpMulAddI:
			f.aluIabcImm(in, su, f.lanesI(in.A))
		case OpMulImmAddI:
			f.aluMulImmAdd(in, su, f.lanesI(in.A))

		// The one jump arm. laneCond decides a conditional jump for the
		// group (and steps addjcmp.i's counter: the fused counted-loop
		// back-edge, in a kernel like matmul the only instruction between
		// two vector dispatches, every iteration). A taken jump counts,
		// then pays the spill countdown and W steps of fuel, one for each
		// item, exactly as the scalar VM's jump arms do for one.
		case OpJmp, OpJZBr, OpJZLog, OpJNZLog, OpJCmpI, OpJCmpIImm, OpJCmpF, OpIncJCmpI:
			if in.Op != OpJmp {
				taken, agree := p.laneCond(f, pc)
				if !agree {
					if lin := p.lin[pc]; lin != nil {
						// The sides run in place, unless an active lane
						// would fault there: then the group splits.
						ok, err := p.linear(f, lin)
						if err != nil {
							p.exit(u, a0, a1, pc)
							return Halted, err
						}
						if ok {
							a0 += laneK[in.Op][0]
							a1 += laneK[in.Op][1]
							pc = lin.join
							continue
						}
					}
					st, err := p.diverge(f, &a0, &a1, pc)
					if st != joined || err != nil {
						return st, err
					}
					pc = f.PC
					continue
				}
				if !taken {
					break
				}
			}
			a0 += laneK[in.Op][0]
			a1 += laneK[in.Op][1]
			a1 -= roomOne
			if a1 < roomOne {
				u.Cnt.addPacked(a0, a1)
				a0, a1 = 0, uint64(p.room)<<roomShift
			}
			if err := u.spend(wd); err != nil {
				p.exit(u, a0, a1, pc)
				return Halted, err
			}
			pc, _ = jumpTarget(in, pc)
			continue

		case OpWI:
			copy(f.lanesI(in.A), f.wiRow(in.B, int64(in.C), 0))
		case OpWIDyn:
			if su&srcUC != 0 {
				dim := ui[in.C&f.mi]
				if uint64(dim) > 2 {
					return p.park(u, a0, a1, pc)
				}
				copy(f.lanesI(in.A), f.wiRow(in.B, dim, 0))
			} else {
				d := f.lanesI(in.A)
				dim := f.lanesI(in.C)[:len(d)]
				for l := range dim {
					if uint64(dim[l]) > 2 {
						return p.park(u, a0, a1, pc)
					}
				}
				q := [3][]int64{f.wiRow(in.B, 0, 0), f.wiRow(in.B, 1, 1), f.wiRow(in.B, 2, 2)}
				for l := range d {
					d[l] = q[dim[l]][l]
				}
			}

		// Loads and stores: the opcode picks the buffer table and the
		// element type, vecLoad/vecStore do the rest.
		case OpLdGF, OpLdGI, OpLdLF, OpLdLI:
			b := &u.memSpace(in.Op)[in.B]
			var ok bool
			if in.Op == OpLdGF || in.Op == OpLdLF {
				ok = vecLoad(f, f.lanesF(in.A), b.F, in.C, su&srcUC != 0)
			} else {
				ok = vecLoad(f, f.lanesI(in.A), b.I, in.C, su&srcUC != 0)
			}
			if !ok {
				return p.park(u, a0, a1, pc)
			}
		case OpStGF, OpStGI, OpStLF, OpStLI:
			b := &u.memSpace(in.Op)[in.B]
			ix := f.rdI(in.C, su&srcUC != 0, 0)
			var ok bool
			if in.Op == OpStGF || in.Op == OpStLF {
				ok = vecStore(b.F, ix, f.rdF(in.A, su&srcUB != 0, 0))
			} else {
				ok = vecStore(b.I, ix, f.rdI(in.A, su&srcUB != 0, 1))
			}
			if !ok {
				return p.park(u, a0, a1, pc)
			}

		// F[A] <- F[B] op load(global slot, I[C]); macld.f accumulates
		// into F[A].
		case OpAddFLdG, OpMulFLdG, OpSubFLdG, OpLdSubFG, OpMulAccLdG:
			slot, _ := unpackMem(in.Imm)
			bf := u.Globals[slot].F
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			if su&srcUC != 0 {
				// Uniform address — the matvec inner product, where every
				// lane multiplies its own row element by the same vector
				// element: one bounds check and one load for the group.
				i := ui[in.C&f.mi]
				if uint64(i) >= uint64(len(bf)) {
					return p.park(u, a0, a1, pc)
				}
				mv := float64(bf[i])
				switch in.Op {
				case OpAddFLdG:
					for l := range d {
						d[l] = b[l] + mv
					}
				case OpMulFLdG:
					for l := range d {
						d[l] = b[l] * mv
					}
				case OpSubFLdG:
					for l := range d {
						d[l] = b[l] - mv
					}
				case OpLdSubFG:
					for l := range d {
						d[l] = mv - b[l]
					}
				case OpMulAccLdG:
					for l := range d {
						d[l] = d[l] + float64(b[l]*mv)
					}
				}
				break
			}
			ix := f.lanesI(in.C)[:len(d)]
			if !inBounds(ix, len(bf)) {
				return p.park(u, a0, a1, pc)
			}
			switch in.Op {
			case OpAddFLdG:
				for l := range d {
					d[l] = b[l] + float64(bf[ix[l]])
				}
			case OpMulFLdG:
				for l := range d {
					d[l] = b[l] * float64(bf[ix[l]])
				}
			case OpSubFLdG:
				for l := range d {
					d[l] = b[l] - float64(bf[ix[l]])
				}
			case OpLdSubFG:
				for l := range d {
					d[l] = float64(bf[ix[l]]) - b[l]
				}
			case OpMulAccLdG:
				for l := range d {
					d[l] = d[l] + float64(b[l]*float64(bf[ix[l]]))
				}
			}

		case OpLdGFIdx:
			slot, _, r3 := unpackMemIdx(in.Imm)
			bf := u.Globals[slot].F
			const uniCX = srcUC | srcUX
			if su&uniCX == uniCX && su&srcUB == 0 {
				// row*stride+off with uniform stride and offset (the
				// matvec/matmul A-operand shape): hoist both scalars and
				// stream the varying row lanes — no scratch splats. The
				// int sources cannot alias the float dest, so compute,
				// check, and gather in one pass; dest lanes written
				// before a would-fault park are rewritten by the scalar
				// rerun of this very instruction.
				cs, rs := ui[in.C&f.mi], ui[r3&f.mi]
				b := f.lanesI(in.B)
				d := f.lanesF(in.A)[:len(b)]
				for l := range b {
					v := b[l]*cs + rs
					if uint64(v) >= uint64(len(bf)) {
						return p.park(u, a0, a1, pc)
					}
					d[l] = float64(bf[v])
				}
			} else {
				b := f.rdI(in.B, su&srcUB != 0, 0)
				c := f.rdI(in.C, su&srcUC != 0, 1)[:len(b)]
				r := f.rdI(r3, su&srcUX != 0, 2)[:len(b)]
				d := f.lanesF(in.A)[:len(b)]
				for l := range b {
					v := b[l]*c[l] + r[l]
					if uint64(v) >= uint64(len(bf)) {
						return p.park(u, a0, a1, pc)
					}
					d[l] = float64(bf[v])
				}
			}
		case OpMacLdGIdx:
			slot, _, r2, r3 := unpackMacIdx(in.Imm)
			bf := u.Globals[slot].F
			n := uint64(len(bf))
			const uniIdx = srcUC | srcUX2 | srcUX
			if su&uniIdx == uniIdx {
				// The matmul inner product: the B-matrix address
				// k*n + j is fully uniform when each lane owns a row —
				// one bounds check and one load feed all W multiply-adds.
				v := ui[in.C&f.mi]*ui[r2&f.mi] + ui[r3&f.mi]
				if uint64(v) >= n {
					return p.park(u, a0, a1, pc)
				}
				d := f.lanesF(in.A)
				b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
				mv := float64(bf[v])
				for l := range d {
					d[l] = d[l] + float64(b[l]*mv)
				}
			} else if su&(srcUC|srcUX2) == srcUC|srcUX2 {
				// k*stride uniform, the lane offset varying (the matmul
				// B-operand shape k*n+col): one scalar base, stream the
				// varying offset lanes. The MAC dest is read-modify-write,
				// so every lane must pass its bounds check before any dest
				// lane is written (a park after a partial MAC would
				// double-accumulate on the scalar rerun): gather into the
				// broadcast scratch (no splat uses it on this path) so the
				// bounds checks double as the fault checks, then commit
				// into the dest only once every lane has passed.
				base := ui[in.C&f.mi] * ui[r2&f.mi]
				r := f.lanesI(r3)
				t := f.bcF[:f.W][:len(r)]
				for l := range r {
					v := base + r[l]
					if uint64(v) >= uint64(len(bf)) {
						return p.park(u, a0, a1, pc)
					}
					t[l] = float64(bf[v])
				}
				d := f.lanesF(in.A)[:len(r)]
				if su&srcUB != 0 {
					bv := uf[in.B&f.mf]
					for l := range d {
						d[l] = d[l] + bv*t[l]
					}
				} else {
					b := f.lanesF(in.B)[:len(d)]
					for l := range d {
						d[l] = d[l] + b[l]*t[l]
					}
				}
			} else {
				var idx []int64
				const uniStride = srcUX2 | srcUX
				if su&uniStride == uniStride {
					// row varying, stride and offset uniform
					// (row*n+k): hoist the two scalars.
					s2, s3 := ui[r2&f.mi], ui[r3&f.mi]
					c := f.lanesI(in.C)
					idx = f.idx[:len(c)]
					for l := range c {
						v := c[l]*s2 + s3
						if uint64(v) >= n {
							return p.park(u, a0, a1, pc)
						}
						idx[l] = v
					}
				} else {
					c := f.rdI(in.C, su&srcUC != 0, 0)
					i2 := f.rdI(r2, su&srcUX2 != 0, 1)[:len(c)]
					i3 := f.rdI(r3, su&srcUX != 0, 2)[:len(c)]
					idx = f.idx[:len(c)]
					for l := range c {
						v := c[l]*i2[l] + i3[l]
						if uint64(v) >= n {
							return p.park(u, a0, a1, pc)
						}
						idx[l] = v
					}
				}
				d := f.lanesF(in.A)
				idx = idx[:len(d)]
				if su&srcUB != 0 {
					bv := uf[in.B&f.mf]
					for l := range d {
						d[l] = d[l] + float64(bv*float64(bf[idx[l]]))
					}
				} else {
					b := f.lanesF(in.B)[:len(d)]
					for l := range d {
						d[l] = d[l] + float64(b[l]*float64(bf[idx[l]]))
					}
				}
			}

		default:
			p.exit(u, a0, a1, pc)
			return Halted, fmt.Errorf("exec: vm: illegal opcode %d at pc %d", in.Op, pc)
		}
		a0 += laneK[in.Op][0]
		a1 += laneK[in.Op][1]
		pc++
	}
	p.exit(u, a0, a1, pc)
	return Halted, nil
}

// memSpace returns the buffer table a load or store opcode addresses.
func (f *Frame) memSpace(op Opcode) []Buf {
	switch op {
	case OpLdLF, OpLdLI, OpStLF, OpStLI:
		return f.Locals
	}
	return f.Globals
}

// inBounds reports whether every index addresses a buffer of n elements.
func inBounds(ix []int64, n int) bool {
	for _, i := range ix {
		if uint64(i) >= uint64(n) {
			return false
		}
	}
	return true
}

// vecLoad sets d[l] = buf[I[c] of lane l] for every lane, or reports
// false with nothing written when some lane's index is out of bounds.
func vecLoad[E float32 | int32, R float64 | int64](f *VecFrame, d []R, buf []E, c int32, uniform bool) bool {
	if uniform {
		// Uniform address: one bounds check, one load, splat.
		i := f.Frame.I[c&f.mi]
		if uint64(i) >= uint64(len(buf)) {
			return false
		}
		v := R(buf[i])
		for l := range d {
			d[l] = v
		}
		return true
	}
	ix := f.lanesI(c)[:len(d)]
	if !inBounds(ix, len(buf)) {
		return false
	}
	for l := range d {
		d[l] = R(buf[ix[l]])
	}
	return true
}

// vecStore sets buf[ix[l]] = src[l] in ascending lane order, or reports
// false with nothing written when some lane's index is out of bounds.
func vecStore[E float32 | int32, R float64 | int64](buf []E, ix []int64, src []R) bool {
	if !inBounds(ix, len(buf)) {
		return false
	}
	src = src[:len(ix)]
	for l := range ix {
		buf[ix[l]] = E(src[l])
	}
	return true
}
