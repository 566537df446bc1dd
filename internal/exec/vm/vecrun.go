package vm

import (
	"fmt"
	"math"
)

// Diverged reports that a vector Run stopped because the group's lanes
// disagreed at a varying branch with no safe join point, or some lane
// would have faulted (out-of-bounds access, division by zero, bad
// work-item dimension). Unless the frame says otherwise (PCLaned), the
// PC is parked at the offending instruction, which has neither
// executed nor counted; the caller completes each lane on the scalar
// VM, which reproduces the canonical per-item behavior (including the
// exact fault message, if any). Lane disagreements at branches WITH a
// recorded join point are handled internally: the sides run as
// compacted sub-groups and the group re-forms (see diverge).
const Diverged Status = 2

// Run executes all W lanes of the frame from its saved PC until the
// kernel halts, the group diverges irreducibly (see Diverged), the
// frame's Stop PC — the join point of a divergence split — is reached,
// or the step budget is exhausted. Every arm mirrors the scalar VM arm
// exactly — same float expression shapes (so rounding is
// bit-identical), same counter constants — but loops over lanes inside
// the single dispatch. Memory and fault-checked arms run two passes
// (scan every lane's index, then execute) so a bail-out leaves the
// frame exactly at pre-instruction state.
//
// Scalarization: a straight-line span of instructions with uniform
// destinations goes to the scalar interpreter (Func.run) over the
// frame's uniform half, cut off at the span's end or the join point,
// whichever comes first, with the accumulators and the PC handed over
// and back as values. Conditional jumps never sit in a span: one with
// a uniform condition is decided here by laneCond from the scalar
// slots, so fuel (W per taken jump) and the spill countdown are charged
// in one place. Vector arms read uniform operands through rdI/rdF,
// which broadcast the scalar slot into scratch lanes on demand — the
// lane storage of a uniform register holds garbage and is never read
// directly. The hottest memory arms skip the broadcast entirely when
// the address is uniform: one bounds check, one load, splat the value.
//
// Timing this function in isolation does not resolve +-10% on a shared
// 2-core box (a kernel with no scalarized instruction at all read
// +1.7%, +7% and +12% across three builds that never touched its
// path): judge a change to it by alternated end-to-end pairs of
// cpu_ms_per_op, not by exec.vec.ns_per_op.
func (p *VecFunc) Run(f *VecFrame) (Status, error) {
	code := p.Code
	u := f.Frame
	ui, uf := u.I, u.F
	w := f.W
	wd := int64(w)
	pc := f.PC
	var a0 uint64
	a1 := uint64(p.room) << roomShift
dispatch:
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
		case OpHalt:
			p.exit(u, a0, a1, pc)
			return Halted, nil

		case OpMovI:
			copy(f.lanesI(in.A), f.rdI(in.B, su&srcUB != 0, 0))
		case OpMovF:
			copy(f.lanesF(in.A), f.rdF(in.B, su&srcUB != 0, 0))
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
			d := f.lanesF(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = float64(b[l])
			}
		case OpF2I:
			d := f.lanesI(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = int64(b[l])
			}
		case OpSnzI:
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] != 0)
			}

		case OpAddI:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdI(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b[l] + c[l]
			}
		case OpSubI:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdI(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b[l] - c[l]
			}
		case OpMulI:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdI(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b[l] * c[l]
			}
		case OpDivI:
			c := f.rdI(in.C, su&srcUC != 0, 1)
			for l := range c {
				if c[l] == 0 {
					p.exit(u, a0, a1, pc)
					return Diverged, nil
				}
			}
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			c = c[:len(d)]
			for l := range d {
				d[l] = b[l] / c[l]
			}
		case OpModI:
			c := f.rdI(in.C, su&srcUC != 0, 1)
			for l := range c {
				if c[l] == 0 {
					p.exit(u, a0, a1, pc)
					return Diverged, nil
				}
			}
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			c = c[:len(d)]
			for l := range d {
				d[l] = b[l] % c[l]
			}
		case OpAndI:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdI(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b[l] & c[l]
			}
		case OpOrI:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdI(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b[l] | c[l]
			}
		case OpXorI:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdI(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b[l] ^ c[l]
			}
		case OpShlI:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdI(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b[l] << uint(c[l]&63)
			}
		case OpShrI:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdI(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b[l] >> uint(c[l]&63)
			}
		case OpNegI:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = -b[l]
			}
		case OpNotB:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] == 0)
			}

		case OpAddIImm:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = b[l] + in.Imm
			}
		case OpMulIImm:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = b[l] * in.Imm
			}
		case OpDivIImm:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = b[l] / in.Imm
			}
		case OpModIImm:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = b[l] % in.Imm
			}
		case OpShlIImm:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = b[l] << uint(in.Imm&63)
			}
		case OpShrIImm:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = b[l] >> uint(in.Imm&63)
			}
		case OpAndIImm:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = b[l] & in.Imm
			}
		case OpOrIImm:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = b[l] | in.Imm
			}
		case OpXorIImm:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = b[l] ^ in.Imm
			}

		case OpLtI:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdI(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] < c[l])
			}
		case OpLeI:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdI(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] <= c[l])
			}
		case OpGtI:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdI(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] > c[l])
			}
		case OpGeI:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdI(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] >= c[l])
			}
		case OpEqI:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdI(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] == c[l])
			}
		case OpNeI:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdI(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] != c[l])
			}

		case OpLtIImm:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] < in.Imm)
			}
		case OpLeIImm:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] <= in.Imm)
			}
		case OpGtIImm:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] > in.Imm)
			}
		case OpGeIImm:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] >= in.Imm)
			}
		case OpEqIImm:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] == in.Imm)
			}
		case OpNeIImm:
			a0 += lIntOp
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] != in.Imm)
			}

		case OpAddF:
			a0 += lFloatOp
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdF(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b[l] + c[l]
			}
		case OpSubF:
			a0 += lFloatOp
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdF(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b[l] - c[l]
			}
		case OpMulF:
			a0 += lFloatOp
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdF(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b[l] * c[l]
			}
		case OpDivF:
			a0 += lFloatOp
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdF(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b[l] / c[l]
			}
		case OpNegF:
			a0 += lFloatOp
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = -b[l]
			}

		case OpLtF:
			a0 += lFloatOp
			d := f.lanesI(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdF(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] < c[l])
			}
		case OpLeF:
			a0 += lFloatOp
			d := f.lanesI(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdF(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] <= c[l])
			}
		case OpGtF:
			a0 += lFloatOp
			d := f.lanesI(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdF(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] > c[l])
			}
		case OpGeF:
			a0 += lFloatOp
			d := f.lanesI(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdF(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] >= c[l])
			}
		case OpEqF:
			a0 += lFloatOp
			d := f.lanesI(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdF(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] == c[l])
			}
		case OpNeF:
			a0 += lFloatOp
			d := f.lanesI(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdF(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = b2i(b[l] != c[l])
			}

		case OpJmp:
			a1 -= roomOne
			if a1 < roomOne {
				u.Cnt.addPacked(a0, a1)
				a0, a1 = 0, uint64(p.room)<<roomShift
			}
			if err := u.spend(wd); err != nil {
				p.exit(u, a0, a1, pc)
				return Halted, err
			}
			pc = int(in.Imm)
			continue
		case OpJZBr:
			taken, agree := p.laneCond(f, pc)
			if !agree {
				st, err := p.diverge(f, &a0, &a1, pc)
				if st != joined || err != nil {
					return st, err
				}
				pc = f.PC
				continue dispatch
			}
			a1 += lBranch
			if taken {
				a1 -= roomOne
				if a1 < roomOne {
					u.Cnt.addPacked(a0, a1)
					a0, a1 = 0, uint64(p.room)<<roomShift
				}
				if err := u.spend(wd); err != nil {
					p.exit(u, a0, a1, pc)
					return Halted, err
				}
				pc = int(in.Imm)
				continue
			}
		case OpJZLog:
			taken, agree := p.laneCond(f, pc)
			if !agree {
				st, err := p.diverge(f, &a0, &a1, pc)
				if st != joined || err != nil {
					return st, err
				}
				pc = f.PC
				continue dispatch
			}
			a0 += lIntOp
			if taken {
				a1 -= roomOne
				if a1 < roomOne {
					u.Cnt.addPacked(a0, a1)
					a0, a1 = 0, uint64(p.room)<<roomShift
				}
				if err := u.spend(wd); err != nil {
					p.exit(u, a0, a1, pc)
					return Halted, err
				}
				pc = int(in.Imm)
				continue
			}
		case OpJNZLog:
			taken, agree := p.laneCond(f, pc)
			if !agree {
				st, err := p.diverge(f, &a0, &a1, pc)
				if st != joined || err != nil {
					return st, err
				}
				pc = f.PC
				continue dispatch
			}
			a0 += lIntOp
			if taken {
				a1 -= roomOne
				if a1 < roomOne {
					u.Cnt.addPacked(a0, a1)
					a0, a1 = 0, uint64(p.room)<<roomShift
				}
				if err := u.spend(wd); err != nil {
					p.exit(u, a0, a1, pc)
					return Halted, err
				}
				pc = int(in.Imm)
				continue
			}

		case OpWI:
			a0 += lIntOp
			copy(f.lanesI(in.A), f.wiRow(in.B, int64(in.C), 0))
		case OpWIDyn:
			if su&srcUC != 0 {
				dim := ui[in.C&f.mi]
				if uint64(dim) > 2 {
					p.exit(u, a0, a1, pc)
					return Diverged, nil
				}
				a0 += lIntOp
				copy(f.lanesI(in.A), f.wiRow(in.B, dim, 0))
			} else {
				dim := f.lanesI(in.C)
				for l := range dim {
					if uint64(dim[l]) > 2 {
						p.exit(u, a0, a1, pc)
						return Diverged, nil
					}
				}
				a0 += lIntOp
				d := f.lanesI(in.A)
				dim = dim[:len(d)]
				q := [3][]int64{f.wiRow(in.B, 0, 0), f.wiRow(in.B, 1, 1), f.wiRow(in.B, 2, 2)}
				for l := range d {
					d[l] = q[dim[l]][l]
				}
			}

		case OpLdGF:
			b := &u.Globals[in.B]
			n := uint64(len(b.F))
			if su&srcUC != 0 {
				// Uniform address: one bounds check, one load, splat.
				i := ui[in.C&f.mi]
				if uint64(i) >= n {
					p.exit(u, a0, a1, pc)
					return Diverged, nil
				}
				a0 += lGLoad
				d := f.lanesF(in.A)
				v := float64(b.F[i])
				for l := range d {
					d[l] = v
				}
			} else {
				ix := f.lanesI(in.C)
				for l := range ix {
					if uint64(ix[l]) >= n {
						p.exit(u, a0, a1, pc)
						return Diverged, nil
					}
				}
				a0 += lGLoad
				d := f.lanesF(in.A)
				ix = ix[:len(d)]
				bf := b.F
				for l := range d {
					d[l] = float64(bf[ix[l]])
				}
			}
		case OpLdGI:
			b := &u.Globals[in.B]
			n := uint64(len(b.I))
			if su&srcUC != 0 {
				i := ui[in.C&f.mi]
				if uint64(i) >= n {
					p.exit(u, a0, a1, pc)
					return Diverged, nil
				}
				a0 += lGLoad
				d := f.lanesI(in.A)
				v := int64(b.I[i])
				for l := range d {
					d[l] = v
				}
			} else {
				ix := f.lanesI(in.C)
				for l := range ix {
					if uint64(ix[l]) >= n {
						p.exit(u, a0, a1, pc)
						return Diverged, nil
					}
				}
				a0 += lGLoad
				d := f.lanesI(in.A)
				ix = ix[:len(d)]
				bi := b.I
				for l := range d {
					d[l] = int64(bi[ix[l]])
				}
			}
		case OpLdLF:
			b := &u.Locals[in.B]
			n := uint64(len(b.F))
			if su&srcUC != 0 {
				i := ui[in.C&f.mi]
				if uint64(i) >= n {
					p.exit(u, a0, a1, pc)
					return Diverged, nil
				}
				a1 += lLocalOp
				d := f.lanesF(in.A)
				v := float64(b.F[i])
				for l := range d {
					d[l] = v
				}
			} else {
				ix := f.lanesI(in.C)
				for l := range ix {
					if uint64(ix[l]) >= n {
						p.exit(u, a0, a1, pc)
						return Diverged, nil
					}
				}
				a1 += lLocalOp
				d := f.lanesF(in.A)
				ix = ix[:len(d)]
				bf := b.F
				for l := range d {
					d[l] = float64(bf[ix[l]])
				}
			}
		case OpLdLI:
			b := &u.Locals[in.B]
			n := uint64(len(b.I))
			if su&srcUC != 0 {
				i := ui[in.C&f.mi]
				if uint64(i) >= n {
					p.exit(u, a0, a1, pc)
					return Diverged, nil
				}
				a1 += lLocalOp
				d := f.lanesI(in.A)
				v := int64(b.I[i])
				for l := range d {
					d[l] = v
				}
			} else {
				ix := f.lanesI(in.C)
				for l := range ix {
					if uint64(ix[l]) >= n {
						p.exit(u, a0, a1, pc)
						return Diverged, nil
					}
				}
				a1 += lLocalOp
				d := f.lanesI(in.A)
				ix = ix[:len(d)]
				bi := b.I
				for l := range d {
					d[l] = int64(bi[ix[l]])
				}
			}

		case OpStGF:
			b := &u.Globals[in.B]
			ix := f.rdI(in.C, su&srcUC != 0, 0)
			n := uint64(len(b.F))
			for l := range ix {
				if uint64(ix[l]) >= n {
					p.exit(u, a0, a1, pc)
					return Diverged, nil
				}
			}
			a1 += lGStore
			src := f.rdF(in.A, su&srcUB != 0, 0)[:len(ix)]
			bf := b.F
			for l := range ix {
				bf[ix[l]] = float32(src[l])
			}
		case OpStGI:
			b := &u.Globals[in.B]
			ix := f.rdI(in.C, su&srcUC != 0, 0)
			n := uint64(len(b.I))
			for l := range ix {
				if uint64(ix[l]) >= n {
					p.exit(u, a0, a1, pc)
					return Diverged, nil
				}
			}
			a1 += lGStore
			src := f.rdI(in.A, su&srcUB != 0, 1)[:len(ix)]
			bi := b.I
			for l := range ix {
				bi[ix[l]] = int32(src[l])
			}
		case OpStLF:
			b := &u.Locals[in.B]
			ix := f.rdI(in.C, su&srcUC != 0, 0)
			n := uint64(len(b.F))
			for l := range ix {
				if uint64(ix[l]) >= n {
					p.exit(u, a0, a1, pc)
					return Diverged, nil
				}
			}
			a1 += lLocalOp
			src := f.rdF(in.A, su&srcUB != 0, 0)[:len(ix)]
			bf := b.F
			for l := range ix {
				bf[ix[l]] = float32(src[l])
			}
		case OpStLI:
			b := &u.Locals[in.B]
			ix := f.rdI(in.C, su&srcUC != 0, 0)
			n := uint64(len(b.I))
			for l := range ix {
				if uint64(ix[l]) >= n {
					p.exit(u, a0, a1, pc)
					return Diverged, nil
				}
			}
			a1 += lLocalOp
			src := f.rdI(in.A, su&srcUB != 0, 1)[:len(ix)]
			bi := b.I
			for l := range ix {
				bi[ix[l]] = int32(src[l])
			}

		case OpSqrtF:
			a0 += lTransOp
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = math.Sqrt(b[l])
			}
		case OpRsqrtF:
			a0 += lTransOp
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = 1 / math.Sqrt(b[l])
			}
		case OpExpF:
			a0 += lTransOp
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = math.Exp(b[l])
			}
		case OpLogF:
			a0 += lTransOp
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = math.Log(b[l])
			}
		case OpLog2F:
			a0 += lTransOp
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = math.Log2(b[l])
			}
		case OpSinF:
			a0 += lTransOp
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = math.Sin(b[l])
			}
		case OpCosF:
			a0 += lTransOp
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = math.Cos(b[l])
			}
		case OpTanF:
			a0 += lTransOp
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = math.Tan(b[l])
			}
		case OpPowF:
			a0 += lTransOp
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdF(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = math.Pow(b[l], c[l])
			}
		case OpAbsF:
			a0 += lOtherB
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = math.Abs(b[l])
			}
		case OpFloorF:
			a0 += lOtherB
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = math.Floor(b[l])
			}
		case OpCeilF:
			a0 += lOtherB
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				d[l] = math.Ceil(b[l])
			}
		case OpMinF:
			a0 += lOtherB
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdF(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = math.Min(b[l], c[l])
			}
		case OpMaxF:
			a0 += lOtherB
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdF(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = math.Max(b[l], c[l])
			}
		case OpFmaF:
			a0 += lOtherB
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdF(in.C, su&srcUC != 0, 1)[:len(d)]
			m := f.rdF(int32(in.Imm), su&srcUX != 0, 2)[:len(d)]
			for l := range d {
				d[l] = b[l]*c[l] + m[l]
			}
		case OpClampF:
			a0 += lOtherB
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdF(in.C, su&srcUC != 0, 1)[:len(d)]
			m := f.rdF(int32(in.Imm), su&srcUX != 0, 2)[:len(d)]
			for l := range d {
				d[l] = math.Max(c[l], math.Min(b[l], m[l]))
			}

		case OpMinI:
			a0 += lOtherB
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdI(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = min(b[l], c[l])
			}
		case OpMaxI:
			a0 += lOtherB
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdI(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = max(b[l], c[l])
			}
		case OpAbsI:
			a0 += lOtherB
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			for l := range d {
				v := b[l]
				if v < 0 {
					v = -v
				}
				d[l] = v
			}
		case OpClampI:
			a0 += lOtherB
			d := f.lanesI(in.A)
			b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdI(in.C, su&srcUC != 0, 1)[:len(d)]
			m := f.rdI(int32(in.Imm), su&srcUX != 0, 2)[:len(d)]
			for l := range d {
				d[l] = max(c[l], min(b[l], m[l]))
			}

		case OpBar:
			// The whole lane group is resident and instruction-level
			// lockstep is stronger than barrier-level lockstep: every
			// pre-barrier store has retired before any lane proceeds.
			// (Divergent regions never contain a barrier — computeJoin
			// refuses them — so this arm never runs in a side frame.)
			a1 += lBarrier

		case OpMulAddI:
			a0 += 2 * lIntOp
			d := f.lanesI(in.A)
			if su&(srcUC|srcUX) == srcUC|srcUX && su&srcUB == 0 {
				// The hot address shape: varying base times uniform
				// stride plus uniform offset, one multiply-add per lane
				// with no broadcast traffic.
				b := f.lanesI(in.B)[:len(d)]
				cv := ui[in.C&f.mi]
				xv := ui[int32(in.Imm)&f.mi]
				for l := range d {
					d[l] = b[l]*cv + xv
				}
			} else {
				b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
				c := f.rdI(in.C, su&srcUC != 0, 1)[:len(d)]
				m := f.rdI(int32(in.Imm), su&srcUX != 0, 2)[:len(d)]
				for l := range d {
					d[l] = b[l]*c[l] + m[l]
				}
			}
		case OpMulImmAddI:
			a0 += 2 * lIntOp
			d := f.lanesI(in.A)
			if su&srcUC != 0 && su&srcUB == 0 {
				b := f.lanesI(in.B)[:len(d)]
				cv := ui[in.C&f.mi]
				for l := range d {
					d[l] = b[l]*in.Imm + cv
				}
			} else {
				b := f.rdI(in.B, su&srcUB != 0, 0)[:len(d)]
				c := f.rdI(in.C, su&srcUC != 0, 1)[:len(d)]
				for l := range d {
					d[l] = b[l]*in.Imm + c[l]
				}
			}
		case OpMulAddF:
			a0 += 2 * lFloatOp
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdF(in.C, su&srcUC != 0, 1)[:len(d)]
			m := f.rdF(int32(in.Imm), su&srcUX != 0, 2)[:len(d)]
			for l := range d {
				// Explicit conversion as in the scalar arm: the product
				// rounds separately, never contracted into an FMA.
				d[l] = float64(b[l]*c[l]) + m[l]
			}
		case OpAddFLdG:
			slot, _ := unpackMem(in.Imm)
			bb := &u.Globals[slot]
			n := uint64(len(bb.F))
			if su&srcUC != 0 {
				i := ui[in.C&f.mi]
				if uint64(i) >= n {
					p.exit(u, a0, a1, pc)
					return Diverged, nil
				}
				a0 += lFloatOp + lGLoad
				d := f.lanesF(in.A)
				b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
				mv := float64(bb.F[i])
				for l := range d {
					d[l] = b[l] + mv
				}
			} else {
				ix := f.lanesI(in.C)
				for l := range ix {
					if uint64(ix[l]) >= n {
						p.exit(u, a0, a1, pc)
						return Diverged, nil
					}
				}
				a0 += lFloatOp + lGLoad
				d := f.lanesF(in.A)
				b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
				ix = ix[:len(d)]
				bf := bb.F
				for l := range d {
					d[l] = b[l] + float64(bf[ix[l]])
				}
			}
		case OpMulFLdG:
			slot, _ := unpackMem(in.Imm)
			bb := &u.Globals[slot]
			n := uint64(len(bb.F))
			if su&srcUC != 0 {
				i := ui[in.C&f.mi]
				if uint64(i) >= n {
					p.exit(u, a0, a1, pc)
					return Diverged, nil
				}
				a0 += lFloatOp + lGLoad
				d := f.lanesF(in.A)
				b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
				mv := float64(bb.F[i])
				for l := range d {
					d[l] = b[l] * mv
				}
			} else {
				ix := f.lanesI(in.C)
				for l := range ix {
					if uint64(ix[l]) >= n {
						p.exit(u, a0, a1, pc)
						return Diverged, nil
					}
				}
				a0 += lFloatOp + lGLoad
				d := f.lanesF(in.A)
				b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
				ix = ix[:len(d)]
				bf := bb.F
				for l := range d {
					d[l] = b[l] * float64(bf[ix[l]])
				}
			}
		case OpSubFLdG:
			slot, _ := unpackMem(in.Imm)
			bb := &u.Globals[slot]
			n := uint64(len(bb.F))
			if su&srcUC != 0 {
				i := ui[in.C&f.mi]
				if uint64(i) >= n {
					p.exit(u, a0, a1, pc)
					return Diverged, nil
				}
				a0 += lFloatOp + lGLoad
				d := f.lanesF(in.A)
				b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
				mv := float64(bb.F[i])
				for l := range d {
					d[l] = b[l] - mv
				}
			} else {
				ix := f.lanesI(in.C)
				for l := range ix {
					if uint64(ix[l]) >= n {
						p.exit(u, a0, a1, pc)
						return Diverged, nil
					}
				}
				a0 += lFloatOp + lGLoad
				d := f.lanesF(in.A)
				b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
				ix = ix[:len(d)]
				bf := bb.F
				for l := range d {
					d[l] = b[l] - float64(bf[ix[l]])
				}
			}
		case OpLdSubFG:
			slot, _ := unpackMem(in.Imm)
			bb := &u.Globals[slot]
			n := uint64(len(bb.F))
			if su&srcUC != 0 {
				i := ui[in.C&f.mi]
				if uint64(i) >= n {
					p.exit(u, a0, a1, pc)
					return Diverged, nil
				}
				a0 += lFloatOp + lGLoad
				d := f.lanesF(in.A)
				b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
				mv := float64(bb.F[i])
				for l := range d {
					d[l] = mv - b[l]
				}
			} else {
				ix := f.lanesI(in.C)
				for l := range ix {
					if uint64(ix[l]) >= n {
						p.exit(u, a0, a1, pc)
						return Diverged, nil
					}
				}
				a0 += lFloatOp + lGLoad
				d := f.lanesF(in.A)
				b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
				ix = ix[:len(d)]
				bf := bb.F
				for l := range d {
					d[l] = float64(bf[ix[l]]) - b[l]
				}
			}
		case OpMulAccLdG:
			slot, _ := unpackMem(in.Imm)
			bb := &u.Globals[slot]
			n := uint64(len(bb.F))
			if su&srcUC != 0 {
				// The matvec inner product: every lane multiplies its own
				// row element by the same vector element — one load for
				// the whole group.
				i := ui[in.C&f.mi]
				if uint64(i) >= n {
					p.exit(u, a0, a1, pc)
					return Diverged, nil
				}
				a0 += 2*lFloatOp + lGLoad
				d := f.lanesF(in.A)
				b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
				mv := float64(bb.F[i])
				for l := range d {
					d[l] = d[l] + float64(b[l]*mv)
				}
			} else {
				ix := f.lanesI(in.C)
				for l := range ix {
					if uint64(ix[l]) >= n {
						p.exit(u, a0, a1, pc)
						return Diverged, nil
					}
				}
				a0 += 2*lFloatOp + lGLoad
				d := f.lanesF(in.A)
				b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
				ix = ix[:len(d)]
				bf := bb.F
				for l := range d {
					d[l] = d[l] + float64(b[l]*float64(bf[ix[l]]))
				}
			}
		case OpMulMulF:
			a0 += 2 * lFloatOp
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdF(in.C, su&srcUC != 0, 1)[:len(d)]
			m := f.rdF(int32(in.Imm), su&srcUX != 0, 2)[:len(d)]
			for l := range d {
				d[l] = float64(b[l]*c[l]) * m[l]
			}
		case OpAddRsqrtF:
			a0 += lFloatOp + lTransOp
			d := f.lanesF(in.A)
			b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
			c := f.rdF(in.C, su&srcUC != 0, 1)[:len(d)]
			for l := range d {
				d[l] = 1 / math.Sqrt(b[l]+c[l])
			}
		case OpLdGFIdx:
			slot, _, r3 := unpackMemIdx(in.Imm)
			bb := &u.Globals[slot]
			bf := bb.F
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
						p.exit(u, a0, a1, pc)
						return Diverged, nil
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
						p.exit(u, a0, a1, pc)
						return Diverged, nil
					}
					d[l] = float64(bf[v])
				}
			}
			a0 += 2*lIntOp + lGLoad
		case OpMacLdGIdx:
			slot, _, r2, r3 := unpackMacIdx(in.Imm)
			bb := &u.Globals[slot]
			n := uint64(len(bb.F))
			const uniIdx = srcUC | srcUX2 | srcUX
			if su&uniIdx == uniIdx {
				// The matmul inner product: the B-matrix address
				// k*n + j is fully uniform when each lane owns a row —
				// one bounds check and one load feed all W multiply-adds.
				v := ui[in.C&f.mi]*ui[r2&f.mi] + ui[r3&f.mi]
				if uint64(v) >= n {
					p.exit(u, a0, a1, pc)
					return Diverged, nil
				}
				a0 += 2*lIntOp + 2*lFloatOp + lGLoad
				d := f.lanesF(in.A)
				b := f.rdF(in.B, su&srcUB != 0, 0)[:len(d)]
				mv := float64(bb.F[v])
				for l := range d {
					d[l] = d[l] + float64(b[l]*mv)
				}
			} else if su&(srcUC|srcUX2) == srcUC|srcUX2 {
				// k*stride uniform, the lane offset varying (the matmul
				// B-operand shape k*n+col): one scalar base, stream the
				// varying offset lanes. The MAC dest is read-modify-write,
				// so every lane must pass its bounds check before any dest
				// lane is written (a park after a partial MAC would
				// double-accumulate on the scalar rerun) — check first,
				// then recompute the cheap add in the fused MAC loop.
				base := ui[in.C&f.mi] * ui[r2&f.mi]
				bf := bb.F
				r := f.lanesI(r3)
				// Gather into the broadcast scratch (no splat uses it on
				// this path) so the bounds checks double as the fault
				// checks, then commit into the read-modify-write dest
				// only once every lane has passed.
				t := f.bcF[:f.W][:len(r)]
				for l := range r {
					v := base + r[l]
					if uint64(v) >= uint64(len(bf)) {
						p.exit(u, a0, a1, pc)
						return Diverged, nil
					}
					t[l] = float64(bf[v])
				}
				a0 += 2*lIntOp + 2*lFloatOp + lGLoad
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
							p.exit(u, a0, a1, pc)
							return Diverged, nil
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
							p.exit(u, a0, a1, pc)
							return Diverged, nil
						}
						idx[l] = v
					}
				}
				a0 += 2*lIntOp + 2*lFloatOp + lGLoad
				d := f.lanesF(in.A)
				idx = idx[:len(d)]
				bf := bb.F
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

		case OpJCmpI:
			taken, agree := p.laneCond(f, pc)
			if !agree {
				st, err := p.diverge(f, &a0, &a1, pc)
				if st != joined || err != nil {
					return st, err
				}
				pc = f.PC
				continue dispatch
			}
			a0 += lIntOp
			a1 += lBranch
			if taken {
				a1 -= roomOne
				if a1 < roomOne {
					u.Cnt.addPacked(a0, a1)
					a0, a1 = 0, uint64(p.room)<<roomShift
				}
				if err := u.spend(wd); err != nil {
					p.exit(u, a0, a1, pc)
					return Halted, err
				}
				pc = int(in.Imm)
				continue
			}
		case OpJCmpIImm:
			taken, agree := p.laneCond(f, pc)
			if !agree {
				st, err := p.diverge(f, &a0, &a1, pc)
				if st != joined || err != nil {
					return st, err
				}
				pc = f.PC
				continue dispatch
			}
			a0 += lIntOp
			a1 += lBranch
			if taken {
				a1 -= roomOne
				if a1 < roomOne {
					u.Cnt.addPacked(a0, a1)
					a0, a1 = 0, uint64(p.room)<<roomShift
				}
				if err := u.spend(wd); err != nil {
					p.exit(u, a0, a1, pc)
					return Halted, err
				}
				pc = int(in.C)
				continue
			}
		case OpJCmpF:
			taken, agree := p.laneCond(f, pc)
			if !agree {
				st, err := p.diverge(f, &a0, &a1, pc)
				if st != joined || err != nil {
					return st, err
				}
				pc = f.PC
				continue dispatch
			}
			a0 += lFloatOp
			a1 += lBranch
			if taken {
				a1 -= roomOne
				if a1 < roomOne {
					u.Cnt.addPacked(a0, a1)
					a0, a1 = 0, uint64(p.room)<<roomShift
				}
				if err := u.spend(wd); err != nil {
					p.exit(u, a0, a1, pc)
					return Halted, err
				}
				pc = int(in.Imm)
				continue
			}
		case OpIncJCmpI:
			// The fused counted-loop back-edge — in a kernel like matmul
			// the only instruction between two vector dispatches, every
			// iteration. Vectorize guarantees a statically uniform
			// condition here (addjcmp.i is always a back-edge, and a
			// varying back-edge is refused), so counter, step and bound
			// live in the scalar slots: the one scalar-VM arm restated in
			// this switch.
			a0 += 2 * lIntOp
			a1 += lBranch
			v := ui[in.A&f.mi] + ui[in.B&f.mi]
			ui[in.A&f.mi] = v
			cc, target := unpackCcTarget(in.Imm)
			if ccHoldsI(cc, v, ui[in.C&f.mi]) {
				a1 -= roomOne
				if a1 < roomOne {
					u.Cnt.addPacked(a0, a1)
					a0, a1 = 0, uint64(p.room)<<roomShift
				}
				if err := u.spend(wd); err != nil {
					p.exit(u, a0, a1, pc)
					return Halted, err
				}
				pc = int(target)
				continue
			}

		default:
			p.exit(u, a0, a1, pc)
			return Halted, fmt.Errorf("exec: vm: illegal opcode %d at pc %d", in.Op, pc)
		}
		pc++
	}
	p.exit(u, a0, a1, pc)
	return Halted, nil
}
