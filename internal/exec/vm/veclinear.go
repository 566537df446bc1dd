package vm

// Partial linearization (Moll & Hack, "Partial Control-Flow
// Linearization", PLDI 2018): a varying branch whose sides are short
// and straight-line does not split the group when its lanes disagree.
// Both sides run in place, one after the other, under laneCond's mask:
// each instruction computes every lane into scratch lanes (an ALU
// instruction cannot fault; a load reads only for the side's lanes),
// and only the side's lanes take the result into the destination
// register, so a lane that did not take a side never sees its writes.
// Stores retire for the side's lanes only, in ascending lane order.
// Each lane's counts go into its laneCnt row, the taken lanes and the
// lanes of a side that ends in a jump pay one step of fuel each, and the
// group resumes full-width at the join: no side frame, no fill, no
// scatter, no nested dispatch loop. histogram's `if (v == b) c++`, which
// disagrees in every inner iteration, is the shape it is for.
//
// An active lane that would fault sends the group to the split after
// all (diverge), with the frame as laneCond left it: a region that can
// fault saved the registers its sides write and gets them back in full,
// counts and fuel are not charged yet, and a store the linear pass
// already retired is one the split retires again with the same value
// (see linearize's memory rule), so the bail state and the fault text
// are the split's.

// maxLinearSide caps the length of a linear side, its closing jump not
// counted. A side run in place costs every lane of the group, where a
// split runs it on the side's lanes only, so a long side that few lanes
// take is cheaper split. Measured in process with the tree-reduction
// step of reduction and dotprod, `if (lid < s) tmp[lid] += tmp[lid + s]`
// (five instructions, taken by 32, 16, ... 1 of 64 lanes): run in place
// it made those kernels 42-52% slower than splitting, while the one- to
// three-instruction sides of histogram, blackscholes, prefixsum, kmeans
// and mandelbrot ran 3-18% faster in place (see CHANGES.md).
const maxLinearSide = 4

// linearRegion is a linear branch: where its group re-forms, its two
// sides, side 0 the fall-through and side 1 the taken one (empty for a
// one-sided `if`), and whether a side can fault (mem: it loads or
// stores), in which case the sides save the registers they write first.
type linearRegion struct {
	join int
	mem  bool
	side [2]linearSide
}

// linearSide is the straight-line code [start, end) one side runs,
// whether it closes with a jump to the join (each of its lanes then
// spends one step), the varying registers it writes, and its static
// counts per lane in laneCnt row order.
type linearSide struct {
	start, end int
	jmp        bool
	wrI, wrF   []int32
	cnt        [NCountFields]int64
}

// linearize decides whether the varying branch at pc, which has a join,
// is linear, and describes it if so. Its sides must be straight-line
// code between the branch and the join — a one-sided `if`, or an
// if/else whose fall-through side ends in a jump to the join — with at
// most maxLinearSide instructions each, none of them scalarized (a
// write to a uniform register, or a uniform store), and none that can
// fault other than a load or store, which a mask confines to the active
// lanes. Memory rule: when the sides hold a load, they hold at
// most one store, and it is their last memory instruction (side 0's
// before side 1's), so a fault that sends the group to the split comes
// before any store; sides without a load may store freely, since
// retiring the same stores again changes nothing.
func (vf *VecFunc) linearize(pc int) *linearRegion {
	p := vf.Func
	j := vf.joinPC[pc]
	target, _ := condJumpTarget(&p.Code[pc], pc)
	if j < 0 || j >= len(p.Code) || target <= pc+1 || target > j {
		return nil
	}
	lin := &linearRegion{join: j}
	lin.side[0] = linearSide{start: pc + 1, end: target}
	lin.side[1] = linearSide{start: target, end: j}
	if target != j {
		// An if/else: the fall-through side must jump over the other.
		if last := &p.Code[target-1]; last.Op != OpJmp || int(last.Imm) != j {
			return nil
		}
	}
	loads, stores, storeLast := 0, 0, false
	for s := range lin.side {
		sd := &lin.side[s]
		if sd.end > sd.start {
			if last := &p.Code[sd.end-1]; last.Op == OpJmp && int(last.Imm) == j {
				sd.jmp = true
				sd.end--
				c := staticCounts(OpJmp)
				sd.cnt = c.fields()
			}
		}
		if sd.end-sd.start > maxLinearSide {
			return nil
		}
		for i := sd.start; i < sd.end; i++ {
			in := &p.Code[i]
			if vf.scal[i] || !linearOp(in.Op) {
				return nil
			}
			switch {
			case isStore(in.Op):
				stores++
				storeLast = true
			case isLoad(in.Op):
				loads++
				storeLast = false
			}
			if isF, r, ok := destReg(in); ok {
				if isF {
					sd.wrF = appendNew(sd.wrF, r)
				} else {
					sd.wrI = appendNew(sd.wrI, r)
				}
			}
			c := staticCounts(in.Op)
			for fi, n := range c.fields() {
				sd.cnt[fi] += n
			}
		}
	}
	if loads > 0 && (stores > 1 || stores == 1 && !storeLast) {
		return nil
	}
	lin.mem = loads+stores > 0
	return lin
}

// linearOp reports whether op may sit in a linear side: an ALU, constant,
// conversion or work-item instruction that cannot fault, a plain load or
// store, or a global load fused with a float operation.
func linearOp(op Opcode) bool {
	switch op {
	case OpDivI, OpModI:
		return false
	}
	switch opTable[op].Fmt {
	case FmtIab, FmtIabImm, FmtIabc, FmtIaImm, FmtFaPool, FmtFaIb, FmtIaFb, FmtIaFbc,
		FmtFab, FmtFabc, FmtFabcImm, FmtIabcImm, FmtMulImmAdd, FmtWI,
		FmtLoadF, FmtLoadI, FmtStoreF, FmtStoreI, FmtFusedLdF, FmtFusedMacF:
		return true
	}
	return false
}

// isLoad reports whether op loads: a plain load, or one fused with a
// float operation.
func isLoad(op Opcode) bool {
	switch opTable[op].Fmt {
	case FmtLoadF, FmtLoadI, FmtFusedLdF, FmtFusedMacF:
		return true
	}
	return false
}

func appendNew(rs []int32, r int32) []int32 {
	for _, x := range rs {
		if x == r {
			return rs
		}
	}
	return append(rs, r)
}

// linear runs the sides of the linear branch lin in place after the
// group's lanes disagreed there: laneCond left the mask in f.idx (1 =
// taken, so side s runs for the lanes whose mask value is s) and the
// taken count in f.nTaken. On success the lanes' counts and fuel are
// charged and the caller resumes at lin.join; the branch's own counts
// are the caller's, once for the group as for any convergent
// instruction. It reports false, with the frame as laneCond left it,
// when an active lane would fault; the caller then splits the group
// (diverge).
//
// The merges and the counts walk only the minority lanes (mask value
// mv, at most half the group), listed once in f.sel0: histogram's
// `c++` is taken by about one lane in sixteen. A side whose own lanes
// are the minority writes their results into the destination and adds
// its counts to their laneCnt rows; the other side keeps the minority's
// old values in its results before they replace the destination, and
// charges its counts to the shared counts, less the minority's rows.
func (p *VecFunc) linear(f *VecFrame, lin *linearRegion) (bool, error) {
	m := f.idx[:f.W]
	w := f.W
	taken := int64(f.nTaken)
	mv := int64(0)
	if 2*taken <= int64(w) {
		mv = 1
	}
	minority := compactLanes(f.sel0, m, mv)
	f.sel0 = minority
	for s := range lin.side {
		sd := &lin.side[s]
		if sd.start == sd.end {
			continue
		}
		if lin.mem {
			saveRegs(f, p.subFrame(f, s), sd)
		}
		for pc := sd.start; pc < sd.end; pc++ {
			if !p.sideStep(f, pc, int64(s), minority, int64(s) == mv) {
				restoreRegs(f, f.subs[s], sd)
				if s == 1 {
					restoreRegs(f, f.subs[0], &lin.side[0])
				}
				return false, nil
			}
		}
	}
	f.ensureLaned()
	lw := len(f.idx)
	for s := range lin.side {
		cnt := &lin.side[s].cnt
		sign := int64(1)
		if int64(s) != mv {
			// The majority side: every lane but the minority's.
			f.Cnt.addFields(cnt)
			sign = -1
		}
		for fi, c := range cnt {
			if c == 0 {
				continue
			}
			row := f.laneCnt[fi*lw:][:w]
			for _, l := range minority {
				row[l] += sign * c
			}
			f.moved |= 1 << fi
		}
	}
	f.Linearized++
	// The taken lanes each spent one step on the branch, and every lane
	// of a side that closes with a jump one more on it.
	steps := taken
	if lin.side[0].jmp {
		steps += int64(w) - taken
	}
	if lin.side[1].jmp {
		steps += taken
	}
	return true, f.spend(steps)
}

// saveRegs copies the lanes of the registers side sd writes into the
// same rows of sv's register files, at f's width; restoreRegs copies
// them back.
func saveRegs(f, sv *VecFrame, sd *linearSide) {
	w := f.W
	for _, r := range sd.wrI {
		copy(sv.I[int(r)*w:][:w], f.lanesI(r))
	}
	for _, r := range sd.wrF {
		copy(sv.F[int(r)*w:][:w], f.lanesF(r))
	}
}

func restoreRegs(f, sv *VecFrame, sd *linearSide) {
	if sv == nil || sd.start == sd.end {
		return
	}
	w := f.W
	for _, r := range sd.wrI {
		copy(f.lanesI(r), sv.I[int(r)*w:][:w])
	}
	for _, r := range sd.wrF {
		copy(f.lanesF(r), sv.F[int(r)*w:][:w])
	}
}

// sideStep runs the instruction at pc of a linear side whose lanes are
// those with mask value v: it computes every lane into scratch slot 2
// (a load reads only for the side's lanes), then merges the side's
// lanes into the destination register, walking the minority lanes
// listed, which are the side's own when own is set. A store retires for
// the side's lanes only. It reports false, with nothing written, when
// one of the side's lanes would fault. linearOp admits no other
// instruction.
func (p *VecFunc) sideStep(f *VecFrame, pc int, v int64, minority []int, own bool) bool {
	in := &p.Code[pc]
	su := p.srcU[pc]
	w := f.W
	m := f.idx[:w]
	ti, tf := f.bcI[2*w:3*w], f.bcF[2*w:3*w]
	isF := false
	switch opTable[in.Op].Fmt {
	case FmtIaImm:
		fill(ti, in.Imm)
	case FmtFaPool:
		fill(tf, p.FPool[in.Imm])
		isF = true
	case FmtFaIb:
		f.aluFaIb(in, su, tf)
		isF = true
	case FmtIaFb:
		f.aluIaFb(in, su, ti)
	case FmtIab:
		f.aluIab(in, su, ti)
	case FmtIabImm:
		f.aluIabImm(in, su, ti)
	case FmtIabc:
		f.aluIabc(in, su, ti)
	case FmtIaFbc:
		f.aluIaFbc(in, su, ti)
	case FmtFab:
		f.aluFab(in, su, tf)
		isF = true
	case FmtFabc:
		f.aluFabc(in, su, tf)
		isF = true
	case FmtFabcImm:
		f.aluFabcImm(in, su, tf)
		isF = true
	case FmtIabcImm:
		f.aluIabcImm(in, su, ti)
	case FmtMulImmAdd:
		f.aluMulImmAdd(in, su, ti)
	case FmtWI:
		copy(ti, f.wiRow(in.B, int64(in.C), 0))
	case FmtLoadF:
		b := &f.memSpace(in.Op)[in.B]
		if !maskedLoad(tf, b.F, f.rdI(in.C, su&srcUC != 0, 0), m, v) {
			return false
		}
		isF = true
	case FmtLoadI:
		b := &f.memSpace(in.Op)[in.B]
		if !maskedLoad(ti, b.I, f.rdI(in.C, su&srcUC != 0, 0), m, v) {
			return false
		}
	case FmtStoreF:
		b := &f.memSpace(in.Op)[in.B]
		return maskedStore(b.F, f.rdI(in.C, su&srcUC != 0, 0), f.rdF(in.A, su&srcUB != 0, 0), m, v)
	case FmtStoreI:
		b := &f.memSpace(in.Op)[in.B]
		return maskedStore(b.I, f.rdI(in.C, su&srcUC != 0, 0), f.rdI(in.A, su&srcUB != 0, 1), m, v)
	case FmtFusedLdF, FmtFusedMacF:
		// The masked load goes to scratch slot 1, then the float
		// operation runs on every lane, as the dispatch arm's would.
		slot, _ := unpackMem(in.Imm)
		t := f.bcF[w : 2*w]
		if !maskedLoad(t, f.Globals[slot].F, f.rdI(in.C, su&srcUC != 0, 0), m, v) {
			return false
		}
		b := f.rdF(in.B, su&srcUB != 0, 0)
		switch in.Op {
		case OpAddFLdG:
			binF(OpAddF, tf, b, t)
		case OpMulFLdG:
			binF(OpMulF, tf, b, t)
		case OpSubFLdG:
			binF(OpSubF, tf, b, t)
		case OpLdSubFG:
			binF(OpSubF, tf, t, b)
		case OpMulAccLdG:
			d, b := f.lanesF(in.A)[:w], b[:w]
			for l := range tf {
				tf[l] = d[l] + float64(b[l]*t[l])
			}
		}
		isF = true
	}
	if isF {
		mergeLanes(f.lanesF(in.A), tf, minority, own)
	} else {
		mergeLanes(f.lanesI(in.A), ti, minority, own)
	}
	return true
}

// mergeLanes takes a side's results t into the destination d for the
// side's lanes only, walking the minority lanes listed: when they are
// the side's own, their results go into d; otherwise they keep d's old
// values in t, which then replaces d.
func mergeLanes[T int64 | float64](d, t []T, lanes []int, own bool) {
	if own {
		for _, l := range lanes {
			d[l] = t[l]
		}
		return
	}
	for _, l := range lanes {
		t[l] = d[l]
	}
	copy(d, t)
}

// maskedLoad sets d[l] = buf[ix[l]] for the lanes whose mask value is v,
// or reports false with nothing written when one of them is out of
// bounds. The load itself is branch-free: the other lanes load element
// 0 instead of their own (it exists, since some lane is active and in
// bounds) and end up holding garbage, which the side's merge overwrites.
func maskedLoad[E float32 | int32, R float64 | int64](d []R, buf []E, ix, m []int64, v int64) bool {
	ix, m = ix[:len(d)], m[:len(d)]
	if !maskedInBounds(ix, m, v, len(buf)) || len(buf) == 0 {
		return false
	}
	for l := range d {
		d[l] = R(buf[ix[l]&((m[l]^v)-1)])
	}
	return true
}

// maskedInBounds reports whether every index of a lane whose mask value
// is v addresses a buffer of n elements. It tests the index first, which
// is almost never out of bounds, so a mixed mask costs no mispredicted
// branch.
func maskedInBounds(ix, m []int64, v int64, n int) bool {
	m = m[:len(ix)]
	for l, i := range ix {
		if uint64(i) >= uint64(n) && m[l] == v {
			return false
		}
	}
	return true
}

// maskedStore sets buf[ix[l]] = src[l] for the lanes whose mask value is
// v, in ascending lane order, or reports false with nothing written when
// one of them is out of bounds.
func maskedStore[E float32 | int32, R float64 | int64](buf []E, ix []int64, src []R, m []int64, v int64) bool {
	ix, src = ix[:len(m)], src[:len(m)]
	if !maskedInBounds(ix, m, v, len(buf)) {
		return false
	}
	for l := range m {
		if m[l] == v {
			buf[ix[l]] = E(src[l])
		}
	}
	return true
}
