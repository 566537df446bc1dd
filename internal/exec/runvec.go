package exec

import "repro/internal/exec/vm"

// Vector (SIMT) execution path of the group runner. When the kernel
// vectorized, runGroup dispatches here: the whole work group executes on
// one W-wide VecFrame, a single dispatch loop retiring every lane per
// instruction. When a group leaves the tier — its lanes diverge at a
// varying branch with no join, or some lane would fault — the vector
// frame's lanes are scattered into per-item scalar frames (built by the
// first group that needs them) and the group completes on the scalar VM,
// which reproduces canonical item-order semantics (including fault
// messages) exactly.

// opWeights is Counts.totalOps as per-field weights in FoldLanes row
// order (IntOps, FloatOps, TransOps, OtherBuiltins, GlobalLoads,
// GlobalStores, LocalOps, Branches, Barriers).
var opWeights = [vm.NCountFields]int64{1, 1, 4, 1, 1, 1, 1, 0, 0}

// initVec builds the runner's W-lane vector frame over the buffer slot
// tables initVM built, with the local-id ramps, which depend only on
// the work-group shape. No-op when the kernel is not vectorized or
// groups are single-item (the scalar VM path is strictly better at
// W=1).
func (r *groupRunner) initVec() {
	p := r.c.vecProg
	if p == nil || r.itemsPer <= 1 {
		return
	}
	w := r.itemsPer
	vf := p.NewVecFrame(w)
	vf.Globals = r.vmGlobals
	vf.Locals = r.vmLocals
	// Lane li <-> local coords with l0 innermost, matching the scalar
	// item loops.
	l01 := r.lsz[0] * r.lsz[1]
	for l := 0; l < w; l++ {
		vf.LaneWI[vm.WILocalID][0][l] = int64(l) % r.lsz[0]
		vf.LaneWI[vm.WILocalID][1][l] = (int64(l) / r.lsz[0]) % r.lsz[1]
		vf.LaneWI[vm.WILocalID][2][l] = int64(l) / l01
	}
	r.vecFrame = vf
}

// bindVec binds the vector frame to the runner's launch. Its uniform
// half binds like any scalar frame; the scalar arguments also go into
// every lane, for a parameter the kernel assigns a varying value.
func (r *groupRunner) bindVec() {
	vf := r.vecFrame
	if vf == nil {
		return
	}
	r.bindFrame(vf.Frame)
	p := r.c.vecProg
	for i := range p.Params {
		pr := &p.Params[i]
		switch pr.Kind {
		case vm.ParamInt:
			vf.SetI(pr.Index, r.args[i].Int)
		case vm.ParamFloat:
			vf.SetF(pr.Index, r.args[i].Float)
		}
	}
	r.vecGroup = [3]int64{-1, -1, -1}
}

// runGroupVec executes one work group on the vector tier.
func (r *groupRunner) runGroupVec(g0, g1, g2 int) {
	vf := r.vecFrame
	g := [3]int64{int64(g0), int64(g1), int64(g2)}
	vf.WI[vm.WIGroupID] = g
	for d := 0; d < 3; d++ {
		// Groups are handed out dim 0 fastest, so the global-id ramps of
		// the other dimensions usually still hold this group's values.
		if r.vecGroup[d] == g[d] {
			continue
		}
		r.vecGroup[d] = g[d]
		gid := vf.LaneWI[vm.WIGlobalID][d]
		lid := vf.LaneWI[vm.WILocalID][d]
		base := g[d] * r.lsz[d]
		for l := range gid {
			gid[l] = base + lid[l]
		}
	}
	vf.Reset()
	st, err := r.c.vecProg.Run(vf)
	r.vecDiv += vf.Divergences
	r.vecRec += vf.Reconverges
	r.vecLin += vf.Linearized
	if err != nil {
		panic(execError{err})
	}
	if st == vm.Diverged {
		r.bailGroupVec(g0, g1, g2)
		return
	}
	r.foldGroupVec()
}

// foldMinRun is the average run of lanes per bucket from which folding
// a group run by run beats adding its lanes one by one: a FoldLanes
// call costs about as much as this many Counts.Add. 1-D launches are
// far above it (a group lands in one or two buckets); 2-D launches,
// with a few hundred items along dim 0 spread over DefaultBuckets, have
// one or two lanes per bucket and stay lane by lane.
const foldMinRun = 8

// foldGroupVec adds the finished group's per-item counts to the profile
// buckets. Under convergent execution every lane retired the same
// instruction sequence and the frame's counts are each item's counts;
// after a split the lanes that took different sides add their per-lane
// deltas.
func (r *groupRunner) foldGroupVec() {
	vf := r.vecFrame
	bl := r.bucketByL0
	if bl[0] == bl[len(bl)-1] {
		// Every lane in one bucket, whatever the group's shape — always so
		// on a one-bucket launch: one field-major fold of the whole group.
		r.foldLanes(0, vf.W, bl[0])
		return
	}
	if int64(vf.W) == r.lsz[0] && int(bl[vf.W-1]-bl[0]) < vf.W/foldMinRun {
		// A 1-D group (lane l is local index l) over few buckets: buckets
		// are nondecreasing along dim 0, so each one's lanes are a
		// contiguous run, folded field-major without composing a Counts
		// per lane — a re-formed group costs what a convergent one does.
		for a := 0; a < vf.W; {
			b := a + 1
			for b < vf.W && bl[b] == bl[a] {
				b++
			}
			r.foldLanes(a, b, bl[a])
			a = b
		}
		return
	}
	lid0 := vf.LaneWI[vm.WILocalID][0]
	if vf.Laned {
		for l := 0; l < vf.W; l++ {
			c := Counts(vf.LaneCounts(l))
			c.Items = 1
			c.MaxItemOps = c.totalOps()
			r.buckets[bl[lid0[l]]].Add(&c)
		}
		return
	}
	c := Counts(vf.Cnt)
	c.Items = 1
	c.MaxItemOps = c.totalOps()
	for l := 0; l < vf.W; l++ {
		r.buckets[bl[lid0[l]]].Add(&c)
	}
}

// foldLanes adds lanes [a, b) of the finished group to bucket.
func (r *groupRunner) foldLanes(a, b int, bucket int32) {
	sum, maxOps := r.vecFrame.FoldLanes(&opWeights, a, b)
	c := Counts(sum)
	c.Items = int64(b - a)
	c.MaxItemOps = maxOps
	r.buckets[bucket].Add(&c)
}

// bailGroupVec scalarizes a diverged group: each lane's registers,
// parked PC, and accumulated counts transfer into the per-item scalar
// frames, which then complete on the scalar VM in canonical item order.
// On a pre-instruction park the diverging instruction has neither
// executed nor counted on the vector frame, so the scalar rerun picks
// it up exactly once; on a partial re-formation bail each lane resumes
// from its own PC with its own counts. Either way — counts, stores,
// and fault messages land byte-identical to an all-scalar run.
func (r *groupRunner) bailGroupVec(g0, g1, g2 int) {
	vf := r.vecFrame
	vp := r.c.vecProg
	r.vecBail++
	frames := r.scalarFrames()
	li := 0
	for l2 := 0; l2 < int(r.lsz[2]); l2++ {
		for l1 := 0; l1 < int(r.lsz[1]); l1++ {
			for l0 := 0; l0 < int(r.lsz[0]); l0++ {
				f := frames[li]
				r.setupItemVM(f, g0, g1, g2, l0, l1, l2)
				// ScatterLane knows the frame layout: uniform registers
				// come from the scalar slots, and a partially re-formed
				// bail hands each lane its own PC and counts.
				vp.ScatterLane(vf, li, f)
				li++
			}
		}
	}
	r.vmRunRounds()
}
