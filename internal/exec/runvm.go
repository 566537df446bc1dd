package exec

import "repro/internal/exec/vm"

// VM execution path of the group runner. When the kernel carries a
// bytecode program, runGroup dispatches here; frames, buffer bindings
// and profile accounting mirror the closure path exactly, so buffers
// and profiles are byte-identical across tiers.

// initVM builds the buffer-slot tables every frame of the runner shares.
// Local slots alias the runner's per-group local buffers, so the
// per-group clear in runGroup is visible to the VM; global slots are
// filled per launch by bindVM.
func (r *groupRunner) initVM() {
	p := r.c.vmProg
	if p.NumGlobals > 0 {
		r.vmGlobals = make([]vm.Buf, p.NumGlobals)
	}
	if p.NumLocal > 0 {
		r.vmLocals = make([]vm.Buf, p.NumLocal)
	}
	nextLocal := 0
	for i := range p.Params {
		if pr := &p.Params[i]; pr.Kind == vm.ParamLocal {
			lb := r.locals[nextLocal]
			nextLocal++
			r.vmLocals[pr.Index] = vm.Buf{F: lb.F, I: lb.I}
		}
	}
}

// bindVM points the global buffer slots at the launch's buffers and
// re-binds the scalar frames, if the runner has built them.
func (r *groupRunner) bindVM() {
	p := r.c.vmProg
	for i := range p.Params {
		if pr := &p.Params[i]; pr.Kind == vm.ParamGlobal {
			b := r.args[i].Buf
			r.vmGlobals[pr.Index] = vm.Buf{F: b.F, I: b.I}
		}
	}
	for _, f := range r.vmFrames {
		r.bindFrame(f)
	}
}

// bindFrame binds a scalar frame to the runner's launch: budget, a fresh
// fuel lease, geometry and the scalar arguments, identical for every item.
func (r *groupRunner) bindFrame(f *vm.Frame) {
	f.B = r.budget
	f.Fuel = 0
	f.WI[vm.WIGlobalSize] = r.gsz
	f.WI[vm.WILocalSize] = r.lsz
	f.WI[vm.WINumGroups] = r.ngr
	p := r.c.vmProg
	for ai := range p.Params {
		pr := &p.Params[ai]
		switch pr.Kind {
		case vm.ParamInt:
			f.I[pr.Index] = r.args[ai].Int
		case vm.ParamFloat:
			f.F[pr.Index] = r.args[ai].Float
		}
	}
}

// scalarFrames returns the runner's per-item scalar frames, building and
// binding them on first use: every group when the scalar VM serves the
// kernel, only a group that bails when the vector tier does.
func (r *groupRunner) scalarFrames() []*vm.Frame {
	if r.vmFrames == nil {
		r.vmFrames = make([]*vm.Frame, r.itemsPer)
		for i := range r.vmFrames {
			f := r.c.vmProg.NewFrame()
			f.Globals = r.vmGlobals
			f.Locals = r.vmLocals
			r.bindFrame(f)
			r.vmFrames[i] = f
		}
		r.vmDone = make([]bool, r.itemsPer)
	}
	return r.vmFrames
}

func (r *groupRunner) setupItemVM(f *vm.Frame, g0, g1, g2, l0, l1, l2 int) {
	f.WI[vm.WIGroupID] = [3]int64{int64(g0), int64(g1), int64(g2)}
	f.WI[vm.WILocalID] = [3]int64{int64(l0), int64(l1), int64(l2)}
	f.WI[vm.WIGlobalID] = [3]int64{
		int64(g0)*r.lsz[0] + int64(l0),
		int64(g1)*r.lsz[1] + int64(l1),
		int64(g2)*r.lsz[2] + int64(l2),
	}
	f.Reset()
}

// finishItemVM folds the item's counts into its dim-0 profile bucket,
// mirroring finishItem on the closure path.
func (r *groupRunner) finishItemVM(f *vm.Frame) {
	b := r.bucketByL0[f.WI[vm.WILocalID][0]]
	c := Counts(f.Cnt)
	c.Items = 1
	c.MaxItemOps = c.totalOps()
	r.buckets[b].Add(&c)
}

// runGroupVM executes one work group on the bytecode VM, entirely on the
// calling goroutine.
func (r *groupRunner) runGroupVM(g0, g1, g2 int) {
	frames := r.scalarFrames()
	li := 0
	for l2 := 0; l2 < int(r.lsz[2]); l2++ {
		for l1 := 0; l1 < int(r.lsz[1]); l1++ {
			for l0 := 0; l0 < int(r.lsz[0]); l0++ {
				r.setupItemVM(frames[li], g0, g1, g2, l0, l1, l2)
				li++
			}
		}
	}
	r.vmRunRounds()
}

// vmRunRounds completes the group's scalar frames via suspend-resume:
// each frame runs until its next barrier (Suspended) or the end of the
// kernel (Halted); when every live frame has arrived, the round
// advances. A kernel without barriers finishes in one round, item by
// item. Frames carry their own resume PC, so items may reach barriers
// from different control paths and no uniformity proof is needed.
func (r *groupRunner) vmRunRounds() {
	clear(r.vmDone)
	remaining := r.itemsPer
	for remaining > 0 {
		for i, f := range r.vmFrames {
			if r.vmDone[i] {
				continue
			}
			st, err := r.c.vmProg.Run(f)
			if err != nil {
				panic(execError{err})
			}
			if st == vm.Halted {
				r.vmDone[i] = true
				remaining--
			}
		}
	}
	for _, f := range r.vmFrames {
		r.finishItemVM(f)
	}
}
