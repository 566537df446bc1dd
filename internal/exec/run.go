package exec

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/exec/vm"
	"repro/internal/minicl"
	"repro/internal/sched"
)

// RunOptions controls a kernel launch.
type RunOptions struct {
	// Lo and Hi restrict execution to dim-0 global IDs in [Lo, Hi).
	// Hi == 0 means the full dim-0 extent. Both must align to the dim-0
	// work-group size. Work items still observe the full global size, so
	// chunked execution is semantically a multi-device split, not a
	// smaller launch.
	Lo, Hi int
	// Buckets is the profile resolution along dim 0 (default DefaultBuckets).
	Buckets int
	// Workers caps host parallelism (default: the scheduler's
	// process-wide worker budget, GOMAXPROCS unless overridden).
	Workers int
	// Budget, when non-nil, bounds the launch by steps, memory, and wall
	// clock; exhaustion aborts the run with a *BudgetError. Nil enforces
	// nothing and adds no per-item cost beyond an amortized fuel counter.
	Budget *Budget
}

// countsPool recycles worker-local bucket slices across launches so
// steady-state profiling allocates nothing per run.
var countsPool sync.Pool

func getCounts(n int) []Counts {
	if v := countsPool.Get(); v != nil {
		s := *v.(*[]Counts)
		if cap(s) >= n {
			s = s[:n]
			clear(s)
			return s
		}
	}
	return make([]Counts, n)
}

func putCounts(s []Counts) {
	countsPool.Put(&s)
}

// Run executes the kernel over the NDRange and returns its dynamic profile.
func (c *Compiled) Run(args []Arg, nd NDRange, opts RunOptions) (*Profile, error) {
	nd, err := nd.normalized()
	if err != nil {
		return nil, err
	}
	if err := c.checkArgs(args); err != nil {
		return nil, err
	}
	lo, hi := opts.Lo, opts.Hi
	if hi == 0 {
		hi = nd.Global[0]
	}
	if lo < 0 || hi > nd.Global[0] || lo > hi {
		return nil, fmt.Errorf("exec: chunk [%d,%d) outside NDRange dim 0 [0,%d)", lo, hi, nd.Global[0])
	}
	lsz0 := nd.Local[0]
	if lo%lsz0 != 0 || hi%lsz0 != 0 {
		return nil, fmt.Errorf("exec: chunk [%d,%d) not aligned to work-group size %d", lo, hi, lsz0)
	}
	nb := opts.Buckets
	if nb <= 0 {
		nb = DefaultBuckets
	}
	if nb > nd.Global[0] {
		nb = nd.Global[0]
	}
	prof := &Profile{Global0: nd.Global[0], Buckets: make([]Counts, nb)}
	if lo == hi {
		return prof, nil
	}

	// Enumerate work groups in the chunk.
	l := &launch{c: c, args: args, nd: nd, budget: opts.Budget, g0lo: lo / lsz0}
	l.ngrp = [3]int64{
		int64(nd.Global[0] / nd.Local[0]),
		int64(nd.Global[1] / nd.Local[1]),
		int64(nd.Global[2] / nd.Local[2]),
	}
	l.groupsDim0 = hi/lsz0 - l.g0lo
	l.totalGroups = l.groupsDim0 * int(l.ngrp[1]) * int(l.ngrp[2])

	workers := sched.Workers(opts.Workers)
	if workers > l.totalGroups {
		workers = l.totalGroups
	}
	if workers == 1 {
		// A single worker runs on the caller's goroutine and accumulates
		// straight into the profile.
		if err := l.work(prof.Buckets); err != nil {
			return nil, err
		}
	} else {
		// Extra workers get pooled scratch buckets merged after the join.
		var wg sync.WaitGroup
		errs := make([]error, workers)
		workerBuckets := make([][]Counts, workers)
		for w := range workerBuckets {
			workerBuckets[w] = getCounts(nb)
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[w] = l.work(workerBuckets[w])
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				for _, wb := range workerBuckets {
					putCounts(wb)
				}
				return nil, err
			}
		}
		for _, wb := range workerBuckets {
			for i := range wb {
				prof.Buckets[i].Add(&wb[i])
			}
			putCounts(wb)
		}
	}
	prof.VecDivergences = l.vecDiv.Load()
	prof.VecReconverges = l.vecRec.Load()
	prof.VecScalarBails = l.vecBail.Load()
	return prof, nil
}

// launch is what the host workers of one Run share: the bound kernel and
// geometry, the cursor handing out work groups, and the divergence
// telemetry they add up.
type launch struct {
	c      *Compiled
	args   []Arg
	nd     NDRange
	ngrp   [3]int64
	budget *Budget

	g0lo, groupsDim0, totalGroups int

	nextGroup               atomic.Int64
	vecDiv, vecRec, vecBail atomic.Int64
}

// work executes groups on one host worker until the launch has none left,
// accumulating their counts into buckets. A kernel fault or budget abort
// comes back as the error; the worker's runner returns to the kernel's
// idle list either way.
func (l *launch) work(buckets []Counts) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ee, ok := r.(execError)
			if !ok {
				panic(r)
			}
			err = ee.err
		}
	}()
	rt := l.c.getRunner(l.args, l.nd)
	defer l.c.putRunner(rt)
	defer func() {
		l.vecDiv.Add(rt.vecDiv)
		l.vecRec.Add(rt.vecRec)
		l.vecBail.Add(rt.vecBail)
	}()
	rt.bind(l.args, l.nd, l.ngrp, buckets, l.budget)
	for {
		g := l.nextGroup.Add(1) - 1
		if g >= int64(l.totalGroups) {
			return nil
		}
		// Deadline/cancel backstop between groups: straight-line
		// kernels never touch fuel, but their per-group work is
		// bounded by the memory budget, so this check suffices.
		if err := l.budget.Expired(); err != nil {
			return err
		}
		// Decompose linear group index into (g0, g1, g2).
		g0 := int(g)%l.groupsDim0 + l.g0lo
		rest := int(g) / l.groupsDim0
		g1 := rest % int(l.ngrp[1])
		g2 := rest / int(l.ngrp[1])
		rt.runGroup(g0, g1, g2)
	}
}

// checkArgs validates argument kinds against the kernel signature.
func (c *Compiled) checkArgs(args []Arg) error {
	params := c.Fn.Params
	if len(args) != len(params) {
		return fmt.Errorf("exec: kernel %q takes %d arguments, got %d", c.Fn.Name, len(params), len(args))
	}
	for i, p := range params {
		a := args[i]
		switch {
		case p.Type.Ptr && p.Type.Space == minicl.Local:
			if a.LocalLen <= 0 {
				return fmt.Errorf("exec: argument %d (%s) needs LocalArg with positive length", i, p.Name)
			}
		case p.Type.Ptr:
			if a.Buf == nil {
				return fmt.Errorf("exec: argument %d (%s) needs a buffer", i, p.Name)
			}
			if p.Type.Elem().IsFloat() != (a.Buf.Kind == minicl.Float) {
				return fmt.Errorf("exec: argument %d (%s): buffer kind mismatch", i, p.Name)
			}
		}
	}
	return nil
}

// groupRunner executes work groups for one host worker, reusing the
// frames of the one tier the kernel was compiled for. On the bytecode
// tiers a runner outlives its launch: putRunner parks it on the kernel's
// idle list and the next launch with the same work-group shape re-binds
// it (bind) instead of building frames again.
type groupRunner struct {
	c       *Compiled
	args    []Arg // the launch's arguments, held while bound
	buckets []Counts
	nb      int
	global0 int

	locals   []*Buffer // per-group local buffers, zeroed between groups
	lsz      [3]int64
	gsz      [3]int64
	ngr      [3]int64
	itemsPer int

	// bucketByL0[l0] is the profile bucket of dim-0 local index l0 within
	// the current group, refreshed once per group so finishItem performs
	// no division per work item.
	bucketByL0 []int32

	// Closure tier state: one frame per work item of a group, plus, for
	// barrier kernels (bar != nil), the persistent item pool — itemsPer
	// goroutines created on the first group and reused for every
	// subsequent group of this runner, synchronized on bar.
	frames    []*frame
	bar       *groupBarrier
	poolStart chan int
	poolDone  sync.WaitGroup
	poolPanic atomic.Value

	// Bytecode tier state (see runvm.go). vmGlobals and vmLocals are the
	// buffer slot tables every frame of the runner shares. The per-item
	// scalar frames are built by the first group that runs on the scalar
	// VM: under a vector frame that is the first group to bail, so a
	// runner that never leaves the vector tier has none.
	vmGlobals []vm.Buf
	vmLocals  []vm.Buf
	vmFrames  []*vm.Frame
	vmDone    []bool

	// Vector tier state (see runvec.go); vecFrame is nil when the group
	// runs scalar.
	vecFrame *vm.VecFrame
	vecGroup [3]int64 // group id whose global-id ramps vecFrame holds, per dimension (-1 = none)

	// Vector-tier divergence telemetry, accumulated per runner and
	// merged into the launch profile after the worker join.
	vecDiv  int64
	vecRec  int64
	vecBail int64

	budget *vm.Budget
}

// maxIdleRunners caps a kernel's idle list at the process's worker budget:
// the device chunks of one request run on about that many runners between
// them, so a request finds its runners parked by the last one, and a burst
// of concurrent launches cannot leave more than that behind. Runners past
// the cap go to the garbage collector.
func maxIdleRunners() int { return sched.DefaultWorkers() }

// runnerPool is a kernel's idle list: finished bytecode-tier runners
// (vector frame, scalar frames, local buffers) waiting for the next
// launch.
type runnerPool struct {
	mu   sync.Mutex
	idle []*groupRunner
}

// getRunner returns a runner shaped for the launch and not yet bound to
// it: an idle one whose work-group size and local buffer lengths match,
// or a new one.
func (c *Compiled) getRunner(args []Arg, nd NDRange) *groupRunner {
	lsz := [3]int64{int64(nd.Local[0]), int64(nd.Local[1]), int64(nd.Local[2])}
	c.runners.mu.Lock()
	for i, r := range c.runners.idle {
		if r.fits(lsz, args) {
			c.runners.idle = slices.Delete(c.runners.idle, i, i+1)
			c.runners.mu.Unlock()
			return r
		}
	}
	c.runners.mu.Unlock()

	r := &groupRunner{c: c, lsz: lsz, itemsPer: nd.Local[0] * nd.Local[1] * nd.Local[2]}
	r.bucketByL0 = make([]int32, nd.Local[0])
	for i, p := range c.Fn.Params {
		if p.Type.Ptr && p.Type.Space == minicl.Local {
			b := NewIntBuffer(args[i].LocalLen)
			if p.Type.Elem().IsFloat() {
				b = NewFloatBuffer(args[i].LocalLen)
			}
			r.locals = append(r.locals, b)
		}
	}
	if c.vmProg != nil {
		r.initVM()
		r.initVec()
	}
	return r
}

// fits reports whether the runner's frames and local buffers have the
// shape a launch with this work-group size and these arguments needs.
func (r *groupRunner) fits(lsz [3]int64, args []Arg) bool {
	if r.lsz != lsz {
		return false
	}
	k := 0
	for i, p := range r.c.Fn.Params {
		if p.Type.Ptr && p.Type.Space == minicl.Local {
			if r.locals[k].Len() != args[i].LocalLen {
				return false
			}
			k++
		}
	}
	return true
}

// putRunner ends a runner's launch, whether it finished, faulted or ran
// out of budget. A bytecode-tier runner lets go of the launch's buffers
// and joins the idle list: everything a group reads is rewritten per
// group (work-item rows, counts, local buffers) or per bind (buffer
// tables, scalar arguments, budget, fuel), so the next launch sees
// nothing of this one. The closure tier's runner is torn down.
func (c *Compiled) putRunner(r *groupRunner) {
	if c.vmProg == nil {
		r.close()
		return
	}
	r.args, r.buckets, r.budget = nil, nil, nil
	clear(r.vmGlobals)
	c.runners.mu.Lock()
	if len(c.runners.idle) < maxIdleRunners() {
		c.runners.idle = append(c.runners.idle, r)
	}
	c.runners.mu.Unlock()
}

// bind attaches the runner to one launch: geometry, profile buckets,
// budget and arguments. Local buffers are real per-worker allocations, so
// they are the closest thing this host runtime has to device local
// memory: each launch is charged for them against its memory budget,
// whether its runner is new or reused.
func (r *groupRunner) bind(args []Arg, nd NDRange, ngrp [3]int64, buckets []Counts, budget *Budget) {
	r.args, r.buckets, r.nb, r.global0 = args, buckets, len(buckets), nd.Global[0]
	r.gsz = [3]int64{int64(nd.Global[0]), int64(nd.Global[1]), int64(nd.Global[2])}
	r.ngr = ngrp
	r.budget = budget
	r.vecDiv, r.vecRec, r.vecBail = 0, 0, 0
	for _, lb := range r.locals {
		if err := budget.ChargeMem(lb.Bytes()); err != nil {
			panic(execError{err})
		}
	}
	if r.c.vmProg == nil {
		r.initClosure(args)
		return
	}
	r.bindVM()
	r.bindVec()
}

// initClosure builds the per-item closure frames and, for barrier
// kernels, the group barrier the item pool synchronizes on.
func (r *groupRunner) initClosure(args []Arg) {
	c := r.c
	// Buffer tables are shared by all frames of the group.
	locals := make([]*Buffer, c.nLocal)
	globalBufs := make([]*Buffer, c.nGlobal)
	nextLocal := 0
	for i := range c.Fn.Params {
		s := c.paramSlots[i]
		switch s.kind {
		case slotGlobalBuf:
			globalBufs[s.idx] = args[i].Buf
		case slotLocalBuf:
			locals[s.idx] = r.locals[nextLocal]
			nextLocal++
		}
	}

	if c.hasBarrier && r.itemsPer > 1 {
		r.bar = newGroupBarrier(r.itemsPer)
	}
	r.frames = make([]*frame, r.itemsPer)
	for i := range r.frames {
		f := &frame{
			ints:   make([]int64, c.nInts+1),
			floats: make([]float64, c.nFloats+1),
			bufs:   globalBufs,
			locals: locals,
			cnt:    &Counts{},
			bar:    r.bar,
			budget: r.budget,
		}
		f.wi.gsz = r.gsz
		f.wi.lsz = r.lsz
		f.wi.ngr = r.ngr
		// Bind scalar args once; they are identical for every item.
		for ai, p := range c.Fn.Params {
			s := c.paramSlots[ai]
			switch s.kind {
			case slotInt:
				f.ints[s.idx] = args[ai].Int
			case slotFloat:
				if p.Type.IsFloat() {
					f.floats[s.idx] = args[ai].Float
				}
			}
		}
		r.frames[i] = f
	}
}

// close releases the runner's persistent item pool, if one was started.
func (r *groupRunner) close() {
	if r.poolStart != nil {
		close(r.poolStart)
		r.poolStart = nil
	}
}

// refreshBuckets recomputes bucketByL0 for the group at dim-0 group index
// g0. Buckets are nondecreasing and step by at most one per item (the
// bucket count never exceeds the dim-0 extent), so one division seeds the
// scan and the rest is carried incrementally.
func (r *groupRunner) refreshBuckets(g0 int) {
	base := g0 * int(r.lsz[0])
	b := base * r.nb / r.global0
	acc := base*r.nb - b*r.global0
	for l0 := range r.bucketByL0 {
		r.bucketByL0[l0] = int32(b)
		acc += r.nb
		for acc >= r.global0 {
			acc -= r.global0
			b++
		}
	}
}

// runGroup executes one work group on the runner's tier.
func (r *groupRunner) runGroup(g0, g1, g2 int) {
	// Zero local buffers between groups so groups are independent.
	for _, lb := range r.locals {
		if lb.F != nil {
			clear(lb.F)
		} else {
			clear(lb.I)
		}
	}
	r.refreshBuckets(g0)
	switch {
	case r.vecFrame != nil:
		r.runGroupVec(g0, g1, g2)
	case r.c.vmProg != nil:
		r.runGroupVM(g0, g1, g2)
	default:
		r.runGroupClosure(g0, g1, g2)
	}
}

// runGroupClosure executes one work group on the closure tree:
// sequentially when the kernel has no barriers, otherwise with one pooled
// goroutine per work item blocking on a cyclic barrier. Blocking needs no
// uniformity proof, so divergent barriers and early exits just work.
func (r *groupRunner) runGroupClosure(g0, g1, g2 int) {
	if r.bar == nil {
		li := 0
		for l2 := 0; l2 < int(r.lsz[2]); l2++ {
			for l1 := 0; l1 < int(r.lsz[1]); l1++ {
				for l0 := 0; l0 < int(r.lsz[0]); l0++ {
					f := r.frames[li]
					li++
					r.setupItem(f, g0, g1, g2, l0, l1, l2)
					r.c.body(f)
					r.finishItem(f)
				}
			}
		}
		return
	}

	r.bar.reset(r.itemsPer)
	li := 0
	for l2 := 0; l2 < int(r.lsz[2]); l2++ {
		for l1 := 0; l1 < int(r.lsz[1]); l1++ {
			for l0 := 0; l0 < int(r.lsz[0]); l0++ {
				r.setupItem(r.frames[li], g0, g1, g2, l0, l1, l2)
				li++
			}
		}
	}
	r.ensurePool()
	r.poolDone.Add(r.itemsPer)
	for i := 0; i < r.itemsPer; i++ {
		r.poolStart <- i
	}
	r.poolDone.Wait()
	if pv := r.poolPanic.Load(); pv != nil {
		panic(pv)
	}
	for _, f := range r.frames {
		r.finishItem(f)
	}
}

// ensurePool starts the persistent item goroutines on first use. Each
// waits for a frame index, executes that work item, and parks again; the
// pool is torn down by close when the runner finishes its launch.
func (r *groupRunner) ensurePool() {
	if r.poolStart != nil {
		return
	}
	r.poolStart = make(chan int, r.itemsPer)
	for w := 0; w < r.itemsPer; w++ {
		go func() {
			for li := range r.poolStart {
				r.runPoolItem(li)
			}
		}()
	}
}

func (r *groupRunner) runPoolItem(li int) {
	defer r.poolDone.Done()
	defer r.bar.leave()
	defer func() {
		if rec := recover(); rec != nil {
			r.poolPanic.CompareAndSwap(nil, rec)
		}
	}()
	r.c.body(r.frames[li])
}

func (r *groupRunner) setupItem(f *frame, g0, g1, g2, l0, l1, l2 int) {
	f.wi.grp = [3]int64{int64(g0), int64(g1), int64(g2)}
	f.wi.lid = [3]int64{int64(l0), int64(l1), int64(l2)}
	f.wi.gid = [3]int64{
		int64(g0)*r.lsz[0] + int64(l0),
		int64(g1)*r.lsz[1] + int64(l1),
		int64(g2)*r.lsz[2] + int64(l2),
	}
	*f.cnt = Counts{}
}

// finishItem folds the item's counts into its dim-0 profile bucket (looked
// up from the per-group table — no division here).
func (r *groupRunner) finishItem(f *frame) {
	b := r.bucketByL0[f.wi.lid[0]]
	c := f.cnt
	c.Items = 1
	c.MaxItemOps = c.totalOps()
	r.buckets[b].Add(c)
}

// groupBarrier is a cyclic barrier for the work items of one group.
// Items that finish early leave the barrier so remaining items do not
// deadlock (matching the "all items reach the barrier or none do per
// control path" contract loosely, but safely).
type groupBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int // current participant count
	count int // arrived this generation
	gen   int
}

func newGroupBarrier(n int) *groupBarrier {
	b := &groupBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// reset re-arms the barrier for the next group's n participants. It must
// only be called while no goroutine is inside wait (the runner calls it
// between groups, after the pool join).
func (b *groupBarrier) reset(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n = n
	b.count = 0
}

func (b *groupBarrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.count++
	if b.count >= b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	g := b.gen
	for g == b.gen {
		b.cond.Wait()
	}
}

// leave removes a finished work item from the barrier.
func (b *groupBarrier) leave() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n--
	if b.count >= b.n && b.n > 0 {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
	}
}
