// Package runtime is the multi-device execution engine: the counterpart of
// the paper's Insieme runtime system. Given a compiled kernel, a backend
// plan and a task partitioning, it executes the kernel as one launch over
// the whole NDRange against the host buffers and prices the partitioning
// on the platform's device models, including all host-device transfers.
// Under the byte-identity contract each device's dim-0 chunk computes and
// counts exactly what that chunk of one launch does, so the per-device
// split lives only in pricing (backend.Plan.DeviceWorks).
//
// Execute is the measuring run: it profiles the launch at exec.DefaultBuckets
// resolution and prices that profile. Run executes the same launch and
// keeps only the count totals, for a caller that already knows the price:
// a launch's counts are a function of its inputs, so the serving engine
// prices a cell's classes on the cell's cached profile and checks that
// profile against one Execute.
//
// It also implements the two default strategies the paper compares
// against — CPU-only and (single-)GPU-only — and the oracle label: every
// candidate of a partition space priced on one profile, its fastest
// candidate and the two default strategies' classes (Label), which the
// training sweep, the serving engine and the framework all read.
package runtime

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/backend"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Launch bundles everything needed to run one benchmark kernel.
type Launch struct {
	Kernel *exec.Compiled
	Plan   *backend.Plan
	Args   []exec.Arg
	// ArgBytes, when set, is each argument's byte size (backend.ArgBytes),
	// which pricing then reads instead of deriving it from Args. A launch
	// that is only priced, never run, needs these sizes and no buffers.
	ArgBytes []int64
	ND       exec.NDRange
	// Iterations is the number of times the application launches the
	// kernel (iterative solvers). Buffers stay device-resident between
	// launches, so transfers are charged once while compute scales.
	Iterations int
	// Budget, when non-nil, bounds host execution of this launch (steps,
	// memory, wall clock).
	Budget *exec.Budget
}

// iterations returns the effective launch count.
func (l *Launch) iterations() int {
	if l.Iterations < 1 {
		return 1
	}
	return l.Iterations
}

// argBytes returns the arguments' byte sizes pricing reads: ArgBytes when
// set, else the sizes of Args' buffers, derived into dst's storage.
func (l *Launch) argBytes(dst []int64) []int64 {
	if l.ArgBytes != nil {
		return l.ArgBytes
	}
	return backend.ArgBytes(dst[:0], l.Args)
}

// Result reports one partitioned execution.
type Result struct {
	Partition  partition.Partition
	Makespan   float64 // simulated seconds
	Breakdowns []sim.Breakdown
	Profile    *exec.Profile
}

// Runtime executes launches on one simulated platform.
type Runtime struct {
	Platform *device.Platform
	Opts     sim.Options
	// Workers bounds the host parallelism of the oracle search (Label,
	// PriceAll) and the host workers of each launch (Profile, Execute,
	// Run). 0 uses the scheduler's process-wide default (GOMAXPROCS unless
	// overridden by -parallel); 1 forces the sequential path. Results are
	// identical for every setting.
	Workers int

	// priceBufs recycles single-candidate pricing scratch sets for
	// PriceMakespan, so that a warm call does not allocate.
	priceBufs sync.Pool
}

// priceScratch is the per-worker buffer set of the oracle search: chunk
// layout, device works and breakdowns are reused across every candidate a
// worker prices, so the steady-state search allocates nothing. sizes is
// where PriceMakespan derives a launch's argument byte sizes from its Args.
type priceScratch struct {
	chunks [][2]int
	works  []sim.Work
	bds    []sim.Breakdown
	sizes  []int64
}

// priceInto prices one partitioning of a launch whose arguments have the
// given byte sizes into the scratch buffers, which keep the per-device
// breakdowns; a warm scratch allocates nothing. Every pricing path runs
// through it.
func (r *Runtime) priceInto(sc *priceScratch, l Launch, argBytes []int64, prof *exec.Profile,
	part partition.Partition, align int) (float64, error) {
	sc.works, sc.chunks = l.Plan.DeviceWorks(sc.works, sc.chunks, prof, argBytes, part, align, l.iterations())
	t, bds, err := sim.Makespan(sc.bds, r.Platform, sc.works, r.Opts)
	sc.bds = bds
	return t, err
}

// New creates a runtime for the platform.
func New(plat *device.Platform) *Runtime { return &Runtime{Platform: plat} }

// align returns the dim-0 work-group size used for chunk alignment.
func (l *Launch) align() (int, error) {
	nd, err := l.ND.Normalized()
	if err != nil {
		return 0, err
	}
	return nd.Local[0], nil
}

// checkPartition validates the partition against the platform.
func (r *Runtime) checkPartition(p partition.Partition) error {
	if len(p.Shares) != r.Platform.NumDevices() {
		return fmt.Errorf("runtime: partition over %d devices on a %d-device platform",
			len(p.Shares), r.Platform.NumDevices())
	}
	if p.Steps() == 0 {
		return fmt.Errorf("runtime: empty partition")
	}
	return nil
}

// Execute profiles the launch (Profile) against its host buffers, so
// outputs are real and verifiable, and prices the given partitioning of
// that profile on the device models. The returned profile can be
// re-priced for other partitionings with Price. This is the measuring
// path: the deployment phase of core.Framework and the serving engine's
// self-check of a cell's cached profile.
func (r *Runtime) Execute(l Launch, part partition.Partition) (*Result, error) {
	if err := r.checkPartition(part); err != nil {
		return nil, err
	}
	prof, err := r.Profile(l)
	if err != nil {
		return nil, err
	}
	makespan, bds, err := r.Price(l, prof, part)
	if err != nil {
		return nil, err
	}
	return &Result{Partition: part, Makespan: makespan, Breakdowns: bds, Profile: prof}, nil
}

// Run executes the launch exactly as Execute does — same budget, same
// faults — but keeps one profile bucket and prices nothing: the returned
// profile's single bucket holds the launch's exact count totals and its
// Vec* counters the launch's divergence telemetry. The serving engine
// runs warm executions through it, because their price is already known
// from the cell's profile. The buffers are whatever the caller bound: a
// built instance's, or inputs shared read-only with concurrent launches
// next to outputs of this launch's own.
func (r *Runtime) Run(l Launch, part partition.Partition) (*exec.Profile, error) {
	if err := r.checkPartition(part); err != nil {
		return nil, err
	}
	return r.run(l, 1)
}

// Profile executes the launch once over its whole NDRange and returns its
// dynamic profile at exec.DefaultBuckets resolution, without pricing.
// Training uses this single execution to price every candidate
// partitioning analytically.
func (r *Runtime) Profile(l Launch) (*exec.Profile, error) {
	return r.run(l, exec.DefaultBuckets)
}

// run is every execution's one kernel launch over the whole NDRange, at
// the given dim-0 bucket resolution. A partitioning only prices: what a
// launch computes and counts does not depend on it.
func (r *Runtime) run(l Launch, buckets int) (*exec.Profile, error) {
	nd, err := l.ND.Normalized()
	if err != nil {
		return nil, err
	}
	return l.Kernel.Run(l.Args, nd, exec.RunOptions{Buckets: buckets, Workers: r.Workers, Budget: l.Budget})
}

// Price computes the simulated makespan of a partitioning from an
// existing profile, without executing anything.
func (r *Runtime) Price(l Launch, prof *exec.Profile, part partition.Partition) (float64, []sim.Breakdown, error) {
	if err := r.checkPartition(part); err != nil {
		return 0, nil, err
	}
	align, err := l.align()
	if err != nil {
		return 0, nil, err
	}
	var sc priceScratch
	t, err := r.priceInto(&sc, l, l.argBytes(nil), prof, part, align)
	if err != nil {
		return 0, nil, err
	}
	return t, sc.bds, nil
}

// PriceMakespan is Price without the per-device breakdowns: it computes
// the same makespan through a pooled scratch set, so a warm call performs
// zero heap allocations. The benchmark's pricing micro times it.
func (r *Runtime) PriceMakespan(l Launch, prof *exec.Profile, part partition.Partition) (float64, error) {
	if err := r.checkPartition(part); err != nil {
		return 0, err
	}
	align, err := l.align()
	if err != nil {
		return 0, err
	}
	sc, _ := r.priceBufs.Get().(*priceScratch)
	if sc == nil {
		sc = new(priceScratch)
	}
	argBytes := l.argBytes(sc.sizes)
	if l.ArgBytes == nil {
		sc.sizes = argBytes // derived: keep the storage for the next call
	}
	t, err := r.priceInto(sc, l, argBytes, prof, part, align)
	r.priceBufs.Put(sc)
	return t, err
}

// Label is a profile's oracle label over a partition space: what the
// paper's training phase records for one (program, size) on one platform.
type Label struct {
	// Times is every candidate's makespan, in the space's order.
	Times []float64
	// Best is the fastest candidate; ties go to the earlier one.
	Best int
	// CPUOnly and GPUOnly are the classes of the two default strategies,
	// -1 for one the space lacks.
	CPUOnly, GPUOnly int
}

// Label prices every candidate of space on prof (PriceAll) and labels the
// profile with the fastest candidate and the default strategies' classes.
// It is the one place a times vector is reduced to its oracle.
func (r *Runtime) Label(l Launch, prof *exec.Profile, space []partition.Partition) (Label, error) {
	times, err := r.PriceAll(l, prof, space, nil)
	if err != nil {
		return Label{}, err
	}
	lb := Label{Times: times}
	for i, t := range times {
		if t < times[lb.Best] {
			lb.Best = i
		}
	}
	lb.CPUOnly, lb.GPUOnly = r.ReferenceClasses(space)
	return lb, nil
}

// ReferenceClasses returns the classes of the CPU-only and GPU-only
// strategies in space, -1 for one the space lacks.
func (r *Runtime) ReferenceClasses(space []partition.Partition) (cpu, gpu int) {
	cpuOnly, gpuOnly := r.CPUOnly(), r.GPUOnly()
	cpu, gpu = -1, -1
	for i, p := range space {
		if cpu < 0 && slices.Equal(p.Shares, cpuOnly.Shares) {
			cpu = i
		}
		if gpu < 0 && slices.Equal(p.Shares, gpuOnly.Shares) {
			gpu = i
		}
	}
	return cpu, gpu
}

// PriceAll prices every candidate in the space from one profile and
// returns the per-candidate makespans in enumeration order. dst is reused
// when its length matches (training sweeps hand in the record's Times
// slice). The times are identical to calling Price per candidate.
func (r *Runtime) PriceAll(l Launch, prof *exec.Profile, space []partition.Partition, dst []float64) ([]float64, error) {
	if len(dst) != len(space) {
		dst = make([]float64, len(space))
	}
	return r.priceSpace(l, prof, space, dst)
}

// priceSpace fills dst with the makespan of every candidate. Candidates
// are validated up front (deterministic errors), the profile's O(1) range
// index is built once, and the space is sharded contiguously over the
// worker budget with per-worker scratch.
func (r *Runtime) priceSpace(l Launch, prof *exec.Profile, space []partition.Partition, dst []float64) ([]float64, error) {
	if len(space) == 0 {
		return nil, fmt.Errorf("runtime: empty partition space")
	}
	for _, p := range space {
		if err := r.checkPartition(p); err != nil {
			return nil, err
		}
	}
	align, err := l.align()
	if err != nil {
		return nil, err
	}
	prof.Precompute()
	argBytes := l.argBytes(nil)
	workers := sched.Workers(r.Workers)
	if workers > len(space) {
		workers = len(space)
	}
	_, err = sched.Map(context.Background(), workers, workers,
		func(_ context.Context, s int) (struct{}, error) {
			lo := len(space) * s / workers
			hi := len(space) * (s + 1) / workers
			var sc priceScratch
			for i := lo; i < hi; i++ {
				t, err := r.priceInto(&sc, l, argBytes, prof, space[i], align)
				if err != nil {
					return struct{}{}, err
				}
				dst[i] = t
			}
			return struct{}{}, nil
		})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// CPUOnly is the first default strategy: everything on the CPU device.
func (r *Runtime) CPUOnly() partition.Partition {
	return partition.Single(r.Platform.NumDevices(), device.CPUIndex)
}

// GPUOnly is the second default strategy: everything on a single GPU
// (the paper compares against "a single CPU and a single GPU only").
func (r *Runtime) GPUOnly() partition.Partition {
	gpus := r.Platform.GPUIndices()
	if len(gpus) == 0 {
		return r.CPUOnly()
	}
	return partition.Single(r.Platform.NumDevices(), gpus[0])
}
