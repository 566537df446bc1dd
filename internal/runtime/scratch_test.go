package runtime

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/backend"
	"repro/internal/device"
	"repro/internal/partition"
)

// TestPriceAllMatchesPrice checks that the scratch-reusing batched pricing
// path returns exactly the per-candidate Price results, in enumeration
// order, on both platforms and a finer grid.
func TestPriceAllMatchesPrice(t *testing.T) {
	l, _ := vecaddLaunch(t, 4096)
	for _, plat := range []*device.Platform{device.MC1(), device.MC2()} {
		rt := New(plat)
		prof, err := rt.Profile(l)
		if err != nil {
			t.Fatal(err)
		}
		for _, steps := range []int{10, 20} {
			space := partition.SharedSpace(plat.NumDevices(), steps)
			times, err := rt.PriceAll(l, prof, space, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(times) != len(space) {
				t.Fatalf("%s steps=%d: %d times for %d candidates", plat.Name, steps, len(times), len(space))
			}
			for i, part := range space {
				want, _, err := rt.Price(l, prof, part)
				if err != nil {
					t.Fatal(err)
				}
				if times[i] != want {
					t.Fatalf("%s steps=%d candidate %d (%s): PriceAll %v != Price %v",
						plat.Name, steps, i, part, times[i], want)
				}
			}
		}
	}
}

// TestPriceAllReusesDst checks the destination-reuse contract.
func TestPriceAllReusesDst(t *testing.T) {
	l, _ := vecaddLaunch(t, 4096)
	rt := New(device.MC2())
	prof, err := rt.Profile(l)
	if err != nil {
		t.Fatal(err)
	}
	space := partition.SharedSpace(3, partition.DefaultSteps)
	dst := make([]float64, len(space))
	got, err := rt.PriceAll(l, prof, space, dst)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[0] {
		t.Error("PriceAll did not fill the supplied destination")
	}
}

// TestLabel checks what a label holds: the times PriceAll gives, the
// first of the fastest candidates, and the default strategies' classes,
// -1 for one the space lacks.
func TestLabel(t *testing.T) {
	l, _ := vecaddLaunch(t, 4096)
	for _, plat := range []*device.Platform{device.MC1(), device.MC2()} {
		rt := New(plat)
		prof, err := rt.Profile(l)
		if err != nil {
			t.Fatal(err)
		}
		space := partition.SharedSpace(plat.NumDevices(), partition.DefaultSteps)
		lb, err := rt.Label(l, prof, space)
		if err != nil {
			t.Fatal(err)
		}
		times, err := rt.PriceAll(l, prof, space, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(lb.Times, times) || slices.Index(times, slices.Min(times)) != lb.Best {
			t.Fatalf("%s: label times %v, best %d; PriceAll %v", plat.Name, lb.Times, lb.Best, times)
		}
		if !slices.Equal(space[lb.CPUOnly].Shares, rt.CPUOnly().Shares) || !slices.Equal(space[lb.GPUOnly].Shares, rt.GPUOnly().Shares) {
			t.Fatalf("%s: reference classes %d (%s) and %d (%s)", plat.Name, lb.CPUOnly, space[lb.CPUOnly], lb.GPUOnly, space[lb.GPUOnly])
		}

		// The second candidate ties the first, so it is never the best.
		even := partition.Partition{Shares: []int{4, 3, 3}}
		tied, err := rt.Label(l, prof, []partition.Partition{even, even, rt.GPUOnly()})
		if err != nil {
			t.Fatal(err)
		}
		if tied.Best == 1 || tied.CPUOnly != -1 || tied.GPUOnly != 2 {
			t.Fatalf("%s: label over (even, even, GPU-only) %+v; want best 0 or 2, CPU-only -1, GPU-only 2", plat.Name, tied)
		}
	}
}

// TestPriceMakespanMatchesPriceAndAllocsNothing checks the pooled
// single-candidate pricing path: same makespan as Price, zero
// heap allocations once the scratch pool is warm, whether the launch
// carries its buffers or only their sizes (ArgBytes).
func TestPriceMakespanMatchesPriceAndAllocsNothing(t *testing.T) {
	l, _ := vecaddLaunch(t, 4096)
	rt := New(device.MC2())
	prof, err := rt.Profile(l)
	if err != nil {
		t.Fatal(err)
	}
	shape := l
	shape.Args, shape.ArgBytes = nil, backend.ArgBytes(nil, l.Args)
	space := partition.SharedSpace(3, partition.DefaultSteps)
	for i, part := range space {
		want, _, err := rt.Price(l, prof, part)
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range []Launch{l, shape} {
			got, err := rt.PriceMakespan(pl, prof, part)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("candidate %d (%s), sizes only %v: PriceMakespan %v != Price %v", i, part, pl.Args == nil, got, want)
			}
		}
	}
	if raceEnabled {
		return // race instrumentation allocates; correctness was checked above
	}
	part := space[len(space)/2]
	for _, pl := range []Launch{l, shape} {
		if avg := testing.AllocsPerRun(100, func() {
			if _, err := rt.PriceMakespan(pl, prof, part); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("warm PriceMakespan (sizes only %v) allocates %.2f/op, want 0", pl.Args == nil, avg)
		}
	}
}

// TestBestInAllocationFree pins the tentpole property: pricing a candidate
// in the oracle search must not allocate. The per-call overhead (times
// slice, one scratch, the worker pool) is constant, so the allocation
// count must not grow with the size of the searched space.
func TestBestInAllocationFree(t *testing.T) {
	l, _ := vecaddLaunch(t, 4096)
	rt := New(device.MC2())
	rt.Workers = 1
	prof, err := rt.Profile(l)
	if err != nil {
		t.Fatal(err)
	}
	coarse := partition.SharedSpace(3, 10) // 66 candidates
	fine := partition.SharedSpace(3, 30)   // 496 candidates
	measure := func(space []partition.Partition) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := rt.Label(l, prof, space); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocCoarse := measure(coarse)
	allocFine := measure(fine)
	// 7.5x the candidates must not cost extra allocations beyond the
	// slightly larger times slice. Allow a tiny slack for runtime noise.
	if allocFine > allocCoarse+4 {
		t.Errorf("search allocations grow with space size: %v allocs at 66 candidates, %v at 496",
			allocCoarse, allocFine)
	}
	if allocCoarse > 25 {
		t.Errorf("oracle search allocates %v times per call, want constant small overhead", allocCoarse)
	}
}

// TestSharedSpaceBestMatchesExplicit checks the label over the memoized
// shared space against the label over a freshly enumerated one.
func TestSharedSpaceBestMatchesExplicit(t *testing.T) {
	l, _ := vecaddLaunch(t, 4096)
	rt := New(device.MC1())
	prof, err := rt.Profile(l)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := rt.Label(l, prof, partition.SharedSpace(3, partition.DefaultSteps))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := rt.Label(l, prof, partition.Space(3, partition.DefaultSteps))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, fresh) {
		t.Fatalf("label over the shared space %+v != over a fresh space %+v", shared, fresh)
	}
}
