package runtime

import (
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

// TestPriceMakespanMatchesPriceAndAllocsNothing checks the serving
// engine's single-candidate pricing path: same makespan as Price, zero
// heap allocations once the scratch pool is warm, whether the launch
// carries its buffers or only their sizes (ArgBytes).
func TestPriceMakespanMatchesPriceAndAllocsNothing(t *testing.T) {
	l, _ := vecaddLaunch(t, 4096)
	rt := New(device.MC2())
	prof, err := rt.Profile(l)
	if err != nil {
		t.Fatal(err)
	}
	prof.Precompute()
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
	prof.Precompute()
	measure := func(space []partition.Partition) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, _, err := rt.BestIn(l, prof, space); err != nil {
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

// TestSharedSpaceBestMatchesExplicit checks Best (memoized shared space)
// against BestIn over a freshly enumerated space.
func TestSharedSpaceBestMatchesExplicit(t *testing.T) {
	l, _ := vecaddLaunch(t, 4096)
	rt := New(device.MC1())
	prof, err := rt.Profile(l)
	if err != nil {
		t.Fatal(err)
	}
	p1, t1, err := rt.Best(l, prof)
	if err != nil {
		t.Fatal(err)
	}
	p2, t2, err := rt.BestIn(l, prof, partition.Space(3, partition.DefaultSteps))
	if err != nil {
		t.Fatal(err)
	}
	if p1.String() != p2.String() || t1 != t2 {
		t.Fatalf("Best over shared space (%s, %v) != fresh space (%s, %v)", p1, t1, p2, t2)
	}
}
