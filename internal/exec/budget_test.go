package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
	_ "unsafe" // go:linkname, for vmStepLease

	"repro/internal/inspire"
)

// spinSrc loops forever: the induction variable walks away from the
// bound, so only a resource budget can stop it. Lowerable on both tiers.
const spinSrc = `kernel void spin(global float* out) {
	int i = 0;
	while (i < 2) {
		i = i - 1;
	}
	out[get_global_id(0)] = 1.0;
}`

func compileTierSrc(t *testing.T, src, kernel string, tier Tier) *Compiled {
	t.Helper()
	u, err := inspire.LowerSource("test", src)
	if err != nil {
		t.Fatal(err)
	}
	k := u.Kernel(kernel)
	if k == nil {
		t.Fatalf("kernel %q not found", kernel)
	}
	c, err := CompileTier(k, tier)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func wantBudgetErr(t *testing.T, err error, kind string) *BudgetError {
	t.Helper()
	if err == nil {
		t.Fatalf("run succeeded, want %s budget abort", kind)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v (%T), want *BudgetError", err, err)
	}
	if be.Kind != kind {
		t.Fatalf("BudgetError.Kind = %q, want %q (err: %v)", be.Kind, kind, be)
	}
	return be
}

func eachTier(t *testing.T, fn func(t *testing.T, tier Tier)) {
	for _, tc := range []struct {
		name string
		tier Tier
	}{{"vm", TierVM}, {"closure", TierClosure}, {"vec", TierVec}} {
		t.Run(tc.name, func(t *testing.T) { fn(t, tc.tier) })
	}
}

func TestStepBudgetAbortsInfiniteLoop(t *testing.T) {
	eachTier(t, func(t *testing.T, tier Tier) {
		c := compileTierSrc(t, spinSrc, "spin", tier)
		out := NewFloatBuffer(64)
		b := NewBudget(context.Background(), 100_000, 0)
		done := make(chan error, 1)
		go func() {
			_, err := c.Run([]Arg{BufArg(out)}, ND1(64), RunOptions{Budget: b})
			done <- err
		}()
		select {
		case err := <-done:
			be := wantBudgetErr(t, err, BudgetSteps)
			if be.Limit != 100_000 {
				t.Errorf("Limit = %d, want 100000", be.Limit)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("budgeted infinite loop did not abort within 30s")
		}
	})
}

func TestDeadlineBudgetAbortsInfiniteLoop(t *testing.T) {
	eachTier(t, func(t *testing.T, tier Tier) {
		c := compileTierSrc(t, spinSrc, "spin", tier)
		out := NewFloatBuffer(64)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		b := NewBudget(ctx, 0, 0)
		start := time.Now()
		_, err := c.Run([]Arg{BufArg(out)}, ND1(64), RunOptions{Budget: b})
		wantBudgetErr(t, err, BudgetDeadline)
		if el := time.Since(start); el > 10*time.Second {
			t.Errorf("deadline abort took %v, want well under 10s", el)
		}
	})
}

func TestCancelAbortsInfiniteLoop(t *testing.T) {
	eachTier(t, func(t *testing.T, tier Tier) {
		c := compileTierSrc(t, spinSrc, "spin", tier)
		out := NewFloatBuffer(64)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		b := NewBudget(ctx, 0, 0)
		_, err := c.Run([]Arg{BufArg(out)}, ND1(64), RunOptions{Budget: b})
		wantBudgetErr(t, err, BudgetDeadline)
	})
}

func TestMemoryBudgetAbortsLocalAllocation(t *testing.T) {
	src := `kernel void fill(global float* out, local float* tmp) {
		int lid = get_local_id(0);
		tmp[lid] = 1.0;
		out[get_global_id(0)] = tmp[lid];
	}`
	eachTier(t, func(t *testing.T, tier Tier) {
		c := compileTierSrc(t, src, "fill", tier)
		out := NewFloatBuffer(64)
		// 64 floats of local memory = 256 bytes per worker; a 100-byte
		// budget must refuse the very first allocation.
		b := NewBudget(context.Background(), 0, 100)
		_, err := c.Run([]Arg{BufArg(out), LocalArg(64)}, ND1(64), RunOptions{Budget: b})
		wantBudgetErr(t, err, BudgetMemory)
	})
}

// TestBudgetedRunMatchesUnbudgeted pins that a generous budget changes
// nothing observable: buffers and profiles stay byte-identical, so the
// vmdiff parity guarantees extend to budgeted serving.
func TestBudgetedRunMatchesUnbudgeted(t *testing.T) {
	src := `kernel void rowsum(global const float* a, global float* out, int n) {
		int i = get_global_id(0);
		float s = 0.0;
		for (int j = 0; j < n; j++) {
			s += a[i * n + j];
		}
		out[i] = s;
	}`
	eachTier(t, func(t *testing.T, tier Tier) {
		c := compileTierSrc(t, src, "rowsum", tier)
		n := 64
		run := func(b *Budget) ([]float32, *Profile) {
			a, out := NewFloatBuffer(n*n), NewFloatBuffer(n)
			for i := range a.F {
				a.F[i] = float32(i%13) * 0.5
			}
			prof, err := c.Run([]Arg{BufArg(a), BufArg(out), IntArg(n)}, ND1(n), RunOptions{Budget: b})
			if err != nil {
				t.Fatal(err)
			}
			return out.F, prof
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		plain, plainProf := run(nil)
		budgeted, budgetedProf := run(NewBudget(ctx, 1_000_000_000, 1<<30))
		for i := range plain {
			if plain[i] != budgeted[i] {
				t.Fatalf("out[%d]: budgeted %g != unbudgeted %g", i, budgeted[i], plain[i])
			}
		}
		if pt, bt := plainProf.Total(), budgetedProf.Total(); pt != bt {
			t.Errorf("profile totals diverge: %+v vs %+v", pt, bt)
		}
	})
}

// TestStepBudgetBarrierPathsNoHang drives a barrier kernel that spins
// forever through every tier's barrier strategy with a small step
// budget: each must return a structured abort rather than deadlock at
// the barrier (on the closure tree's blocking pool, items that abort
// leave the barrier; survivors exhaust the shared step pool and abort
// too), reporting the same spent/limit as the closure reference.
func TestStepBudgetBarrierPathsNoHang(t *testing.T) {
	src := `kernel void bspin(global float* out, local float* tmp) {
		int lid = get_local_id(0);
		tmp[lid] = 1.0;
		barrier(1);
		int i = 0;
		while (i < 2) {
			i = i - 1;
		}
		out[get_global_id(0)] = tmp[lid];
	}`
	abort := func(t *testing.T, tier Tier) *BudgetError {
		c := compileTierSrc(t, src, "bspin", tier)
		out := NewFloatBuffer(128)
		b := NewBudget(context.Background(), 200_000, 0)
		done := make(chan error, 1)
		go func() {
			_, err := c.Run([]Arg{BufArg(out), LocalArg(64)}, ND1(128), RunOptions{Budget: b})
			done <- err
		}()
		select {
		case err := <-done:
			return wantBudgetErr(t, err, BudgetSteps)
		case <-time.After(30 * time.Second):
			t.Fatalf("%v tier: budgeted barrier spin did not abort", tier)
			return nil
		}
	}
	want := abort(t, TierClosure)
	eachTier(t, func(t *testing.T, tier Tier) {
		if got := abort(t, tier); *got != *want {
			t.Errorf("abort %+v, closure reference %+v", *got, *want)
		}
	})
}

// TestExpiredBackstopStraightLine pins the between-groups deadline check:
// a kernel with no loops never burns fuel, but an already-expired budget
// still aborts the launch.
func TestExpiredBackstopStraightLine(t *testing.T) {
	c := compileSrc(t, vecaddSrc, "vecadd")
	n := 256
	a, b, out := NewFloatBuffer(n), NewFloatBuffer(n), NewFloatBuffer(n)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the launch starts
	bud := NewBudget(ctx, 0, 0)
	_, err := c.Run([]Arg{BufArg(a), BufArg(b), BufArg(out), IntArg(n)}, ND1(n), RunOptions{Budget: bud})
	wantBudgetErr(t, err, BudgetDeadline)
}

// vmStepLease is vm.stepLease, the number of steps a frame draws from a
// budget's pool at once; only TestFuelParityAtLeaseOne writes it (the
// generator in kgen_test.go reads it to size its tight budgets).
//
//go:linkname vmStepLease repro/internal/exec/vm.stepLease
var vmStepLease int64

// stepsTaken returns the smallest step limit under which c completes
// the launch on one worker: with vmStepLease at one, exactly the number
// of steps the launch takes. It doubles the limit until the launch
// completes, then bisects (completing is monotone in the limit).
func stepsTaken(t *testing.T, c *Compiled, args func() []Arg, nd NDRange) int64 {
	t.Helper()
	completes := func(limit int64) bool {
		opts := RunOptions{Workers: 1, Budget: NewBudget(context.Background(), limit, 0)}
		_, err := c.Run(args(), nd, opts)
		if err != nil {
			wantBudgetErr(t, err, BudgetSteps)
		}
		return err == nil
	}
	hi := int64(1)
	for !completes(hi) {
		hi *= 2
	}
	lo := hi / 2 // fails, or 0
	for lo+1 < hi {
		if mid := (lo + hi) / 2; completes(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestFuelParityAtLeaseOne is the exact fuel oracle. A production lease
// is 4096 steps per frame — per item on the scalar VM, per group on the
// vector tier — so a step budget cuts the two off at different points
// and a vector group could under-charge a jump without any test seeing
// it. With a lease of one every step is its own draw from the pool:
// the smallest step limit a launch completes under is then exactly the
// number of steps it takes, and it must be the same on both tiers for
// every vectorizable vmdiff kernel and for the generator's non-faulting
// kernels (kgen_test.go: splits nested inside loops, ragged guarded
// loops) — W per jump a group takes together, one per taken lane at a
// divergence split, one per jump inside a side.
func TestFuelParityAtLeaseOne(t *testing.T) {
	defer func(lease int64) { vmStepLease = lease }(vmStepLease)
	vmStepLease = 1

	// parity reports whether the launch split and re-formed a group.
	parity := func(t *testing.T, cVM, cVec *Compiled, args func() []Arg, nd NDRange) bool {
		if sVM, sVec := stepsTaken(t, cVM, args, nd), stepsTaken(t, cVec, args, nd); sVM != sVec {
			t.Errorf("steps drawn from the pool: vm %d, vec %d", sVM, sVec)
		}
		prof, err := cVec.Run(args(), nd, RunOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return prof.VecReconverges > 0
	}

	vectorizable, splits := 0, false
	for _, tc := range vmdiffCases() {
		u, err := inspire.LowerSource("test", tc.src)
		if err != nil {
			t.Fatal(err)
		}
		cVec, err := CompileTier(u.Kernel(tc.kernel), TierVec)
		if err != nil {
			continue // not vectorizable: the launch runs on the scalar VM either way
		}
		vectorizable++
		nd := tc.nd
		if nd.Local[0] == 0 && nd.Global[0]%DefaultLocal0 != 0 {
			nd.Local[0] = nd.Global[0] // the default would be single-item groups, which never vectorize
		}
		t.Run(tc.name, func(t *testing.T) {
			split := parity(t, compileTierSrc(t, tc.src, tc.kernel, TierVM), cVec, tc.args, nd)
			splits = splits || split
		})
	}
	if vectorizable == 0 || !splits {
		t.Fatalf("%d vectorizable vmdiff kernels, split and re-formed: %v — the oracle needs both", vectorizable, splits)
	}

	seeds, generated, genSplits := int64(150), 0, 0
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(0); seed < seeds; seed++ {
		src, l, faulty, _ := kgenSeed(seed)
		if faulty {
			continue
		}
		generated++
		t.Run(fmt.Sprint("kgen/", seed), func(t *testing.T) {
			if parity(t, compileTierSrc(t, src, "k", TierVM), compileTierSrc(t, src, "k", TierVec), l.args, l.nd()) {
				genSplits++
			}
		})
	}
	if generated < int(seeds)/2 || genSplits < generated/2 {
		t.Fatalf("%d of %d seeds gave a non-faulting kernel and %d of those split and re-formed a group", generated, seeds, genSplits)
	}
}
