package exec

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// Barrier execution has one strategy per tier: the closure tree blocks a
// persistent pool of item goroutines on a cyclic barrier, the VM suspends
// and resumes frames in rounds on one goroutine, and the vector tier
// retires the whole group per instruction. The tests here run one launch
// on every tier that takes the kernel and compare against the closure
// tree, the reference.

// scanSrc is a barrier-heavy kernel (per-group Hillis-Steele scan): every
// work item synchronizes with its group several times per launch. Its
// varying branch inside the loop keeps it off the vector tier.
const scanSrc = `
kernel void scan(global const float* in, global float* out, local float* tmp, int n) {
	int gid = get_global_id(0);
	int lid = get_local_id(0);
	int lsz = get_local_size(0);
	tmp[lid] = gid < n ? in[gid] : 0.0;
	barrier(1);
	for (int off = 1; off < lsz; off = off * 2) {
		float v = 0.0;
		if (lid >= off) {
			v = tmp[lid - off];
		}
		barrier(1);
		tmp[lid] += v;
		barrier(1);
	}
	out[gid] = tmp[lid];
}`

// reverseSrc reverses each group through local memory; items past n
// return between the two barriers. It vectorizes.
const reverseSrc = `
kernel void reverse(global const float* in, global float* out, local float* tmp, int n) {
	int lid = get_local_id(0);
	int gid = get_global_id(0);
	tmp[lid] = in[gid];
	barrier(1);
	if (gid >= n) {
		return;
	}
	barrier(1);
	out[gid] = tmp[get_local_size(0) - 1 - lid];
}`

// barrierTiers compiles a barrier kernel on every tier that takes it:
// closure and VM always, vec when the kernel vectorizes.
func barrierTiers(t *testing.T, src, kernel string, vec bool) map[Tier]*Compiled {
	t.Helper()
	tiers := map[Tier]*Compiled{
		TierClosure: compileTierSrc(t, src, kernel, TierClosure),
		TierVM:      compileTierSrc(t, src, kernel, TierVM),
	}
	if vec {
		tiers[TierVec] = compileTierSrc(t, src, kernel, TierVec)
	}
	return tiers
}

// runInOut launches an (in, out, local tmp, n) kernel over nTotal items.
func runInOut(t *testing.T, c *Compiled, nTotal, local, n int, opts RunOptions) ([]float32, *Profile) {
	t.Helper()
	in, out := NewFloatBuffer(nTotal), NewFloatBuffer(nTotal)
	for i := range in.F {
		in.F[i] = float32(i%13) * 0.25
	}
	nd := NDRange{Global: [3]int{nTotal, 1, 1}, Local: [3]int{local, 1, 1}}
	prof, err := c.Run([]Arg{BufArg(in), BufArg(out), LocalArg(local), IntArg(n)}, nd, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out.F, prof
}

// TestBarrierTiersByteIdentical is the golden determinism check for the
// barrier strategies: VM suspend-resume rounds and the vector tier must
// produce buffers and profiles bit-identical to the closure tree's
// blocking item pool, for every host worker count. Run under -race in
// CI, this also exercises the pool's synchronization (dispatch, cyclic
// barrier reuse, join) across many reused groups.
func TestBarrierTiersByteIdentical(t *testing.T) {
	for _, k := range []struct {
		src, kernel string
		vec         bool
		n           int
	}{
		{scanSrc, "scan", false, 1024},
		{reverseSrc, "reverse", true, 700},
	} {
		const nTotal, local = 1024, 64
		tiers := barrierTiers(t, k.src, k.kernel, k.vec)
		wantOut, wantProf := runInOut(t, tiers[TierClosure], nTotal, local, k.n, RunOptions{Workers: 1})
		for tier, c := range tiers {
			for _, workers := range []int{1, 2, 4, 8} {
				gotOut, gotProf := runInOut(t, c, nTotal, local, k.n, RunOptions{Workers: workers})
				if !reflect.DeepEqual(gotOut, wantOut) {
					t.Fatalf("%s tier=%v workers=%d: output differs from the closure reference", k.kernel, tier, workers)
				}
				if gotProf.Global0 != wantProf.Global0 || !reflect.DeepEqual(gotProf.Buckets, wantProf.Buckets) {
					t.Fatalf("%s tier=%v workers=%d: profile differs from the closure reference", k.kernel, tier, workers)
				}
			}
		}
	}
}

// TestBarrierFallbackDivergent checks that a kernel whose items reach
// different barrier statements runs correctly on every tier: no strategy
// depends on a proof that barriers sit under uniform control flow.
func TestBarrierFallbackDivergent(t *testing.T) {
	src := `kernel void d(global float* o, local float* tmp) {
		int lid = get_local_id(0);
		if (lid == 0) {
			tmp[0] = 42.0;
			barrier(1);
		} else {
			barrier(1);
		}
		o[get_global_id(0)] = tmp[0];
	}`
	tiers := barrierTiers(t, src, "d", true)
	n, local := 64, 8
	nd := NDRange{Global: [3]int{n, 1, 1}, Local: [3]int{local, 1, 1}}
	var ref *Profile
	for _, tier := range []Tier{TierClosure, TierVM, TierVec} {
		o := NewFloatBuffer(n)
		prof, err := tiers[tier].Run([]Arg{BufArg(o), LocalArg(local)}, nd, RunOptions{})
		if err != nil {
			t.Fatalf("%v: %v", tier, err)
		}
		for i, v := range o.F {
			if v != 42 {
				t.Fatalf("%v: o[%d] = %g, want 42", tier, i, v)
			}
		}
		if ref == nil {
			ref = prof
		} else if !reflect.DeepEqual(prof.Buckets, ref.Buckets) {
			t.Fatalf("%v: profile differs from the closure reference", tier)
		}
	}
}

// TestLockstepEarlyReturn checks the single-goroutine strategies against
// the blocking one: items that return before later barriers stop
// executing (and stop counting) on the VM and the vector tier exactly
// like goroutine items leaving the closure tree's barrier.
func TestLockstepEarlyReturn(t *testing.T) {
	tiers := barrierTiers(t, reverseSrc, "reverse", true)
	const nTotal, local, n = 64, 8, 44
	want, wantProf := runInOut(t, tiers[TierClosure], nTotal, local, n, RunOptions{})
	for gid, v := range want {
		exp := float32(0)
		if gid < n {
			src := gid - gid%local + local - 1 - gid%local
			exp = float32(src%13) * 0.25
		}
		if v != exp {
			t.Fatalf("closure: out[%d] = %g, want %g", gid, v, exp)
		}
	}
	for _, tier := range []Tier{TierVM, TierVec} {
		got, gotProf := runInOut(t, tiers[tier], nTotal, local, n, RunOptions{})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: early-return outputs differ: %v vs %v", tier, got, want)
		}
		if !reflect.DeepEqual(gotProf.Buckets, wantProf.Buckets) {
			t.Fatalf("%v: early-return profile differs from the closure reference", tier)
		}
	}
}

// TestBarrierPoolReusedAcrossGroups drives one runner through many barrier
// groups (64 groups on one worker) so every group after the first must hit
// the reused item goroutines (closure) or the reused frames (VM), and
// verifies the scan semantics survive.
func TestBarrierPoolReusedAcrossGroups(t *testing.T) {
	const n, local = 2048, 32
	for tier, c := range barrierTiers(t, scanSrc, "scan", false) {
		out, prof := runInOut(t, c, n, local, n, RunOptions{Workers: 1})
		for g := 0; g < n/local; g++ {
			var want float32
			for l := 0; l < local; l++ {
				i := g*local + l
				want += float32(i%13) * 0.25
				if out[i] != want {
					t.Fatalf("%v: group %d item %d: scan = %g, want %g", tier, g, l, out[i], want)
				}
			}
		}
		if got := prof.Total().Items; got != n {
			t.Fatalf("%v: profiled %d items, want %d", tier, got, n)
		}
	}
}

// TestBarrierPanicPropagates checks fault handling through every barrier
// strategy: a runtime fault inside a barrier group must surface as an
// error from Run, not hang the pool or crash the process. One item per
// group faults, so on one worker the message is deterministic and must
// match the closure reference.
func TestBarrierPanicPropagates(t *testing.T) {
	src := `kernel void bad(global float* o, local float* tmp) {
		int lid = get_local_id(0);
		tmp[lid] = 1.0;
		barrier(1);
		o[get_global_id(0) + (lid == 3 ? 100000 : 0)] = tmp[lid];
	}`
	tiers := barrierTiers(t, src, "bad", true)
	nd := NDRange{Global: [3]int{64, 1, 1}, Local: [3]int{8, 1, 1}}
	var want string
	for _, tier := range []Tier{TierClosure, TierVM, TierVec} {
		for _, workers := range []int{1, 4} {
			_, err := tiers[tier].Run([]Arg{BufArg(NewFloatBuffer(64)), LocalArg(8)}, nd, RunOptions{Workers: workers})
			if err == nil {
				t.Fatalf("%v workers=%d: out-of-bounds store in barrier group not reported", tier, workers)
			}
			if workers > 1 {
				continue
			}
			if want == "" {
				want = err.Error()
			} else if err.Error() != want {
				t.Fatalf("%v: fault %q, closure reference %q", tier, err, want)
			}
		}
	}
}

// TestServedTiersCarryNoClosureState pins the either/or split: a kernel
// compiled for the VM or the vector tier holds no closure body, and its
// group runner builds only that tier's frames — on the vector tier no
// per-item scalar frames until a group bails; the closure tree in turn
// carries no bytecode.
func TestServedTiersCarryNoClosureState(t *testing.T) {
	// Groups 0-6 lie below n and stay on the vector tier; group 7's lanes
	// disagree at reverse's `gid >= n` between the two barriers, which has
	// no join, and complete on the scalar VM.
	const total, local, n = 512, 64, 480
	nd := NDRange{Global: [3]int{total, 1, 1}, Local: [3]int{local, 1, 1}}
	args := []Arg{BufArg(NewFloatBuffer(total)), BufArg(NewFloatBuffer(total)), LocalArg(local), IntArg(n)}
	runner := func(c *Compiled) *groupRunner {
		r := c.getRunner(args, nd)
		r.bind(args, nd, [3]int64{total / local, 1, 1}, make([]Counts, 1), nil)
		t.Cleanup(r.close)
		return r
	}
	tiers := barrierTiers(t, reverseSrc, "reverse", true)
	for _, tier := range []Tier{TierVM, TierVec} {
		c := tiers[tier]
		if c.body != nil || c.paramSlots != nil || c.slotOf != nil {
			t.Errorf("%v: Compiled carries closure state", tier)
		}
		r := runner(c)
		if r.frames != nil || r.bar != nil {
			t.Errorf("%v: runner built closure frames", tier)
		}
		if (r.vecFrame != nil) != (tier == TierVec) {
			t.Errorf("%v: runner has a vector frame: %v", tier, r.vecFrame != nil)
		}
		r.runGroup(0, 0, 0)
		if want := map[Tier]int{TierVM: local, TierVec: 0}[tier]; len(r.vmFrames) != want || r.vecBail != 0 {
			t.Errorf("%v: %d scalar frames and %d bails after a convergent group, want %d and 0", tier, len(r.vmFrames), r.vecBail, want)
		}
		r.runGroup(7, 0, 0)
		if len(r.vmFrames) != local || (r.vecBail == 1) != (tier == TierVec) {
			t.Errorf("%v: %d scalar frames and %d bails after the divergent group", tier, len(r.vmFrames), r.vecBail)
		}
	}
	cl := tiers[TierClosure]
	if cl.body == nil || cl.VM() != nil || cl.Vec() != nil {
		t.Error("closure: want a body and no bytecode")
	}
	if r := runner(cl); len(r.frames) != local || r.vmFrames != nil || r.vecFrame != nil {
		t.Errorf("closure: runner frames: %d closure, vm %v, vec %v", len(r.frames), r.vmFrames != nil, r.vecFrame != nil)
	}

	// The same split seen from outside. A closure launch builds its
	// per-item frames every time; a served tier's runner waits on the
	// kernel's idle list, so a repeat launch builds none.
	allocs := map[Tier]float64{}
	for tier, c := range tiers {
		allocs[tier] = testing.AllocsPerRun(5, func() {
			if _, err := c.Run(args, nd, RunOptions{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[TierClosure] < local || allocs[TierVM] > 4 || allocs[TierVec] > 4 {
		t.Errorf("allocations per repeat launch: %v, want closure >= %d and vm, vec <= 4", allocs, local)
	}
}

// TestRunnerReuseRebindsEverything launches one compiled kernel again and
// again with different buffers, scalar arguments, sizes and budgets, so
// every launch after the first runs on a runner the previous one parked,
// and compares each with the same launch on a kernel compiled afresh. A
// launch that faults or runs out of steps parks its runner too, and the
// next launch must not see it.
func TestRunnerReuseRebindsEverything(t *testing.T) {
	type shot struct {
		total, n int
		steps    int64 // step budget, 0 = none
		fault    bool  // out buffer too short
	}
	shots := []shot{
		{total: 512, n: 480}, {total: 1024, n: 700}, {total: 512, n: 100, fault: true},
		{total: 256, n: 256}, {total: 512, n: 480, steps: 1}, {total: 1024, n: 1000},
	}
	launch := func(c *Compiled, s shot) ([]float32, *Profile, error) {
		in, out := NewFloatBuffer(s.total), NewFloatBuffer(s.total)
		for i := range in.F {
			in.F[i] = float32((i+s.n)%13) * 0.25
		}
		if s.fault {
			out = NewFloatBuffer(s.n / 2)
		}
		nd := NDRange{Global: [3]int{s.total, 1, 1}, Local: [3]int{64, 1, 1}}
		opts := RunOptions{Workers: 1}
		if s.steps > 0 {
			opts.Budget = NewBudget(context.Background(), s.steps, 0)
		}
		prof, err := c.Run([]Arg{BufArg(in), BufArg(out), LocalArg(64), IntArg(s.n)}, nd, opts)
		return out.F, prof, err
	}
	for _, k := range []struct {
		src, kernel string
		tiers       []Tier
	}{
		{reverseSrc, "reverse", []Tier{TierVM, TierVec}},
		{scanSrc, "scan", []Tier{TierVM}},
	} {
		for _, tier := range k.tiers {
			reused := compileTierSrc(t, k.src, k.kernel, tier)
			for i, s := range shots {
				got, gotProf, gotErr := launch(reused, s)
				want, wantProf, wantErr := launch(compileTierSrc(t, k.src, k.kernel, tier), s)
				if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
					t.Fatalf("%s %v shot %d: error %v on a reused runner, %v on a new one", k.kernel, tier, i, gotErr, wantErr)
				}
				if (s.fault || s.steps > 0) && k.kernel == "scan" && gotErr == nil {
					t.Fatalf("%s %v shot %d: want a fault or budget abort", k.kernel, tier, i)
				}
				if gotErr != nil {
					continue
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotProf.Buckets, wantProf.Buckets) {
					t.Fatalf("%s %v shot %d: a reused runner's buffers or profile differ from a new one's", k.kernel, tier, i)
				}
			}
			if n := len(reused.runners.idle); n != 1 {
				t.Errorf("%s %v: %d idle runners after %d one-worker launches, want 1", k.kernel, tier, n, len(shots))
			}
		}
	}
}

// TestRunnerPoolConcurrentLaunches shares one compiled kernel between
// goroutines that launch it at once, each on buffers of its own and with
// two host workers, so runners are taken from and parked on the idle list
// concurrently; every launch must compute what a launch on a kernel of
// its own computes. Run under -race in CI.
func TestRunnerPoolConcurrentLaunches(t *testing.T) {
	launch := func(c *Compiled, total, n int) ([]float32, *Profile, error) {
		in, out := NewFloatBuffer(total), NewFloatBuffer(total)
		for i := range in.F {
			in.F[i] = float32((i+n)%13) * 0.25
		}
		nd := NDRange{Global: [3]int{total, 1, 1}, Local: [3]int{64, 1, 1}}
		prof, err := c.Run([]Arg{BufArg(in), BufArg(out), LocalArg(64), IntArg(n)}, nd, RunOptions{Workers: 2})
		return out.F, prof, err
	}
	for _, tier := range []Tier{TierVM, TierVec} {
		shared := compileTierSrc(t, reverseSrc, "reverse", tier)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			own := compileTierSrc(t, reverseSrc, "reverse", tier)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 6; i++ {
					total, n := 512<<(i%2), 300+37*g+11*i
					got, gotProf, err := launch(shared, total, n)
					want, wantProf, wantErr := launch(own, total, n)
					if err != nil || wantErr != nil {
						t.Errorf("%v goroutine %d launch %d: %v, %v", tier, g, i, err, wantErr)
						return
					}
					if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotProf.Buckets, wantProf.Buckets) {
						t.Errorf("%v goroutine %d launch %d: shared kernel's buffers or profile differ", tier, g, i)
					}
				}
			}()
		}
		wg.Wait()
		if n := len(shared.runners.idle); n == 0 || n > maxIdleRunners() {
			t.Errorf("%v: %d idle runners, want 1..%d", tier, n, maxIdleRunners())
		}
	}
}
