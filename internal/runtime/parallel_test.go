package runtime

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/partition"
)

// heavyLaunch builds a compute-bound launch with its own fresh buffers so
// sequential and parallel executions never share state.
func heavyLaunch(t *testing.T, n int) (Launch, *exec.Buffer) {
	t.Helper()
	in, out := exec.NewFloatBuffer(n), exec.NewFloatBuffer(n)
	for i := 0; i < n; i++ {
		in.F[i] = float32(i%97) / 97
	}
	l := makeLaunch(t, heavySrc, "heavy",
		[]exec.Arg{exec.BufArg(in), exec.BufArg(out), exec.IntArg(40)}, exec.ND1(n))
	return l, out
}

// TestBestParallelMatchesSequential is the golden determinism check for
// the oracle search: the parallel search must return the bit-identical
// partition and makespan the sequential loop returns.
func TestBestParallelMatchesSequential(t *testing.T) {
	for _, plat := range []*device.Platform{device.MC1(), device.MC2()} {
		l, _ := vecaddLaunch(t, 4096)
		seq := New(plat)
		seq.Workers = 1
		prof, err := seq.Profile(l)
		if err != nil {
			t.Fatal(err)
		}
		wantPart, wantTime, err := seq.Best(l, prof)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			par := New(plat)
			par.Workers = workers
			gotPart, gotTime, err := par.Best(l, prof)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotPart, wantPart) || gotTime != wantTime {
				t.Fatalf("%s workers=%d: Best = (%v, %v), sequential = (%v, %v)",
					plat.Name, workers, gotPart, gotTime, wantPart, wantTime)
			}
		}
	}
}

// TestBestInFinerGrid checks the parallel search on a non-default space.
func TestBestInFinerGrid(t *testing.T) {
	l, _ := vecaddLaunch(t, 4096)
	seq := New(device.MC2())
	seq.Workers = 1
	prof, err := seq.Profile(l)
	if err != nil {
		t.Fatal(err)
	}
	space := partition.Space(3, 20)
	wantPart, wantTime, err := seq.BestIn(l, prof, space)
	if err != nil {
		t.Fatal(err)
	}
	par := New(device.MC2())
	par.Workers = 8
	gotPart, gotTime, err := par.BestIn(l, prof, space)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPart, wantPart) || gotTime != wantTime {
		t.Fatalf("BestIn parallel (%v, %v) != sequential (%v, %v)", gotPart, gotTime, wantPart, wantTime)
	}
}

// TestExecuteParallelMatchesSequential is the golden determinism check for
// a launch's host workers: Execute at one worker and at eight must produce
// the same output buffers, profile, makespan and breakdowns. And since a
// launch runs once over the whole NDRange whatever the partitioning, its
// profile is the same under every partitioning, and the same as Profile's.
func TestExecuteParallelMatchesSequential(t *testing.T) {
	parts := []partition.Partition{
		{Shares: []int{4, 3, 3}},
		{Shares: []int{0, 10, 0}},
		{Shares: []int{1, 1, 8}},
	}
	profL, _ := heavyLaunch(t, 2048)
	want, err := New(device.MC1()).Profile(profL)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range parts {
		seqL, seqOut := heavyLaunch(t, 2048)
		seq := New(device.MC1())
		seq.Workers = 1
		seqRes, err := seq.Execute(seqL, part)
		if err != nil {
			t.Fatal(err)
		}

		parL, parOut := heavyLaunch(t, 2048)
		par := New(device.MC1())
		par.Workers = 8
		parRes, err := par.Execute(parL, part)
		if err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(seqOut.F, parOut.F) {
			t.Fatalf("partition %v: output buffers differ between sequential and parallel execution", part)
		}
		if seqRes.Makespan != parRes.Makespan {
			t.Fatalf("partition %v: makespan %v != %v", part, parRes.Makespan, seqRes.Makespan)
		}
		if !reflect.DeepEqual(seqRes.Profile, parRes.Profile) {
			t.Fatalf("partition %v: profiles differ between sequential and parallel execution", part)
		}
		if !reflect.DeepEqual(seqRes.Breakdowns, parRes.Breakdowns) {
			t.Fatalf("partition %v: breakdowns differ between sequential and parallel execution", part)
		}
		if !reflect.DeepEqual(seqRes.Profile.Buckets, want.Buckets) {
			t.Fatalf("partition %v: Execute's profile differs from Profile's", part)
		}
	}
}

// TestExecuteParallelError: a partitioning over more devices than the
// platform has is refused by Execute and Run before anything runs, at any
// worker count.
func TestExecuteParallelError(t *testing.T) {
	l, out := vecaddLaunch(t, 1024)
	l.ND.Local[0] = 64
	rt := New(device.MC2())
	rt.Workers = 8
	// 7 devices on a 3-device platform: checkPartition must reject it.
	bad := partition.Partition{Shares: []int{1, 1, 1, 1, 1, 1, 4}}
	if _, err := rt.Execute(l, bad); err == nil {
		t.Fatal("Execute: expected partition mismatch error")
	}
	if _, err := rt.Run(l, bad); err == nil {
		t.Fatal("Run: expected partition mismatch error")
	}
	for i, v := range out.F {
		if v != 0 {
			t.Fatalf("out[%d] = %g: a refused launch ran", i, v)
		}
	}
}

// branchySrc splits every vector group at a varying branch, so a launch
// carries divergence telemetry as well as counts.
const branchySrc = `
kernel void branchy(global const float* in, global float* out, int n) {
    int i = get_global_id(0);
    float x = in[i];
    if (x > 0.5) {
        x = sqrt(x) * 2.0;
    } else {
        x = x + 1.0;
    }
    out[i] = x;
}
`

// TestRunKeepsExecuteTotals: Run executes what Execute executes — same
// output buffers, same count totals (Execute's 200 buckets summed are
// Run's one), same divergence telemetry — at one host worker and at
// eight, and fails where Execute fails.
func TestRunKeepsExecuteTotals(t *testing.T) {
	launch := func() (Launch, *exec.Buffer) {
		n := 2048
		in, out := exec.NewFloatBuffer(n), exec.NewFloatBuffer(n)
		for i := range in.F {
			in.F[i] = float32(i%97) / 97
		}
		return makeLaunch(t, branchySrc, "branchy",
			[]exec.Arg{exec.BufArg(in), exec.BufArg(out), exec.IntArg(n)}, exec.ND1(n)), out
	}
	for _, part := range []partition.Partition{
		{Shares: []int{4, 3, 3}},
		{Shares: []int{0, 10, 0}},
		{Shares: []int{1, 1, 8}},
	} {
		for _, workers := range []int{1, 8} {
			rt := New(device.MC2())
			rt.Workers = workers
			exL, exOut := launch()
			res, err := rt.Execute(exL, part)
			if err != nil {
				t.Fatal(err)
			}
			runL, runOut := launch()
			prof, err := rt.Run(runL, part)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(exOut.F, runOut.F) {
				t.Fatalf("%v workers=%d: Run wrote other outputs than Execute", part, workers)
			}
			if len(prof.Buckets) != 1 || prof.Global0 != res.Profile.Global0 {
				t.Fatalf("%v workers=%d: Run's profile has %d buckets over %d items", part, workers, len(prof.Buckets), prof.Global0)
			}
			if want := res.Profile.Total(); prof.Buckets[0] != want {
				t.Fatalf("%v workers=%d: Run counted %+v, Execute %+v", part, workers, prof.Buckets[0], want)
			}
			p := res.Profile
			if prof.VecDivergences != p.VecDivergences || prof.VecReconverges != p.VecReconverges ||
				prof.VecScalarBails != p.VecScalarBails || p.VecDivergences == 0 {
				t.Fatalf("%v workers=%d: divergences/reconverges/bails %d/%d/%d from Run, %d/%d/%d from Execute",
					part, workers, prof.VecDivergences, prof.VecReconverges, prof.VecScalarBails,
					p.VecDivergences, p.VecReconverges, p.VecScalarBails)
			}
		}
	}
	rt := New(device.MC2())
	l, _ := launch()
	if _, err := rt.Run(l, partition.Partition{Shares: []int{10}}); err == nil {
		t.Error("Run: want partition arity error")
	}
	part := partition.Partition{Shares: []int{4, 3, 3}}
	l.Budget = exec.NewBudget(context.Background(), 100, 0)
	_, runErr := rt.Run(l, part)
	l.Budget = exec.NewBudget(context.Background(), 100, 0)
	_, exErr := rt.Execute(l, part)
	for _, err := range []error{runErr, exErr} {
		var be *exec.BudgetError
		if !errors.As(err, &be) || be.Kind != exec.BudgetSteps {
			t.Fatalf("100-step budget: Run %v, Execute %v; want a steps abort from both", runErr, exErr)
		}
	}
}
