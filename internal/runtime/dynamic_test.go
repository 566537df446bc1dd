package runtime

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/exec"
)

func TestDynamicScheduleBasics(t *testing.T) {
	rt := New(device.MC2())
	n := 65536
	in, out := exec.NewFloatBuffer(n), exec.NewFloatBuffer(n)
	for i := range in.F {
		in.F[i] = 0.5
	}
	l := makeLaunch(t, heavySrc, "heavy",
		[]exec.Arg{exec.BufArg(in), exec.BufArg(out), exec.IntArg(100)}, exec.ND1(n))
	prof, err := rt.Profile(l)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := rt.DynamicSchedule(l, prof, 20)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	if dyn.Chunks != 20 {
		t.Errorf("chunks = %d, want 20", dyn.Chunks)
	}
	var total float64
	for _, s := range dyn.Shares {
		if s < 0 || s > 1 {
			t.Errorf("share %g out of range", s)
		}
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %g", total)
	}
	// On mc2 with a large compute-bound kernel, the scheduler must use
	// the GPUs for most of the work.
	if dyn.Shares[1]+dyn.Shares[2] < 0.5 {
		t.Errorf("GPUs got only %.0f%% of a compute-bound kernel", (dyn.Shares[1]+dyn.Shares[2])*100)
	}
}

func TestDynamicVsOracle(t *testing.T) {
	// Dynamic scheduling pays per-chunk overhead, so it should not beat
	// the static oracle by more than noise; and it must stay within a
	// sane factor of it for a regular kernel.
	rt := New(device.MC2())
	l, _ := vecaddLaunch(t, 131072)
	prof, err := rt.Profile(l)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := rt.DynamicSchedule(l, prof, 20)
	if err != nil {
		t.Fatal(err)
	}
	_, oracle, err := rt.Best(l, prof)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Makespan < oracle*0.99 {
		t.Errorf("dynamic %g beats static oracle %g: per-chunk costs unaccounted", dyn.Makespan, oracle)
	}
	if dyn.Makespan > oracle*20 {
		t.Errorf("dynamic %g more than 20x off oracle %g", dyn.Makespan, oracle)
	}
}

func TestDynamicScheduleChunkClamping(t *testing.T) {
	rt := New(device.MC1())
	l, _ := vecaddLaunch(t, 256) // 4 groups of 64: at most 4 chunks
	prof, err := rt.Profile(l)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := rt.DynamicSchedule(l, prof, 100)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Chunks > 4 {
		t.Errorf("chunks = %d, want <= 4", dyn.Chunks)
	}
}
