package runtime

import (
	"math"
	"testing"

	"repro/internal/backend"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/inspire"
	"repro/internal/partition"
)

const vecaddSrc = `
kernel void vecadd(global const float* a, global const float* b,
                   global float* c, int n) {
    int i = get_global_id(0);
    if (i < n) { c[i] = a[i] + b[i]; }
}
`

// heavySrc is a compute-bound kernel: per-item transcendental loop.
const heavySrc = `
kernel void heavy(global const float* in, global float* out, int iters) {
    int i = get_global_id(0);
    float x = in[i];
    for (int k = 0; k < iters; k++) {
        x = x * 0.999 + 0.001;
        x = sqrt(x * x + 0.5);
    }
    out[i] = x;
}
`

func makeLaunch(t *testing.T, src, kernel string, args []exec.Arg, nd exec.NDRange) Launch {
	t.Helper()
	u, err := inspire.LowerSource("t", src)
	if err != nil {
		t.Fatal(err)
	}
	k := u.Kernel(kernel)
	comp, err := exec.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := backend.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	return Launch{Kernel: comp, Plan: plan, Args: args, ND: nd}
}

func vecaddLaunch(t *testing.T, n int) (Launch, *exec.Buffer) {
	a, b, c := exec.NewFloatBuffer(n), exec.NewFloatBuffer(n), exec.NewFloatBuffer(n)
	for i := 0; i < n; i++ {
		a.F[i] = float32(i)
		b.F[i] = float32(i) * 2
	}
	l := makeLaunch(t, vecaddSrc, "vecadd",
		[]exec.Arg{exec.BufArg(a), exec.BufArg(b), exec.BufArg(c), exec.IntArg(n)}, exec.ND1(n))
	return l, c
}

func TestExecutePartitionedCorrect(t *testing.T) {
	rt := New(device.MC2())
	n := 1024
	l, c := vecaddLaunch(t, n)
	res, err := rt.Execute(l, partition.Partition{Shares: []int{4, 3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if want := float32(3 * i); c.F[i] != want {
			t.Fatalf("c[%d] = %g, want %g", i, c.F[i], want)
		}
	}
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
	if got := res.Profile.Total().Items; got != int64(n) {
		t.Errorf("profile items = %d, want %d", got, n)
	}
}

func TestPriceMatchesExecute(t *testing.T) {
	rt := New(device.MC1())
	l, _ := vecaddLaunch(t, 2048)
	part := partition.Partition{Shares: []int{6, 2, 2}}
	res, err := rt.Execute(l, part)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := rt.Profile(l)
	if err != nil {
		t.Fatal(err)
	}
	price, _, err := rt.Price(l, prof, part)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(price-res.Makespan)/res.Makespan > 0.02 {
		t.Errorf("Price %g vs Execute %g differ > 2%%", price, res.Makespan)
	}
}

func TestBestBeatsOrEqualsDefaults(t *testing.T) {
	for _, plat := range device.Platforms() {
		rt := New(plat)
		l, _ := vecaddLaunch(t, 4096)
		prof, err := rt.Profile(l)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := rt.Label(l, prof, partition.SharedSpace(plat.NumDevices(), partition.DefaultSteps))
		if err != nil {
			t.Fatal(err)
		}
		bestTime := lb.Times[lb.Best]
		for _, def := range []partition.Partition{rt.CPUOnly(), rt.GPUOnly()} {
			dt, _, err := rt.Price(l, prof, def)
			if err != nil {
				t.Fatal(err)
			}
			if bestTime > dt*1.0000001 {
				t.Errorf("%s: best %g worse than default %s %g", plat.Name, bestTime, def, dt)
			}
		}
	}
}

func TestDefaultStrategies(t *testing.T) {
	rt := New(device.MC1())
	cpu := rt.CPUOnly()
	if idx, ok := cpu.IsSingle(); !ok || idx != device.CPUIndex {
		t.Errorf("CPUOnly = %s", cpu)
	}
	gpu := rt.GPUOnly()
	if idx, ok := gpu.IsSingle(); !ok || idx != 1 {
		t.Errorf("GPUOnly = %s", gpu)
	}
}

func TestSizeSensitivity(t *testing.T) {
	// The oracle must move work toward the GPUs as the problem grows
	// (on mc2 with a compute-bound kernel).
	rt := New(device.MC2())
	gpuShare := func(n int) float64 {
		in, out := exec.NewFloatBuffer(n), exec.NewFloatBuffer(n)
		for i := range in.F {
			in.F[i] = 0.5
		}
		l := makeLaunch(t, heavySrc, "heavy",
			[]exec.Arg{exec.BufArg(in), exec.BufArg(out), exec.IntArg(200)}, exec.ND1(n))
		prof, err := rt.Profile(l)
		if err != nil {
			t.Fatal(err)
		}
		space := partition.SharedSpace(3, partition.DefaultSteps)
		lb, err := rt.Label(l, prof, space)
		if err != nil {
			t.Fatal(err)
		}
		best := space[lb.Best]
		return float64(best.Shares[1]+best.Shares[2]) / float64(best.Steps())
	}
	small := gpuShare(256)
	large := gpuShare(65536)
	if large <= small {
		t.Errorf("GPU share did not grow with size: small %.0f%%, large %.0f%%", small*100, large*100)
	}
	if large < 0.5 {
		t.Errorf("large compute-bound problem should be mostly on GPUs, got %.0f%%", large*100)
	}
}

func TestPlatformAsymmetryOnDefaults(t *testing.T) {
	// For a mildly compute-bound kernel, GPU-only should look relatively
	// better on mc2 than on mc1 (the paper's central platform asymmetry).
	ratio := func(plat *device.Platform) float64 {
		rt := New(plat)
		n := 16384
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
		cpu, _, err := rt.Price(l, prof, rt.CPUOnly())
		if err != nil {
			t.Fatal(err)
		}
		gpu, _, err := rt.Price(l, prof, rt.GPUOnly())
		if err != nil {
			t.Fatal(err)
		}
		return cpu / gpu // >1 means GPU wins
	}
	r1, r2 := ratio(device.MC1()), ratio(device.MC2())
	if r2 <= r1 {
		t.Errorf("GPU should be relatively stronger on mc2: mc1 %.2f, mc2 %.2f", r1, r2)
	}
}

func TestExecuteErrors(t *testing.T) {
	rt := New(device.MC2())
	l, _ := vecaddLaunch(t, 256)
	if _, err := rt.Execute(l, partition.Partition{Shares: []int{10}}); err == nil {
		t.Error("want partition arity error")
	}
	if _, err := rt.Execute(l, partition.Partition{Shares: []int{0, 0, 0}}); err == nil {
		t.Error("want empty partition error")
	}
}

func TestIterativeLaunchPricing(t *testing.T) {
	rt := New(device.MC2())
	n := 8192
	a, b, c := exec.NewFloatBuffer(n), exec.NewFloatBuffer(n), exec.NewFloatBuffer(n)
	base := makeLaunch(t, vecaddSrc, "vecadd",
		[]exec.Arg{exec.BufArg(a), exec.BufArg(b), exec.BufArg(c), exec.IntArg(n)}, exec.ND1(n))
	prof, err := rt.Profile(base)
	if err != nil {
		t.Fatal(err)
	}
	iter := base
	iter.Iterations = 50
	p1, _, err := rt.Price(base, prof, rt.GPUOnly())
	if err != nil {
		t.Fatal(err)
	}
	p50, _, err := rt.Price(iter, prof, rt.GPUOnly())
	if err != nil {
		t.Fatal(err)
	}
	if p50 <= p1 {
		t.Error("iterations did not increase cost")
	}
	if p50 >= 50*p1 {
		t.Error("iterative pricing should amortize transfers, got full linear scaling")
	}
}
