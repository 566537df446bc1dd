package features

import (
	"slices"
	"testing"

	"repro/internal/backend"
	"repro/internal/exec"
	"repro/internal/inspire"
)

const vecaddSrc = `
kernel void vecadd(global const float* a, global const float* b,
                   global float* c, int n) {
    int i = get_global_id(0);
    if (i < n) { c[i] = a[i] + b[i]; }
}
`

const heavySrc = `
kernel void heavy(global const float* in, global float* out, int iters) {
    int i = get_global_id(0);
    float x = in[i];
    for (int k = 0; k < iters; k++) {
        x = sqrt(x * x + 0.5) + exp(-x);
    }
    out[i] = x;
}
`

func setup(t *testing.T, src, kernel string, n, iters int) (*inspire.StaticCounts, RuntimeInput) {
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
	in, out := exec.NewFloatBuffer(n), exec.NewFloatBuffer(n)
	for i := range in.F {
		in.F[i] = 0.5
	}
	var args []exec.Arg
	if kernel == "vecadd" {
		args = []exec.Arg{exec.BufArg(in), exec.BufArg(out.Clone()), exec.BufArg(out), exec.IntArg(n)}
	} else {
		args = []exec.Arg{exec.BufArg(in), exec.BufArg(out), exec.IntArg(iters)}
	}
	prof, err := comp.Run(args, exec.ND1(n), exec.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return inspire.Analyze(k), RuntimeInput{Profile: prof, Plan: plan, Args: args, Iterations: 1}
}

func TestVectorShapes(t *testing.T) {
	st, rin := setup(t, vecaddSrc, "vecadd", 1024, 0)
	sv := Static(st)
	if len(sv.Names) != len(sv.Values) || len(sv.Names) != len(StaticNames) {
		t.Fatalf("static vector shape %d/%d", len(sv.Names), len(sv.Values))
	}
	rv := Runtime(rin)
	if len(rv.Names) != len(rv.Values) || len(rv.Names) != len(RuntimeNames) {
		t.Fatalf("runtime vector shape %d/%d", len(rv.Names), len(rv.Values))
	}
	cv := Combined(st, rin)
	if n := len(StaticNames) + len(RuntimeNames); len(cv.Values) != n {
		t.Fatalf("combined length %d, want %d", len(cv.Values), n)
	}
}

func TestStaticDistinguishesKernels(t *testing.T) {
	stV, _ := setup(t, vecaddSrc, "vecadd", 256, 0)
	stH, _ := setup(t, heavySrc, "heavy", 256, 10)
	v, h := Static(stV), Static(stH)
	vTrans := get(t, v, "s_frac_trans")
	hTrans := get(t, h, "s_frac_trans")
	if hTrans <= vTrans {
		t.Errorf("transcendental fraction: heavy %g should exceed vecadd %g", hTrans, vTrans)
	}
	vLoops := get(t, v, "s_num_loops")
	hLoops := get(t, h, "s_num_loops")
	if vLoops != 0 || hLoops != 1 {
		t.Errorf("loops: vecadd %g heavy %g, want 0/1", vLoops, hLoops)
	}
	vMix := get(t, v, "s_mix_coalesced")
	if vMix < 0.99 {
		t.Errorf("vecadd coalesced mix %g, want ~1", vMix)
	}
}

func TestRuntimeGrowsWithProblemSize(t *testing.T) {
	_, small := setup(t, heavySrc, "heavy", 256, 20)
	_, large := setup(t, heavySrc, "heavy", 4096, 20)
	sv, lv := Runtime(small), Runtime(large)
	for _, name := range []string{"r_log_items", "r_log_ops", "r_log_bytes_in"} {
		s := get(t, sv, name)
		l := get(t, lv, name)
		if l <= s {
			t.Errorf("%s did not grow with size: %g -> %g", name, s, l)
		}
	}
	// Ops per item should be roughly size-independent for this kernel.
	s := get(t, sv, "r_log_ops_per_item")
	l := get(t, lv, "r_log_ops_per_item")
	if diff := l - s; diff > 0.5 || diff < -0.5 {
		t.Errorf("r_log_ops_per_item drifted: %g -> %g", s, l)
	}
}

func TestRuntimeIterationsScaleOps(t *testing.T) {
	_, rin := setup(t, vecaddSrc, "vecadd", 1024, 0)
	one := Runtime(rin)
	rin.Iterations = 16
	many := Runtime(rin)
	o := get(t, one, "r_log_ops")
	m := get(t, many, "r_log_ops")
	if m <= o {
		t.Errorf("iterations did not scale dynamic ops: %g vs %g", m, o)
	}
	lo := get(t, many, "r_log_launches")
	if lo != 4 { // log2(1+16) ~ 4.09 ... actually log2(17)=4.09
		t.Logf("r_log_launches = %g", lo)
	}
}

func TestImbalanceFeature(t *testing.T) {
	src := `kernel void tri(global float* o, int n) {
		int i = get_global_id(0);
		float s = 0.0;
		for (int j = 0; j < i; j++) { s += 1.0; }
		o[i] = s;
	}`
	_, rin := setup2(t, src, "tri", 512)
	v := Runtime(rin)
	imb := get(t, v, "r_imbalance")
	if imb < 1.5 {
		t.Errorf("triangular workload imbalance = %g, want > 1.5", imb)
	}
	_, rinU := setup(t, vecaddSrc, "vecadd", 512, 0)
	u := Runtime(rinU)
	imbU := get(t, u, "r_imbalance")
	if imbU > 1.3 {
		t.Errorf("uniform workload imbalance = %g, want ~1", imbU)
	}
}

// setup2 is setup for single-output kernels of the form k(out, n).
func setup2(t *testing.T, src, kernel string, n int) (*inspire.StaticCounts, RuntimeInput) {
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
	o := exec.NewFloatBuffer(n)
	args := []exec.Arg{exec.BufArg(o), exec.IntArg(n)}
	prof, err := comp.Run(args, exec.ND1(n), exec.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return inspire.Analyze(k), RuntimeInput{Profile: prof, Plan: plan, Args: args, Iterations: 1}
}

func TestVectorHelpers(t *testing.T) {
	v := Vector{Names: []string{"a", "b"}, Values: []float64{1, 2}}
	w := Vector{Names: []string{"c"}, Values: []float64{3}}
	c := v.Append(w)
	if len(c.Names) != 3 || c.Values[2] != 3 {
		t.Errorf("Append = %+v", c)
	}
	if got := get(t, c, "b"); got != 2 {
		t.Errorf("b = %g, want 2", got)
	}
	// Append must not mutate the receiver.
	if len(v.Names) != 2 {
		t.Error("Append mutated receiver")
	}
}

// get returns the value of the named feature of v.
func get(t *testing.T, v Vector, name string) float64 {
	t.Helper()
	i := slices.Index(v.Names, name)
	if i < 0 {
		t.Fatalf("no feature %q", name)
	}
	return v.Values[i]
}
