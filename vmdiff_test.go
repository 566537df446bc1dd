package repro

// Differential correctness harness for the bytecode VM execution tier:
// every built-in benchmark program runs on both the closure-tree
// interpreter (the reference tier) and the VM, at full range and under
// a chunked multi-device-style partition, and the resulting buffers and
// dynamic profiles must be byte-identical — bit-for-bit float32 values
// and field-for-field counts. A randomized-input property test covers
// kernels written to stress VM-specific paths (fusion shapes, helpers,
// divergent barriers, select, casts).

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/exec/vm"
	"repro/internal/inspire"
)

// compileBothTiers lowers MiniCL source and compiles the named kernel on
// the closure tier, on the scalar VM tier (which must lower
// successfully), and under TierAuto (which additionally attaches the
// vector tier whenever the kernel vectorizes).
func compileBothTiers(t *testing.T, name, source, kernel string) (cl, vmc, atc *exec.Compiled) {
	t.Helper()
	u, err := inspire.LowerSource(name, source)
	if err != nil {
		t.Fatalf("lower %s: %v", name, err)
	}
	inspire.Optimize(u)
	k := u.Kernel(kernel)
	if k == nil {
		t.Fatalf("%s: kernel %q not found", name, kernel)
	}
	cl, err = exec.CompileTier(k, exec.TierClosure)
	if err != nil {
		t.Fatalf("%s: closure compile: %v", name, err)
	}
	vmc, err = exec.CompileTier(k, exec.TierVM)
	if err != nil {
		t.Fatalf("%s: vm compile: %v", name, err)
	}
	if vmc.Tier() != exec.TierVM {
		t.Fatalf("%s: expected VM tier, got %v", name, vmc.Tier())
	}
	atc, err = exec.CompileTier(k, exec.TierAuto)
	if err != nil {
		t.Fatalf("%s: auto compile: %v", name, err)
	}
	return cl, vmc, atc
}

// vecExpected names the built-in programs TierAuto must put on the
// vector tier: all 23. Every varying branch inside a loop either
// re-converges within the iteration or runs its loop under a mask
// (mandelbrot's `&&` exit test, bfs's and spmv's per-row trip counts).
var vecExpected = map[string]bool{
	"blackscholes": true, "nbody": true, "md": true, "bitonicsort": true,
	"matmul": true, "matvec": true, "transpose": true, "atax": true,
	"convolution2d": true, "stencil2d": true, "hotspot": true, "srad": true,
	"pathfinder": true, "vecadd": true, "saxpy": true,
	"histogram": true, "kmeans": true, "dotprod": true, "reduction": true,
	"prefixsum": true, "mandelbrot": true, "bfs": true, "spmv": true,
}

// diffBuffers requires bitwise-equal buffer contents across tiers.
func diffBuffers(t *testing.T, ctx string, ca, va []exec.Arg) {
	t.Helper()
	for i := range ca {
		cb, vb := ca[i].Buf, va[i].Buf
		if cb == nil {
			continue
		}
		if len(cb.F) != len(vb.F) || len(cb.I) != len(vb.I) {
			t.Fatalf("%s: arg %d: buffer shape mismatch", ctx, i)
		}
		for j := range cb.F {
			if math.Float32bits(cb.F[j]) != math.Float32bits(vb.F[j]) {
				t.Fatalf("%s: arg %d float[%d]: closure %v (%#x) vs vm %v (%#x)",
					ctx, i, j, cb.F[j], math.Float32bits(cb.F[j]), vb.F[j], math.Float32bits(vb.F[j]))
			}
		}
		for j := range cb.I {
			if cb.I[j] != vb.I[j] {
				t.Fatalf("%s: arg %d int[%d]: closure %d vs vm %d", ctx, i, j, cb.I[j], vb.I[j])
			}
		}
	}
}

// diffProfiles requires field-identical dynamic profiles across tiers.
func diffProfiles(t *testing.T, ctx string, cp, vp *exec.Profile) {
	t.Helper()
	if cp.Global0 != vp.Global0 || len(cp.Buckets) != len(vp.Buckets) {
		t.Fatalf("%s: profile shape: closure (%d,%d) vs vm (%d,%d)",
			ctx, cp.Global0, len(cp.Buckets), vp.Global0, len(vp.Buckets))
	}
	for i := range cp.Buckets {
		if cp.Buckets[i] != vp.Buckets[i] {
			t.Fatalf("%s: profile bucket %d:\nclosure %+v\nvm      %+v", ctx, i, cp.Buckets[i], vp.Buckets[i])
		}
	}
}

// runTier executes a launch (all iterations) under opts, returning the
// per-iteration profiles.
func runTier(t *testing.T, ctx string, c *exec.Compiled, args []exec.Arg, nd exec.NDRange, iters int, opts exec.RunOptions) []*exec.Profile {
	t.Helper()
	if iters < 1 {
		iters = 1
	}
	profs := make([]*exec.Profile, iters)
	for it := 0; it < iters; it++ {
		p, err := c.Run(args, nd, opts)
		if err != nil {
			t.Fatalf("%s: iteration %d: %v", ctx, it, err)
		}
		profs[it] = p
	}
	return profs
}

// chunks splits the dim-0 extent into an uneven two-device partition
// aligned to the work-group size, mimicking a CPU/GPU split.
func chunks(nd exec.NDRange) [][2]int {
	g0 := nd.Global[0]
	l0 := nd.Local[0]
	if l0 == 0 {
		if g0%exec.DefaultLocal0 == 0 {
			l0 = exec.DefaultLocal0
		} else {
			l0 = 1
		}
	}
	groups := g0 / l0
	if groups < 2 {
		return [][2]int{{0, g0}}
	}
	// ~30/70 split rounded to a group boundary.
	mid := (groups*3/10 + 1) * l0
	if mid >= g0 {
		mid = g0 - l0
	}
	return [][2]int{{0, mid}, {mid, g0}}
}

// TestVMDifferentialSuite runs all built-in benchmark programs on both
// execution tiers and requires byte-identical buffers and profiles, at
// full range and under a chunked two-device partition.
func TestVMDifferentialSuite(t *testing.T) {
	progs := bench.All()
	if len(progs) != 23 {
		t.Fatalf("expected the 23-program suite, got %d", len(progs))
	}
	// Floor on vector-tier coverage: the per-program tier assertions
	// below enforce the exact expected set, and this guard keeps anyone
	// from quietly shrinking that set when a program regresses to
	// scalar — all 23 programs must stay vectorizable.
	if nvec := len(vecExpected); nvec < 23 {
		t.Fatalf("vectorizable floor: %d programs in vecExpected, need >= 23", nvec)
	}
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			cl, vmc, atc := compileBothTiers(t, p.Name, p.Source, p.Kernel)
			if want := vecExpected[p.Name]; want != (atc.Tier() == exec.TierVec) {
				t.Fatalf("%s: auto tier %v (vec expected: %v, vecErr: %v)",
					p.Name, atc.Tier(), want, atc.VecError())
			}

			// Full-range run, every application iteration compared.
			ci, err := p.Instance(0)
			if err != nil {
				t.Fatal(err)
			}
			vi, err := p.Instance(0)
			if err != nil {
				t.Fatal(err)
			}
			ai, err := p.Instance(0)
			if err != nil {
				t.Fatal(err)
			}
			iters := p.Iterations
			if iters < 1 {
				iters = 1
			}
			for it := 0; it < iters; it++ {
				ctx := fmt.Sprintf("%s full iter %d", p.Name, it)
				cp := runTier(t, ctx+" closure", cl, ci.Args, ci.ND, 1, exec.RunOptions{})[0]
				vp := runTier(t, ctx+" vm", vmc, vi.Args, vi.ND, 1, exec.RunOptions{})[0]
				ap := runTier(t, ctx+" auto", atc, ai.Args, ai.ND, 1, exec.RunOptions{})[0]
				diffProfiles(t, ctx, cp, vp)
				diffProfiles(t, ctx+" (auto)", cp, ap)
				diffBuffers(t, ctx, ci.Args, vi.Args)
				diffBuffers(t, ctx+" (auto)", ci.Args, ai.Args)
			}

			// Chunked partition run on fresh instances.
			ci2, err := p.Instance(0)
			if err != nil {
				t.Fatal(err)
			}
			vi2, err := p.Instance(0)
			if err != nil {
				t.Fatal(err)
			}
			ai2, err := p.Instance(0)
			if err != nil {
				t.Fatal(err)
			}
			for it := 0; it < iters; it++ {
				for _, ch := range chunks(ci2.ND) {
					ctx := fmt.Sprintf("%s chunk [%d,%d) iter %d", p.Name, ch[0], ch[1], it)
					opts := exec.RunOptions{Lo: ch[0], Hi: ch[1]}
					cp := runTier(t, ctx+" closure", cl, ci2.Args, ci2.ND, 1, opts)[0]
					vp := runTier(t, ctx+" vm", vmc, vi2.Args, vi2.ND, 1, opts)[0]
					ap := runTier(t, ctx+" auto", atc, ai2.Args, ai2.ND, 1, opts)[0]
					diffProfiles(t, ctx, cp, vp)
					diffProfiles(t, ctx+" (auto)", cp, ap)
				}
				diffBuffers(t, fmt.Sprintf("%s chunked iter %d", p.Name, it), ci2.Args, vi2.Args)
				diffBuffers(t, fmt.Sprintf("%s chunked iter %d (auto)", p.Name, it), ci2.Args, ai2.Args)
			}

			// The VM and auto results must still pass the program's own
			// verifier.
			if err := p.Verify(vi, 0); err != nil {
				t.Fatalf("%s: vm output fails program verifier: %v", p.Name, err)
			}
			if err := p.Verify(ai, 0); err != nil {
				t.Fatalf("%s: auto output fails program verifier: %v", p.Name, err)
			}
		})
	}
}

// TestVecNoScalarBails is the floor under the vector tier's divergence
// handling: every varying branch of every vectorized built-in has a
// join, and at size indices 0-2, full range and chunked, every lane
// disagreement re-forms there — no group leaves the tier for scalar
// completion. A new bail here is a
// performance regression the differential suites cannot see (the scalar
// completion is byte-identical by construction).
func TestVecNoScalarBails(t *testing.T) {
	for _, p := range bench.All() {
		if !vecExpected[p.Name] {
			continue
		}
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			_, _, atc := compileBothTiers(t, p.Name, p.Source, p.Kernel)
			if n := atc.Vec().BailBranches(); n != 0 {
				t.Fatalf("%s: %d varying branches without a join:\n%s", p.Name, n, atc.Vec().Disassemble())
			}
			for sz := 0; sz <= 2 && sz < len(p.Sizes); sz++ {
				for _, chunked := range []bool{false, true} {
					inst, err := p.Instance(sz)
					if err != nil {
						t.Fatal(err)
					}
					spans := [][2]int{{0, 0}}
					if chunked {
						spans = chunks(inst.ND)
					}
					for it := 0; it < max(p.Iterations, 1); it++ {
						for _, ch := range spans {
							ctx := fmt.Sprintf("%s size %d chunk %v iter %d", p.Name, sz, ch, it)
							prof := runTier(t, ctx, atc, inst.Args, inst.ND, 1, exec.RunOptions{Lo: ch[0], Hi: ch[1]})[0]
							if prof.VecScalarBails != 0 || prof.VecReconverges != prof.VecDivergences {
								t.Fatalf("%s: %d divergences, %d re-formed, %d scalar bails; want every split to re-form",
									ctx, prof.VecDivergences, prof.VecReconverges, prof.VecScalarBails)
							}
						}
					}
				}
			}
		})
	}
}

// TestEverySuperinstructionUsed holds the fuser to its production
// users: every opcode registered as a superinstruction must occur in the
// scalar bytecode of at least one built-in. One that none contains is
// code the fuser and both interpreters carry for nothing: delete it, or
// add the built-in that needs it.
func TestEverySuperinstructionUsed(t *testing.T) {
	used := map[vm.Opcode]bool{}
	for _, p := range bench.All() {
		_, vmc, _ := compileBothTiers(t, p.Name, p.Source, p.Kernel)
		for _, in := range vmc.VM().Code {
			used[in.Op] = true
		}
	}
	var unused []string
	for op := range vm.Opcode(math.MaxUint8) {
		if info, ok := vm.LookupOp(op); ok && info.Super && !used[op] {
			unused = append(unused, info.Name)
		}
	}
	if len(unused) > 0 {
		t.Errorf("%d superinstructions occur in no built-in's bytecode: %s", len(unused), strings.Join(unused, " "))
	}
}

// TestVMDifferentialBarrierTiers reruns the barrier kernels of the suite
// on one host worker and on several: each tier's barrier strategy (the
// closure tree's blocking item pool, the VM's suspend-resume rounds, the
// vector tier's whole-group dispatch where TierAuto selects it) must
// agree when a single runner reuses its pool or frames for every group
// and when concurrent runners each own theirs.
func TestVMDifferentialBarrierTiers(t *testing.T) {
	for _, p := range bench.All() {
		p := p
		if !strings.Contains(p.Source, "barrier(") {
			continue
		}
		cl, vmc, atc := compileBothTiers(t, p.Name, p.Source, p.Kernel)
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 4} {
				ci, err := p.Instance(0)
				if err != nil {
					t.Fatal(err)
				}
				vi, err := p.Instance(0)
				if err != nil {
					t.Fatal(err)
				}
				ai, err := p.Instance(0)
				if err != nil {
					t.Fatal(err)
				}
				iters := p.Iterations
				if iters < 1 {
					iters = 1
				}
				ctx := fmt.Sprintf("%s workers %d", p.Name, workers)
				opts := exec.RunOptions{Workers: workers}
				cp := runTier(t, ctx+" closure", cl, ci.Args, ci.ND, iters, opts)
				vp := runTier(t, ctx+" vm", vmc, vi.Args, vi.ND, iters, opts)
				ap := runTier(t, ctx+" auto", atc, ai.Args, ai.ND, iters, opts)
				for it := range cp {
					diffProfiles(t, fmt.Sprintf("%s iter %d", ctx, it), cp[it], vp[it])
					diffProfiles(t, fmt.Sprintf("%s iter %d (auto)", ctx, it), cp[it], ap[it])
				}
				diffBuffers(t, ctx, ci.Args, vi.Args)
				diffBuffers(t, ctx+" (auto)", ci.Args, ai.Args)
			}
		})
	}
}

// vmPropKernels stress VM-specific lowering paths with shapes the suite
// may not cover: fusion candidates split across branches, helper calls
// with buffer and scalar arguments, divergent barriers, selects, casts,
// and fault-adjacent index arithmetic.
var vmPropKernels = []struct {
	name   string
	source string
	kernel string
	nargs  int // float buffers bound, plus one int scalar n
	local  int
	escape bool // work items touch lanes other than their own
}{
	{
		name: "fusion_shapes",
		source: `
kernel void k(global float* a, global float* b, global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        float x = a[i] * b[i] + a[i];      // mul-add + load-op shapes
        float y = b[i] * 3.0f;
        int j = i * 4 + 1;                 // const-imm + mul-add int shapes
        int m = j % n;
        out[i] = x + y * a[m];
    }
}
`,
		kernel: "k", nargs: 3,
	},
	{
		name: "helper_calls",
		source: `
float blend(global float* p, int i, float w) {
    if (w < 0.0f) { return -w * p[i]; }
    return w * p[i] + 1.0f;
}
int wrap(int i, int n) { return (i * 7 + 3) % n; }
kernel void k(global float* a, global float* b, global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = blend(a, wrap(i, n), b[i] - 0.5f) + blend(b, i, a[i]);
    }
}
`,
		kernel: "k", nargs: 3, escape: true,
	},
	{
		name: "divergent_barrier",
		source: `
kernel void k(global float* a, global float* out, local float* tile, int n) {
    int l = get_local_id(0);
    int i = get_global_id(0);
    if (l % 2 == 0) {
        tile[l] = a[i] * 2.0f;
        barrier(1);
    } else {
        tile[l] = a[i] + 1.0f;
        barrier(1);
    }
    int other = get_local_size(0) - 1 - l;
    out[i] = tile[other] + tile[l];
}
`,
		kernel: "k", nargs: 2, local: 16, escape: true,
	},
	{
		name: "select_cast_mix",
		source: `
kernel void k(global float* a, global float* b, global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        float v = a[i];
        int q = (int)(v * 8.0f);
        float w = (q > 2) ? b[i] : -b[i];
        bool big = fabs(v) > 0.5f && q != 3;
        out[i] = big ? (w + (float)q) : fmin(w, v);
    }
}
`,
		kernel: "k", nargs: 3,
	},
	{
		name: "loop_accum",
		source: `
kernel void k(global float* a, global float* b, global float* out, int n) {
    int i = get_global_id(0);
    float acc = 0.0f;
    for (int j = 0; j < 8; j = j + 1) {
        int idx = (i + j * 5) % n;
        acc = mad(a[idx], b[idx], acc);
        if (acc > 100.0f) { break; }
    }
    while (acc < -4.0f) { acc = acc * 0.5f + 1.0f; }
    out[i] = acc;
}
`,
		kernel: "k", nargs: 3, escape: true,
	},
}

// TestVMDifferentialRandomized is the property test: each stress kernel
// runs on both tiers over multiple randomized inputs; buffers and
// profiles must be byte-identical every time.
func TestVMDifferentialRandomized(t *testing.T) {
	const n = 512
	const rounds = 8
	for _, tc := range vmPropKernels {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cl, vmc, atc := compileBothTiers(t, tc.name, tc.source, tc.kernel)
			rng := rand.New(rand.NewSource(0xd1ff + int64(len(tc.name))))
			for round := 0; round < rounds; round++ {
				mkArgs := func(data [][]float32) []exec.Arg {
					var args []exec.Arg
					for b := 0; b < tc.nargs; b++ {
						buf := exec.NewFloatBuffer(n)
						copy(buf.F, data[b])
						args = append(args, exec.BufArg(buf))
					}
					if tc.local > 0 {
						args = append(args, exec.LocalArg(tc.local))
					}
					args = append(args, exec.IntArg(n))
					return args
				}
				data := make([][]float32, tc.nargs)
				for b := range data {
					data[b] = make([]float32, n)
					for j := range data[b] {
						data[b][j] = float32(rng.Float64()*4 - 2)
					}
				}
				ca, va, aa := mkArgs(data), mkArgs(data), mkArgs(data)
				nd := exec.ND1(n)
				if tc.local > 0 {
					nd.Local[0] = tc.local
				}
				ctx := fmt.Sprintf("%s round %d", tc.name, round)
				cp := runTier(t, ctx+" closure", cl, ca, nd, 1, exec.RunOptions{})[0]
				vp := runTier(t, ctx+" vm", vmc, va, nd, 1, exec.RunOptions{})[0]
				ap := runTier(t, ctx+" auto", atc, aa, nd, 1, exec.RunOptions{})[0]
				diffProfiles(t, ctx, cp, vp)
				diffProfiles(t, ctx+" (auto)", cp, ap)
				diffBuffers(t, ctx, ca, va)
				diffBuffers(t, ctx+" (auto)", ca, aa)
			}
		})
	}
}

// TestVMDifferentialReconvergence pins the vector tier's handling of
// lane disagreement end to end: a kernel whose groups all disagree at a
// varying forward branch must still land on the vector tier under
// TierAuto, finish every group W-wide with zero scalar bails, and
// produce buffers and per-bucket profiles byte-identical to the closure
// tier — at full range and under a chunked partition. Short
// straight-line sides run in place (the profile's VecLinearized); a
// side with an integer division, which can fault, splits the group and
// re-forms at the join point (VecDivergences and VecReconverges).
func TestVMDifferentialReconvergence(t *testing.T) {
	for _, tc := range []struct {
		name, taken string
		split       bool
	}{
		{"linear", "r = sqrt(x) + x * 1.5f;", false},
		{"split", "r = sqrt(x) + x * 1.5f + (float)(n / (i + 1));", true},
	} {
		source := `
kernel void k(global float* a, global float* out, int n) {
    int i = get_global_id(0);
    float x = a[i];
    float r;
    if (x > 0.0f) {
        ` + tc.taken + `
    } else {
        r = fabs(x) * 0.5f - 1.0f;
    }
    out[i] = r;
}
`
		cl, _, atc := compileBothTiers(t, "reconverge", source, "k")
		if atc.Tier() != exec.TierVec {
			t.Fatalf("%s: auto tier = %v, want vec (vecErr: %v)", tc.name, atc.Tier(), atc.VecError())
		}
		const n = 512
		mk := func() []exec.Arg {
			a, out := exec.NewFloatBuffer(n), exec.NewFloatBuffer(n)
			for i := range a.F {
				a.F[i] = float32(1-2*(i%2)) * (0.5 + float32(i%5)*0.25)
			}
			return []exec.Arg{exec.BufArg(a), exec.BufArg(out), exec.IntArg(n)}
		}
		nd := exec.NDRange{Global: [3]int{n, 1, 1}, Local: [3]int{16, 1, 1}}
		// reformed is how the path under test reports its disagreements.
		reformed := func(p *exec.Profile) int64 {
			if tc.split {
				if p.VecLinearized != 0 || p.VecReconverges != p.VecDivergences {
					t.Errorf("%s: %d linearized, %d of %d splits re-formed; want 0 and all",
						tc.name, p.VecLinearized, p.VecReconverges, p.VecDivergences)
				}
				return p.VecReconverges
			}
			if p.VecDivergences != 0 {
				t.Errorf("%s: %d splits, want every disagreement run in place", tc.name, p.VecDivergences)
			}
			return p.VecLinearized
		}

		ca, aa := mk(), mk()
		cp := runTier(t, tc.name+" closure", cl, ca, nd, 1, exec.RunOptions{})[0]
		ap := runTier(t, tc.name+" auto", atc, aa, nd, 1, exec.RunOptions{})[0]
		if reformed(ap) == 0 {
			t.Fatalf("%s: auto tier recorded no disagreement (divergences=%d reconverges=%d linearized=%d)",
				tc.name, ap.VecDivergences, ap.VecReconverges, ap.VecLinearized)
		}
		if ap.VecScalarBails != 0 {
			t.Errorf("%s: auto tier: scalar bails = %d, want 0", tc.name, ap.VecScalarBails)
		}
		diffProfiles(t, tc.name+" full", cp, ap)
		diffBuffers(t, tc.name+" full", ca, aa)

		ca2, aa2 := mk(), mk()
		var rec int64
		for _, ch := range chunks(nd) {
			ctx := fmt.Sprintf("%s chunk [%d,%d)", tc.name, ch[0], ch[1])
			opts := exec.RunOptions{Lo: ch[0], Hi: ch[1]}
			cp := runTier(t, ctx+" closure", cl, ca2, nd, 1, opts)[0]
			ap := runTier(t, ctx+" auto", atc, aa2, nd, 1, opts)[0]
			rec += reformed(ap)
			diffProfiles(t, ctx, cp, ap)
		}
		if rec == 0 {
			t.Errorf("%s: chunked runs recorded no disagreement", tc.name)
		}
		diffBuffers(t, tc.name+" chunked", ca2, aa2)
	}
}

// TestVMFaultParity checks that runtime faults surface with identical
// error messages on both tiers.
func TestVMFaultParity(t *testing.T) {
	cases := []struct {
		name   string
		source string
	}{
		{
			name: "oob_load",
			source: `
kernel void k(global float* a, global float* out, int n) {
    int i = get_global_id(0);
    out[i] = a[i + n];
}
`,
		},
		{
			name: "oob_store",
			source: `
kernel void k(global float* a, global float* out, int n) {
    int i = get_global_id(0);
    out[i * 2 + n] = a[i];
}
`,
		},
		{
			name: "div_zero",
			source: `
kernel void k(global float* a, global float* out, int n) {
    int i = get_global_id(0);
    int d = n - n;
    out[i] = a[i % d];
}
`,
		},
		{
			name: "helper_oob",
			source: `
float pick(global float* src, int i) { return src[i + 1000000]; }
kernel void k(global float* a, global float* out, int n) {
    int i = get_global_id(0);
    out[i] = pick(a, i);
}
`,
		},
	}
	const n = 64
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cl, vmc, atc := compileBothTiers(t, tc.name, tc.source, "k")
			mk := func() []exec.Arg {
				return []exec.Arg{
					exec.BufArg(exec.NewFloatBuffer(n)),
					exec.BufArg(exec.NewFloatBuffer(n)),
					exec.IntArg(n),
				}
			}
			_, cerr := cl.Run(mk(), exec.ND1(n), exec.RunOptions{Workers: 1})
			_, verr := vmc.Run(mk(), exec.ND1(n), exec.RunOptions{Workers: 1})
			_, aerr := atc.Run(mk(), exec.ND1(n), exec.RunOptions{Workers: 1})
			if cerr == nil || verr == nil || aerr == nil {
				t.Fatalf("expected faults, closure=%v vm=%v auto=%v", cerr, verr, aerr)
			}
			if cerr.Error() != verr.Error() {
				t.Fatalf("fault message mismatch:\nclosure: %s\nvm:      %s", cerr, verr)
			}
			if cerr.Error() != aerr.Error() {
				t.Fatalf("fault message mismatch:\nclosure: %s\nauto:    %s", cerr, aerr)
			}
		})
	}
}

// TestConstBuffersNeverWritten is what sharing one input buffer between
// concurrent requests rests on: on every tier, after every built-in and
// a helper-reading kernel ran, each buffer behind a const-qualified
// parameter holds bit for bit what a fresh instance holds. The one
// source-level way around const — handing the buffer to a helper under a
// non-const parameter — is refused by the front end, so no tier sees it.
func TestConstBuffersNeverWritten(t *testing.T) {
	const poke = `void poke(global float* p, int i) { p[i] = 1.0; }
kernel void k(global const float* a, global float* o, int n) {
	int i = get_global_id(0);
	poke(a, i);
	o[i] = a[i];
}`
	if _, err := inspire.LowerSource("poke", poke); err == nil || !strings.Contains(err.Error(), "cannot pass global const float* as global float*") {
		t.Fatalf("lowering a kernel that drops const at a call: %v, want the sema refusal", err)
	}

	constArgs := func(c *exec.Compiled, args []exec.Arg) []exec.Arg {
		out := make([]exec.Arg, len(args))
		for i, p := range c.Fn.Params {
			if p.Type.Ptr && p.Type.Const {
				out[i] = args[i]
			}
		}
		return out
	}
	check := func(t *testing.T, name, source, kernel string, instance func() ([]exec.Arg, exec.NDRange), iters int) {
		cl, vmc, atc := compileBothTiers(t, name, source, kernel)
		fresh, _ := instance()
		for _, c := range []*exec.Compiled{cl, vmc, atc} {
			args, nd := instance()
			ctx := fmt.Sprintf("%s on %v", name, c.Tier())
			runTier(t, ctx, c, args, nd, iters, exec.RunOptions{})
			diffBuffers(t, ctx+": const buffer vs a fresh instance", constArgs(c, fresh), constArgs(c, args))
		}
	}
	for _, p := range bench.All() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			check(t, p.Name, p.Source, p.Kernel, func() ([]exec.Arg, exec.NDRange) {
				inst, err := p.Instance(0)
				if err != nil {
					t.Fatal(err)
				}
				return inst.Args, inst.ND
			}, p.Iterations)
		})
	}
	t.Run("peek", func(t *testing.T) {
		const peek = `float peek(global const float* p, int i) { return p[i] * 2.0; }
float bump(global float* p, int i) { p[i] = p[i] + 1.0; return p[i]; }
kernel void k(global const float* a, global float* o, int n) {
	int i = get_global_id(0);
	o[i] = peek(a, i) + peek(o, i);
	o[i] = bump(o, i) * 0.5;
}`
		const n = 512
		check(t, "peek", peek, "k", func() ([]exec.Arg, exec.NDRange) {
			a, o := exec.NewFloatBuffer(n), exec.NewFloatBuffer(n)
			for i := range a.F {
				a.F[i] = float32(i%17) - 8
				o.F[i] = float32(i % 5)
			}
			return []exec.Arg{exec.BufArg(a), exec.BufArg(o), exec.IntArg(n)}, exec.ND1(n)
		}, 1)
	})
}
