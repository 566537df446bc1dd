package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/inspire"
	"repro/internal/minicl"
)

// vmdiff: the bytecode VM must produce buffers AND profiles
// byte-identical to the closure tier for every kernel shape — straight
// lines, loops (back-edge counter flushes), divergence, barriers,
// fused super-instructions, and faulting runs. This is the contract
// that lets the VM batch profile counters per basic block: any drift
// in a single counter fails here.

type vmdiffCase struct {
	name   string
	src    string
	kernel string
	args   func() []Arg
	nd     NDRange
	// vec marks a case that must run on the vector tier: it is there to
	// cover the vector tier's profile folding.
	vec bool
}

func vmdiffCases() []vmdiffCase {
	randFloats := func(n int, seed int64) *Buffer {
		b := NewFloatBuffer(n)
		r := rand.New(rand.NewSource(seed))
		for i := range b.F {
			b.F[i] = r.Float32()*4 - 2
		}
		return b
	}
	return []vmdiffCase{
		{
			name: "straightline arithmetic",
			src: `kernel void k(global float* a, global float* out, int n) {
				int i = get_global_id(0);
				float x = a[i];
				out[i] = x * x + 2.0f * x - 0.5f;
			}`,
			kernel: "k",
			args:   func() []Arg { return []Arg{BufArg(randFloats(64, 1)), BufArg(NewFloatBuffer(64)), IntArg(64)} },
			nd:     ND1(64),
		},
		{
			name: "loop with divergent trip counts",
			src: `kernel void k(global float* out, int n) {
				int i = get_global_id(0);
				float acc = 0.0f;
				for (int j = 0; j < i % 7; j = j + 1) {
					acc = acc + (float)j * 0.25f;
				}
				out[i] = acc;
			}`,
			kernel: "k",
			args:   func() []Arg { return []Arg{BufArg(NewFloatBuffer(96)), IntArg(96)} },
			nd:     ND1(96),
		},
		{
			name: "branch divergence and builtins",
			src: `kernel void k(global float* a, global float* out, int n) {
				int i = get_global_id(0);
				float x = a[i];
				if (x > 0.0f) {
					out[i] = sqrt(x) + exp(x);
				} else {
					out[i] = fabs(x) * min(x, -0.25f);
				}
			}`,
			kernel: "k",
			args:   func() []Arg { return []Arg{BufArg(randFloats(128, 2)), BufArg(NewFloatBuffer(128)), IntArg(128)} },
			nd:     ND1(128),
		},
		{
			name: "matmul fused mac",
			src: `kernel void k(global const float* a, global const float* b,
					global float* c, int n) {
				int row = get_global_id(1);
				int col = get_global_id(0);
				float acc = 0.0f;
				for (int t = 0; t < n; t = t + 1) {
					acc = acc + a[row * n + t] * b[t * n + col];
				}
				c[row * n + col] = acc;
			}`,
			kernel: "k",
			args: func() []Arg {
				return []Arg{BufArg(randFloats(64, 3)), BufArg(randFloats(64, 4)), BufArg(NewFloatBuffer(64)), IntArg(8)}
			},
			nd: ND2(8, 8),
		},
		{
			name: "local memory barrier reduction",
			src: `kernel void k(global const float* in, global float* out,
					local float* tile, int n) {
				int l = get_local_id(0);
				int g = get_global_id(0);
				tile[l] = in[g];
				barrier(1);
				if (l == 0) {
					float s = 0.0f;
					for (int j = 0; j < get_local_size(0); j = j + 1) {
						s = s + tile[j];
					}
					out[get_group_id(0)] = s;
				}
			}`,
			kernel: "k",
			args: func() []Arg {
				return []Arg{BufArg(randFloats(64, 5)), BufArg(NewFloatBuffer(8)), LocalArg(8), IntArg(64)}
			},
			nd: NDRange{Global: [3]int{64, 1, 1}, Local: [3]int{8, 1, 1}},
		},
		{
			// Found by the generator (kgen_test.go): the fused float
			// compare-branch jumped on `x <= 0.5` for `!(x > 0.5)`, which
			// differs for NaN — the VM took the then-side and ran one
			// iteration of the while loop where the oracle ran none.
			name: "NaN through fused float compare-branches",
			src: `kernel void k(global float* a, global float* out, int n) {
				int i = get_global_id(0);
				float x = sqrt(a[i]);
				float r = 0.0f;
				if (x > 0.5f) {
					r = 1.0f;
				} else {
					r = 2.0f;
				}
				while (x < 4.0f) {
					x = x + 1.0f;
					r = r + 10.0f;
				}
				out[i] = r;
			}`,
			kernel: "k",
			args:   func() []Arg { return []Arg{BufArg(randFloats(64, 6)), BufArg(NewFloatBuffer(64)), IntArg(64)} },
			nd:     ND1(64),
		},
		{
			// 2-D groups (8x4 lanes, dim 0 fastest): at one bucket, or two,
			// a group folds in one FoldLanes call; over 16 buckets each of
			// its dim-0 columns lands in a bucket of its own, lane by lane.
			name: "2-D matmul in 8x4 groups",
			src: `kernel void k(global const float* a, global const float* b,
					global float* c, int n) {
				int row = get_global_id(1);
				int col = get_global_id(0);
				float acc = 0.0f;
				for (int t = 0; t < n; t = t + 1) {
					acc = acc + a[row * n + t] * b[t * n + col];
				}
				c[row * n + col] = acc;
			}`,
			kernel: "k",
			args: func() []Arg {
				return []Arg{BufArg(randFloats(256, 7)), BufArg(randFloats(256, 8)), BufArg(NewFloatBuffer(256)), IntArg(16)}
			},
			nd:  NDRange{Global: [3]int{16, 16, 1}, Local: [3]int{8, 4, 1}},
			vec: true,
		},
		{
			// The border test splits 2-D groups, so lanes carry count deltas.
			name: "2-D conv2d in 16x4 groups",
			src: `kernel void k(global const float* in, global float* out, int w, int h) {
				int x = get_global_id(0);
				int y = get_global_id(1);
				if (x > 0 && x < w - 1 && y > 0 && y < h - 1) {
					out[y * w + x] =
						0.2 * in[(y - 1) * w + x - 1] + 0.5 * in[(y - 1) * w + x] - 0.8 * in[(y - 1) * w + x + 1] +
						-0.3 * in[y * w + x - 1] + 0.6 * in[y * w + x] - 0.9 * in[y * w + x + 1] +
						0.4 * in[(y + 1) * w + x - 1] + 0.7 * in[(y + 1) * w + x] + 0.1 * in[(y + 1) * w + x + 1];
				} else if (x < w && y < h) {
					out[y * w + x] = 0.0;
				}
			}`,
			kernel: "k",
			args: func() []Arg {
				return []Arg{BufArg(randFloats(1024, 9)), BufArg(NewFloatBuffer(1024)), IntArg(32), IntArg(32)}
			},
			nd:  NDRange{Global: [3]int{32, 32, 1}, Local: [3]int{16, 4, 1}},
			vec: true,
		},
		{
			// A 2-D launch in 1-D groups of 64, with a guard that splits
			// the groups crossing x = w.
			name: "2-D transpose in 64x1 groups",
			src: `kernel void k(global const float* in, global float* out, int w, int h) {
				int x = get_global_id(0);
				int y = get_global_id(1);
				if (x < w && y < h) {
					out[x * h + y] = in[y * w + x];
				}
			}`,
			kernel: "k",
			args: func() []Arg {
				return []Arg{BufArg(randFloats(512, 10)), BufArg(NewFloatBuffer(512)), IntArg(100), IntArg(4)}
			},
			nd:  ND2(128, 4),
			vec: true,
		},
		{
			name: "integer ops and stores",
			src: `kernel void k(global int* out, int n) {
				int i = get_global_id(0);
				int v = (i * 37 + 11) % 13;
				v = (v << 2) ^ (i & 5);
				out[i] = clamp(v, 2, 40);
			}`,
			kernel: "k",
			args:   func() []Arg { return []Arg{BufArg(NewIntBuffer(80)), IntArg(80)} },
			nd:     ND1(80),
		},
	}
}

// TestVMDiffProfilesByteIdentical runs every case on both tiers and
// requires bit-equal output buffers and byte-identical profile buckets,
// at one bucket, two and DefaultBuckets: a served launch keeps one, the
// profiling run DefaultBuckets, and every fold of a vector group's lanes
// into buckets must add up to what the closure oracle counts item by item.
func TestVMDiffProfilesByteIdentical(t *testing.T) {
	for _, tc := range vmdiffCases() {
		t.Run(tc.name, func(t *testing.T) {
			cVM := compileTierSrc(t, tc.src, tc.kernel, TierVM)
			cCl := compileTierSrc(t, tc.src, tc.kernel, TierClosure)
			cAu := compileTierSrc(t, tc.src, tc.kernel, TierAuto)
			if tc.vec && cAu.Tier() != TierVec {
				t.Fatalf("auto tier is %v, the case needs the vector tier: %v", cAu.Tier(), cAu.VecError())
			}
			for _, nb := range []int{1, 2, DefaultBuckets} {
				opts := RunOptions{Buckets: nb}
				argsVM, argsCl, argsAu := tc.args(), tc.args(), tc.args()
				pVM, err := cVM.Run(argsVM, tc.nd, opts)
				if err != nil {
					t.Fatalf("vm run: %v", err)
				}
				pCl, err := cCl.Run(argsCl, tc.nd, opts)
				if err != nil {
					t.Fatalf("closure run: %v", err)
				}
				pAu, err := cAu.Run(argsAu, tc.nd, opts)
				if err != nil {
					t.Fatalf("auto (%v) run: %v", cAu.Tier(), err)
				}

				for ai := range argsVM {
					b := argsVM[ai].Buf
					if b == nil {
						continue
					}
					if !reflect.DeepEqual(b.F, argsCl[ai].Buf.F) || !reflect.DeepEqual(b.I, argsCl[ai].Buf.I) {
						t.Errorf("%d buckets: arg %d buffers differ between tiers", nb, ai)
					}
					if !reflect.DeepEqual(b.F, argsAu[ai].Buf.F) || !reflect.DeepEqual(b.I, argsAu[ai].Buf.I) {
						t.Errorf("%d buckets: arg %d buffers differ between vm and auto (%v)", nb, ai, cAu.Tier())
					}
				}
				if pVM.Global0 != pCl.Global0 || len(pVM.Buckets) != len(pCl.Buckets) || len(pAu.Buckets) != len(pCl.Buckets) {
					t.Fatalf("%d buckets: profile shape: vm %d/%d buckets, auto %d/%d, closure %d/%d", nb,
						pVM.Global0, len(pVM.Buckets), pAu.Global0, len(pAu.Buckets), pCl.Global0, len(pCl.Buckets))
				}
				for b := range pVM.Buckets {
					if pVM.Buckets[b] != pCl.Buckets[b] {
						t.Errorf("%d buckets, bucket %d:\n  vm      %+v\n  closure %+v", nb, b, pVM.Buckets[b], pCl.Buckets[b])
					}
					if pAu.Buckets[b] != pCl.Buckets[b] {
						t.Errorf("%d buckets, bucket %d:\n  auto    %+v\n  closure %+v", nb, b, pAu.Buckets[b], pCl.Buckets[b])
					}
				}
			}
		})
	}
}

// TestVMDiffFaultProfiles: a faulting launch must end the same way on
// every tier — the same message, and every buffer byte-identical:
// stores before the faulting instruction landed, none after. (Its
// counts are not compared: Run returns no profile with an error, so no
// caller can see them.) The uniform cases fault on a group-uniform
// operand, so on the vector tier the instruction sits in a scalarized
// span — behind a uniform store in the same span, ahead of another —
// and the whole group parks there; each runs once at the top of the
// kernel and once inside one side of a divergence split, where item 0
// skips the region and finishes before item 1 faults.
func TestVMDiffFaultProfiles(t *testing.T) {
	type faultCase struct {
		name   string
		src    string
		kernel string
		args   func() []Arg
	}
	// Two groups of eight: with a single-item group the vector tier
	// would hand the launch to the scalar VM.
	nd := NDRange{Global: [3]int{16, 1, 1}, Local: [3]int{8, 1, 1}}
	cases := []faultCase{
		{
			name: "divide by zero",
			src: `kernel void k(global int* out, int n) {
				int i = get_global_id(0);
				out[i] = 12 / (i - (n / 2));
			}`,
			kernel: "k",
			args:   func() []Arg { return []Arg{BufArg(NewIntBuffer(16)), IntArg(16)} },
		},
		{
			name: "store out of bounds",
			src: `kernel void k(global float* out, int n) {
				int i = get_global_id(0);
				out[i * 3] = 1.0f;
			}`,
			kernel: "k",
			args:   func() []Arg { return []Arg{BufArg(NewFloatBuffer(16)), IntArg(16)} },
		},
	}
	// x is the faulting statement's result; z is a zero argument and d an
	// out-of-range dimension.
	for _, u := range []struct{ name, stmt string }{
		{"uniform divide by zero", `int x = 12 / (n - n);`},
		{"uniform modulo by zero", `int x = n % z;`},
		{"uniform dimension global id", `int x = get_global_id(d);`},
		{"uniform dimension local size", `int x = get_local_size(d);`},
		{"uniform load out of bounds", `int x = in[n + 100];`},
		{"uniform store out of bounds", `int x = n; out[n + 100] = x;`},
	} {
		args := func() []Arg {
			in := NewIntBuffer(16)
			for i := range in.I {
				in.I[i] = int32(i + 1)
			}
			return []Arg{BufArg(in), BufArg(NewIntBuffer(40)), IntArg(16), IntArg(0), IntArg(3)}
		}
		const head = `kernel void k(global const int* in, global int* out, int n, int z, int d) {
				int i = get_global_id(0);`
		cases = append(cases, faultCase{
			name:   u.name,
			src:    head + ` out[0] = n + 1; ` + u.stmt + ` out[1] = x; out[8 + i] = x; }`,
			kernel: "k", args: args,
		}, faultCase{
			name: u.name + " in a divergent side",
			src: head + ` if (i % 2 == 1) { out[0] = n + 1; ` + u.stmt + ` out[1] = x; }
				out[8 + i] = in[i]; }`,
			kernel: "k", args: args,
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// One worker: which faulting item reports first is only
			// deterministic when groups run in order.
			opts := RunOptions{Workers: 1}
			argsCl := tc.args()
			_, errCl := compileTierSrc(t, tc.src, tc.kernel, TierClosure).Run(argsCl, nd, opts)
			if errCl == nil {
				t.Fatal("closure tier did not fault")
			}
			for _, tier := range []Tier{TierVM, TierVec} {
				args := tc.args()
				_, err := compileTierSrc(t, tc.src, tc.kernel, tier).Run(args, nd, opts)
				if err == nil || err.Error() != errCl.Error() {
					t.Errorf("fault messages differ:\n  %-7v %v\n  closure %v", tier, err, errCl)
				}
				for ai := range args {
					b, want := args[ai].Buf, argsCl[ai].Buf
					if b != nil && (!reflect.DeepEqual(b.F, want.F) || !reflect.DeepEqual(b.I, want.I)) {
						t.Errorf("arg %d after the fault, %v vs closure:\n  got  %v%v\n  want %v%v", ai, tier, b.F, b.I, want.F, want.I)
					}
				}
			}
		})
	}
}

// TestVecDivergenceBailParity pins parity across the vector tier's two
// answers to a data-dependent forward branch, which vectorizes
// statically (the lanes are checked for agreement at runtime): with
// mixed-sign data some groups converge and run vectorized to completion
// while others diverge mid-kernel. The if/else with per-item stores
// splits and re-forms (its constants are uniform registers written in
// the region, dead at the join); its irreducible twin also stores
// through a uniform index on both sides, so a diverging group has no
// join and completes on the scalar VM — the only coverage scalar
// completion gets now that no built-in reaches it. Buffers and profiles
// must stay byte-identical to the closure tier either way.
func TestVecDivergenceBailParity(t *testing.T) {
	const reforms = `kernel void k(global float* a, global float* out, global float* last, int n) {
		int i = get_global_id(0);
		float x = a[i] * 0.5f;
		if (x > 0.0f) {
			out[i] = sqrt(x) + x * 3.0f;
		} else {
			out[i] = fabs(x) - 1.0f;
		}
	}`
	const irreducible = `kernel void k(global float* a, global float* out, global float* last, int n) {
		int i = get_global_id(0);
		float x = a[i] * 0.5f;
		if (x > 0.0f) {
			out[i] = sqrt(x) + x * 3.0f;
			last[get_group_id(0)] = x;
		} else {
			out[i] = fabs(x) - 1.0f;
			last[get_group_id(0)] = -x;
		}
	}`
	const n, local = 256, 16
	fill := func(mode string) []Arg {
		a, out, last := NewFloatBuffer(n), NewFloatBuffer(n), NewFloatBuffer(n/local)
		r := rand.New(rand.NewSource(7))
		for i := range a.F {
			switch mode {
			case "uniform": // every lane takes the same side
				a.F[i] = 1.5
			case "grouped": // agreement within each 16-item group
				a.F[i] = float32(1 - 2*((i/local)%2))
			default: // per-item signs: every group diverges
				a.F[i] = r.Float32()*4 - 2
			}
		}
		return []Arg{BufArg(a), BufArg(out), BufArg(last), IntArg(n)}
	}
	nd := NDRange{Global: [3]int{n, 1, 1}, Local: [3]int{local, 1, 1}}
	for _, k := range []struct {
		prefix, src string
		bails       bool
	}{{"", reforms, false}, {"irreducible/", irreducible, true}} {
		cVe := compileTierSrc(t, k.src, "k", TierVec)
		cCl := compileTierSrc(t, k.src, "k", TierClosure)
		if cVe.Tier() != TierVec {
			t.Fatalf("tier = %v, want vec", cVe.Tier())
		}
		for _, mode := range []string{"uniform", "grouped", "mixed"} {
			t.Run(k.prefix+mode, func(t *testing.T) {
				argsVe, argsCl := fill(mode), fill(mode)
				pVe, err := cVe.Run(argsVe, nd, RunOptions{})
				if err != nil {
					t.Fatalf("vec run: %v", err)
				}
				pCl, err := cCl.Run(argsCl, nd, RunOptions{})
				if err != nil {
					t.Fatalf("closure run: %v", err)
				}
				// A disagreement runs the sides in place (linearized) or
				// splits the group (a divergence).
				if diverges := mode == "mixed"; (pVe.VecDivergences+pVe.VecLinearized > 0) != diverges ||
					(pVe.VecScalarBails > 0) != (diverges && k.bails) {
					t.Errorf("divergences=%d linearized=%d scalar bails=%d, want disagreement: %v, scalar completion: %v",
						pVe.VecDivergences, pVe.VecLinearized, pVe.VecScalarBails, diverges, diverges && k.bails)
				}
				for _, b := range []int{1, 2} {
					if !reflect.DeepEqual(argsVe[b].Buf.F, argsCl[b].Buf.F) {
						t.Errorf("%s: buffer %d differs between vec and closure", mode, b)
					}
				}
				for b := range pCl.Buckets {
					if pVe.Buckets[b] != pCl.Buckets[b] {
						t.Errorf("%s bucket %d:\n  vec     %+v\n  closure %+v", mode, b, pVe.Buckets[b], pCl.Buckets[b])
					}
				}
			})
		}
	}
}

// TestVecDivergenceReconvergeParity pins the two ways the vector tier
// finishes a group whose lanes disagree at a data-dependent forward
// branch: short straight-line sides run in place under the lane mask
// (linearized), and a side with an instruction that can fault (an
// integer division) splits the group, runs the sides compacted and
// re-forms at the join point. The profile must record which (and no
// scalar bails), and buffers plus per-bucket counts must stay
// byte-identical to the closure tier even though the two sides retired
// different instruction mixes per lane.
func TestVecDivergenceReconvergeParity(t *testing.T) {
	const n = 256
	nd := NDRange{Global: [3]int{n, 1, 1}, Local: [3]int{16, 1, 1}}
	for _, tc := range []struct {
		name, taken string
		split       bool
	}{
		{"linear", "r = sqrt(x) * 2.0f;", false},
		{"split", "r = sqrt(x) * 2.0f + exp(x * 0.25f) + (float)(n / (i + 1));", true},
	} {
		src := `kernel void k(global float* a, global float* out, int n) {
		int i = get_global_id(0);
		float x = a[i];
		float r = 0.0f;
		if (x > 0.0f) {
			` + tc.taken + `
		} else {
			r = fabs(x) - 0.5f;
		}
		out[i] = r + x;
	}`
		cVe := compileTierSrc(t, src, "k", TierVec)
		cCl := compileTierSrc(t, src, "k", TierClosure)
		if cVe.Tier() != TierVec {
			t.Fatalf("%s: tier = %v, want vec", tc.name, cVe.Tier())
		}
		mk := func() []Arg {
			a, out := NewFloatBuffer(n), NewFloatBuffer(n)
			for i := range a.F {
				// Alternating signs: every group disagrees on the branch.
				a.F[i] = float32(1-2*(i%2)) * (0.25 + float32(i%7)*0.125)
			}
			return []Arg{BufArg(a), BufArg(out), IntArg(n)}
		}
		argsVe, argsCl := mk(), mk()
		pVe, err := cVe.Run(argsVe, nd, RunOptions{})
		if err != nil {
			t.Fatalf("%s: vec run: %v", tc.name, err)
		}
		pCl, err := cCl.Run(argsCl, nd, RunOptions{})
		if err != nil {
			t.Fatalf("%s: closure run: %v", tc.name, err)
		}
		if split := pVe.VecDivergences > 0 && pVe.VecReconverges > 0 && pVe.VecLinearized == 0; split != tc.split ||
			!tc.split && (pVe.VecLinearized == 0 || pVe.VecDivergences != 0) {
			t.Fatalf("%s: divergences=%d reconverges=%d linearized=%d, want split: %v",
				tc.name, pVe.VecDivergences, pVe.VecReconverges, pVe.VecLinearized, tc.split)
		}
		if pVe.VecScalarBails != 0 {
			t.Errorf("%s: scalar bails = %d, want 0 (region is re-convergible)", tc.name, pVe.VecScalarBails)
		}
		if pCl.VecDivergences != 0 || pCl.VecReconverges != 0 || pCl.VecLinearized != 0 || pCl.VecScalarBails != 0 {
			t.Errorf("%s: closure tier reported vec counters: %d/%d/%d/%d", tc.name,
				pCl.VecDivergences, pCl.VecReconverges, pCl.VecLinearized, pCl.VecScalarBails)
		}
		if !reflect.DeepEqual(argsVe[1].Buf.F, argsCl[1].Buf.F) {
			t.Errorf("%s: output buffers differ between vec and closure", tc.name)
		}
		for b := range pCl.Buckets {
			if pVe.Buckets[b] != pCl.Buckets[b] {
				t.Errorf("%s bucket %d:\n  vec     %+v\n  closure %+v", tc.name, b, pVe.Buckets[b], pCl.Buckets[b])
			}
		}
	}

	// The same contract when the branch sits inside a uniform-trip loop
	// and the group re-forms every iteration: a one-sided update and an
	// if/else, over data where every lane takes the branch, none does,
	// lanes alternate, and a single lane per group does.
	loopSrc := `kernel void k(global float* a, global float* out, int n, int steps) {
		int i = get_global_id(0);
		float acc = 0.0f;
		int hits = 0;
		for (int s = 0; s < steps; s++) {
			float x = a[i * steps + s];
			if (x > 0.0f) {
				hits++;
			}
			if (x > 1.0f) {
				acc = acc + sqrt(x);
			} else {
				acc = acc - x * 0.5f;
			}
		}
		out[i] = acc + (float)hits;
	}`
	cVe := compileTierSrc(t, loopSrc, "k", TierVec)
	cCl := compileTierSrc(t, loopSrc, "k", TierClosure)
	const steps = 6
	patterns := []struct {
		name      string
		val       func(i, s int) float32
		reconverg bool
	}{
		{"all_taken", func(i, s int) float32 { return 2.5 }, false},
		{"none_taken", func(i, s int) float32 { return -1.5 }, false},
		{"alternating", func(i, s int) float32 { return float32(1-2*((i+s)%2)) * 2 }, true},
		{"single_lane", func(i, s int) float32 {
			if i%16 == 5 && s%2 == 1 {
				return 3
			}
			return -0.25
		}, true},
	}
	for _, pt := range patterns {
		t.Run("in_loop/"+pt.name, func(t *testing.T) {
			mk := func() []Arg {
				a, out := NewFloatBuffer(n*steps), NewFloatBuffer(n)
				for i := 0; i < n; i++ {
					for s := 0; s < steps; s++ {
						a.F[i*steps+s] = pt.val(i, s)
					}
				}
				return []Arg{BufArg(a), BufArg(out), IntArg(n), IntArg(steps)}
			}
			argsVe, argsCl := mk(), mk()
			pVe, err := cVe.Run(argsVe, nd, RunOptions{})
			if err != nil {
				t.Fatalf("vec run: %v", err)
			}
			pCl, err := cCl.Run(argsCl, nd, RunOptions{})
			if err != nil {
				t.Fatalf("closure run: %v", err)
			}
			// Both branches are linear: a disagreement runs their sides in
			// place, and anything that splits must re-form.
			if (pVe.VecLinearized+pVe.VecReconverges > 0) != pt.reconverg || pVe.VecDivergences != pVe.VecReconverges {
				t.Errorf("divergences=%d reconverges=%d linearized=%d, want re-convergence: %v and no escalation",
					pVe.VecDivergences, pVe.VecReconverges, pVe.VecLinearized, pt.reconverg)
			}
			if pVe.VecScalarBails != 0 {
				t.Errorf("scalar bails = %d, want 0", pVe.VecScalarBails)
			}
			if !reflect.DeepEqual(argsVe[1].Buf.F, argsCl[1].Buf.F) {
				t.Errorf("output buffers differ between vec and closure")
			}
			for b := range pCl.Buckets {
				if pVe.Buckets[b] != pCl.Buckets[b] {
					t.Errorf("bucket %d:\n  vec     %+v\n  closure %+v", b, pVe.Buckets[b], pCl.Buckets[b])
				}
			}
		})
	}
}

// TestVecDivergenceMaskedFaultOrder: a fault inside a masked side must
// surface with the message of the canonically FIRST faulting item —
// even when that item's side ran second in the masked schedule. The
// side frames park would-fault lanes pre-instruction, the group bails
// with per-lane PCs, and the scalar completion walks items in order.
func TestVecDivergenceMaskedFaultOrder(t *testing.T) {
	// Odd items (x < 0 side) fault on an out-of-bounds load; even items
	// run clean. The first faulting item is item 1.
	src := `kernel void k(global float* a, global float* out, int n) {
		int i = get_global_id(0);
		float x = a[i];
		if (x > 0.0f) {
			out[i] = x * 2.0f;
		} else {
			out[i] = a[i + n] * 0.5f;
		}
	}`
	cVe := compileTierSrc(t, src, "k", TierVec)
	cCl := compileTierSrc(t, src, "k", TierClosure)
	if cVe.Tier() != TierVec {
		t.Fatalf("tier = %v, want vec", cVe.Tier())
	}
	const n = 64
	mk := func() []Arg {
		a, out := NewFloatBuffer(n), NewFloatBuffer(n)
		for i := range a.F {
			a.F[i] = float32(1 - 2*(i%2)) // +1, -1, +1, ...
		}
		return []Arg{BufArg(a), BufArg(out), IntArg(n)}
	}
	nd := NDRange{Global: [3]int{n, 1, 1}, Local: [3]int{16, 1, 1}}
	_, errVe := cVe.Run(mk(), nd, RunOptions{Workers: 1})
	_, errCl := cCl.Run(mk(), nd, RunOptions{Workers: 1})
	if errVe == nil || errCl == nil {
		t.Fatalf("want faults on both tiers, got vec=%v closure=%v", errVe, errCl)
	}
	if errVe.Error() != errCl.Error() {
		t.Errorf("fault messages differ:\n  vec     %v\n  closure %v", errVe, errCl)
	}

	// Inside a loop: lane 9 of every group would fault in iteration 3,
	// inside the masked side, after three iterations in which the group
	// split and re-formed; lane 2 would fault too, but only in iteration
	// 6. The canonical first fault is item 2's — it runs all of its
	// iterations before item 9 starts — so the bail must carry each
	// lane's own PC and loop state into the scalar completion.
	loopSrc := `kernel void k(global float* a, global int* off, global float* out, int n, int steps) {
		int i = get_global_id(0);
		float acc = 0.0f;
		for (int s = 0; s < steps; s++) {
			float x = a[(i + s) % n];
			if (x > 0.0f) {
				acc = acc + a[i + off[i] * s];
			}
		}
		out[i] = acc;
	}`
	cVe = compileTierSrc(t, loopSrc, "k", TierVec)
	cCl = compileTierSrc(t, loopSrc, "k", TierClosure)
	mkLoop := func() []Arg {
		a, off, out := NewFloatBuffer(n), NewIntBuffer(n), NewFloatBuffer(n)
		for i := range a.F {
			a.F[i] = float32(1 - 2*(i%2))
		}
		for i := range off.I {
			switch i % 16 {
			case 9:
				off.I[i] = n / 3 // a[9 + 21*s]: out of bounds from s = 3 on
			case 2:
				off.I[i] = n / 5 // a[2 + 12*s]: out of bounds from s = 6 on
			}
		}
		return []Arg{BufArg(a), BufArg(off), BufArg(out), IntArg(n), IntArg(8)}
	}
	_, errVe = cVe.Run(mkLoop(), nd, RunOptions{Workers: 1})
	_, errCl = cCl.Run(mkLoop(), nd, RunOptions{Workers: 1})
	if errVe == nil || errCl == nil {
		t.Fatalf("in loop: want faults on both tiers, got vec=%v closure=%v", errVe, errCl)
	}
	if errVe.Error() != errCl.Error() {
		t.Errorf("in loop: fault messages differ:\n  vec     %v\n  closure %v", errVe, errCl)
	}

	// Side-private uniform temporaries: each side of the split first
	// writes its own value of the uniform m, then the else side's odd
	// items fault on a uniform index built from it — a scalarized load,
	// so the index exists only in that side's private scalar slots. The
	// bail must hand every lane its own side's values (the fault text
	// names the index), and the canonical first fault is item 1's
	// although its side ran second.
	privSrc := `kernel void k(global float* a, global float* out, int n) {
		int i = get_global_id(0);
		float x = a[i];
		int m = 0;
		if (x > 0.0f) {
			m = n - 1;
			out[i] = a[m - i] * 2.0f;
		} else {
			m = n / 16;
			out[i] = a[m - 2 * n] + x;
		}
	}`
	cVe = compileTierSrc(t, privSrc, "k", TierVec)
	cCl = compileTierSrc(t, privSrc, "k", TierClosure)
	_, errVe = cVe.Run(mk(), nd, RunOptions{Workers: 1})
	_, errCl = cCl.Run(mk(), nd, RunOptions{Workers: 1})
	if errVe == nil || errCl == nil {
		t.Fatalf("side-private: want faults on both tiers, got vec=%v closure=%v", errVe, errCl)
	}
	if errVe.Error() != errCl.Error() {
		t.Errorf("side-private: fault messages differ:\n  vec     %v\n  closure %v", errVe, errCl)
	}
}

// TestVecDivergenceBailSidePrivate: a bail from inside nested splits
// whose regions have written uniform temporaries completes on the
// scalar VM with every lane's own values of them. m is private to the
// sides of the outer branch and k to the sides of the middle one (both
// dead at those joins); the innermost branch has no join (k is live
// after it), so a group whose lanes disagree there stops two splits
// deep with three different (m, k) pairs among its lanes. No lane
// faults, so the whole launch is comparable with the oracle.
func TestVecDivergenceBailSidePrivate(t *testing.T) {
	src := `kernel void k(global float* a, global float* out, int n) {
		int i = get_global_id(0);
		float x = a[i];
		int m = 0;
		float r = 0.0f;
		if (x > 0.0f) {
			m = n - 1;
			if (x > 1.0f) {
				int k = m - 2;
				if (x > 2.0f) {
					k = k - 5;
				}
				r = a[k - i % 4];
			} else {
				int k = m / 2;
				r = a[k + i % 4] * 0.5f;
			}
			r = r + (float)m;
		} else {
			m = n / 8;
			r = (float)(m * i);
		}
		out[i] = r;
	}`
	cVe := compileTierSrc(t, src, "k", TierVec)
	cCl := compileTierSrc(t, src, "k", TierClosure)
	if cVe.Tier() != TierVec {
		t.Fatalf("tier = %v, want vec", cVe.Tier())
	}
	const n = 64
	mk := func() []Arg {
		a, out := NewFloatBuffer(n), NewFloatBuffer(n)
		for i := range a.F {
			a.F[i] = float32(i%5) - 0.5 // -0.5 .. 3.5: every branch splits every group
		}
		return []Arg{BufArg(a), BufArg(out), IntArg(n)}
	}
	nd := NDRange{Global: [3]int{n, 1, 1}, Local: [3]int{16, 1, 1}}
	argsVe, argsCl := mk(), mk()
	pVe, err := cVe.Run(argsVe, nd, RunOptions{})
	if err != nil {
		t.Fatalf("vec run: %v", err)
	}
	pCl, err := cCl.Run(argsCl, nd, RunOptions{})
	if err != nil {
		t.Fatalf("closure run: %v", err)
	}
	if pVe.VecScalarBails != n/16 {
		t.Errorf("scalar bails = %d, want every group (%d) to stop at the innermost branch", pVe.VecScalarBails, n/16)
	}
	if !reflect.DeepEqual(argsVe[1].Buf.F, argsCl[1].Buf.F) {
		t.Errorf("output buffers differ between vec and closure:\n  vec     %v\n  closure %v", argsVe[1].Buf.F, argsCl[1].Buf.F)
	}
	for b := range pCl.Buckets {
		if pVe.Buckets[b] != pCl.Buckets[b] {
			t.Errorf("bucket %d:\n  vec     %+v\n  closure %+v", b, pVe.Buckets[b], pCl.Buckets[b])
		}
	}
}

// builtinRows is the cross-tier test row of every registered builtin:
// for a math builtin, the operands where its own edge cases are, run
// beside builtinFloats (and, for a Poly builtin's int variant, beside
// builtinInts). A work-item builtin or the barrier needs no operands; its
// row only says it has been thought about.
var builtinRows = map[string]struct {
	f []float64
	i []int64
}{
	"get_global_id": {}, "get_local_id": {}, "get_group_id": {},
	"get_global_size": {}, "get_local_size": {}, "get_num_groups": {},
	"barrier": {},

	"sqrt":  {f: []float64{-1, 4, 1e-40}},
	"rsqrt": {f: []float64{-1, 4, 1e-40}},
	"fabs":  {f: []float64{-3e38}},
	"exp":   {f: []float64{88, 89, -104}},
	"log":   {f: []float64{-1, 1e-40, 2.718281828}},
	"log2":  {f: []float64{-1, 1e-40, 1024}},
	"sin":   {f: []float64{3.14159265, 1e10}},
	"cos":   {f: []float64{3.14159265, 1e10}},
	"tan":   {f: []float64{1.5707963, -1.5707963}},
	"pow":   {f: []float64{-2, 0.5, 3}},
	"fmin":  {},
	"fmax":  {},
	"fma":   {f: []float64{3e38}},
	"mad":   {f: []float64{3e38}},
	"floor": {f: []float64{-0.5, 2.5, -2.5}},
	"ceil":  {f: []float64{-0.5, 2.5, -2.5}},
	"min":   {i: []int64{3}},
	"max":   {i: []int64{3}},
	"abs":   {f: []float64{-3e38}, i: []int64{-2147483647}},
	// lo > hi comes from the cross product of the operands.
	"clamp": {f: []float64{-2, 2}, i: []int64{-2, 2}},
}

// The operands every math builtin runs over: NaN, ±Inf, −0, negative
// arguments, and ones large enough to overflow exp or a product.
var (
	builtinFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		1, -1.5, 0.5, 2.5, 100, -100, 3e38}
	builtinInts = []int64{math.MinInt32, -7, -1, 0, 1, 2, 5, math.MaxInt32}
)

// builtinCase builds the kernel and launch of one builtin's variant:
// out[i] = name(x[i], y[i], z[i]) over every tuple of its operands for a
// math builtin, every query at constant and loaded dimensions for a
// work-item one, and a local-memory exchange around the barrier.
func builtinCase(b *minicl.Builtin, isInt bool) (src string, args func() []Arg, nd NDRange) {
	switch b.Kind {
	case minicl.BuiltinWorkItem:
		src = fmt.Sprintf(`kernel void k(global const int* d, global int* out) {
			int i = get_global_id(1) * get_global_size(0) + get_global_id(0);
			out[i] = %[1]s(0) + 10 * %[1]s(1) + 100 * %[1]s(2) + 1000 * %[1]s(d[i]);
		}`, b.Name)
		args = func() []Arg {
			d := NewIntBuffer(32)
			for i := range d.I {
				d.I[i] = int32(i % 3)
			}
			return []Arg{BufArg(d), BufArg(NewIntBuffer(32))}
		}
		return src, args, NDRange{Global: [3]int{8, 4, 1}, Local: [3]int{4, 2, 1}}
	case minicl.BuiltinBarrier:
		src = `kernel void k(global const int* d, global int* out, local int* tmp) {
			int l = get_local_id(0);
			tmp[l] = d[get_global_id(0)] * 3;
			barrier(1);
			out[get_global_id(0)] = tmp[get_local_size(0) - 1 - l];
		}`
		args = func() []Arg {
			d := NewIntBuffer(32)
			for i := range d.I {
				d.I[i] = int32(i)
			}
			return []Arg{BufArg(d), BufArg(NewIntBuffer(32)), LocalArg(8)}
		}
		return src, args, NDRange{Global: [3]int{32, 1, 1}, Local: [3]int{8, 1, 1}}
	}
	row := builtinRows[b.Name]
	floats, ints := append(slices.Clone(builtinFloats), row.f...), append(slices.Clone(builtinInts), row.i...)
	elem, vals := "float", len(floats)
	if isInt {
		elem, vals = "int", len(ints)
	}
	arity := len(b.Args)
	params := []string{"x[i]", "y[i]", "z[i]"}[:arity]
	src = fmt.Sprintf(`kernel void k(global const %[1]s* x, global const %[1]s* y, global const %[1]s* z, global %[1]s* out) {
			int i = get_global_id(0);
			out[i] = %[2]s(%[3]s);
		}`, elem, b.Name, strings.Join(params, ", "))
	// Every tuple of operands, padded with the first to whole groups of 8.
	tuples := 1
	for range arity {
		tuples *= vals
	}
	n := (tuples + 7) / 8 * 8
	args = func() []Arg {
		bufs := make([]*Buffer, 4)
		for j := range bufs {
			if isInt {
				bufs[j] = NewIntBuffer(n)
			} else {
				bufs[j] = NewFloatBuffer(n)
			}
		}
		for t := 0; t < tuples; t++ {
			for j, r := 0, t; j < arity; j, r = j+1, r/vals {
				if isInt {
					bufs[j].I[t] = int32(ints[r%vals])
				} else {
					bufs[j].F[t] = float32(floats[r%vals])
				}
			}
		}
		out := make([]Arg, len(bufs))
		for j, buf := range bufs {
			out[j] = BufArg(buf)
		}
		return out
	}
	return src, args, NDRange{Global: [3]int{n, 1, 1}, Local: [3]int{8, 1, 1}}
}

// TestBuiltinsEveryTier runs every registered builtin, in each numeric
// variant it has (float, plus int for a Poly builtin), on the closure
// oracle, the scalar VM and the vector tier, and requires bit-identical
// buffers and per-bucket profiles. A registered builtin with no row in
// builtinRows fails it.
func TestBuiltinsEveryTier(t *testing.T) {
	for name := range builtinRows {
		if _, ok := minicl.LookupBuiltin(name); !ok {
			t.Errorf("builtinRows has a row for %q, which is not registered", name)
		}
	}
	for _, b := range minicl.Builtins {
		if _, ok := builtinRows[b.Name]; !ok {
			t.Errorf("builtin %s is registered but has no row in builtinRows", b.Name)
			continue
		}
		variants := []bool{false}
		if b.Poly {
			variants = append(variants, true)
		}
		for _, isInt := range variants {
			t.Run(fmt.Sprintf("%s/int=%v", b.Name, isInt), func(t *testing.T) {
				src, args, nd := builtinCase(b, isInt)
				tiers := []Tier{TierClosure, TierVM, TierVec}
				comp := make([]*Compiled, len(tiers))
				for ti, tier := range tiers {
					comp[ti] = compileTierSrc(t, src, "k", tier)
				}
				for _, nb := range []int{1, DefaultBuckets} {
					var ref []Arg
					var refProf *Profile
					for ti, tier := range tiers {
						a := args()
						p, err := comp[ti].Run(a, nd, RunOptions{Buckets: nb})
						if err != nil {
							t.Fatalf("%v: %v", tier, err)
						}
						if tier == TierClosure {
							ref, refProf = a, p
							continue
						}
						for ai := range a {
							if bitsDiffer(a[ai].Buf, ref[ai].Buf) {
								t.Errorf("%v: buffer %d differs from the closure oracle's:\n  got  %v%v\n  want %v%v",
									tier, ai, a[ai].Buf.F, a[ai].Buf.I, ref[ai].Buf.F, ref[ai].Buf.I)
							}
						}
						for bk := range refProf.Buckets {
							if p.Buckets[bk] != refProf.Buckets[bk] {
								t.Errorf("%v, %d buckets, bucket %d: %+v, closure oracle %+v", tier, nb, bk, p.Buckets[bk], refProf.Buckets[bk])
							}
						}
					}
				}
			})
		}
	}
}

// bitsDiffer reports whether two buffers differ in any bit (nil buffers,
// local arguments, agree). As in kgenSame, any NaN equals any NaN: which
// of two NaN operands an operation returns depends on the operand order
// the compiler picks (fma(0, Inf, NaN) gives either NaN under -race),
// which the tiers do not promise.
func bitsDiffer(a, b *Buffer) bool {
	if a == nil || b == nil {
		return a != b
	}
	return !slices.EqualFunc(a.F, b.F, func(x, y float32) bool {
		return math.Float32bits(x) == math.Float32bits(y) || x != x && y != y
	}) || !slices.Equal(a.I, b.I)
}

// BenchmarkVMProfileBatching exercises the block-batched counter path
// on a loop-heavy kernel (64-iteration MAC loop per item), where the
// per-iteration counter cost dominated before batching.
func BenchmarkVMProfileBatching(b *testing.B) {
	src := `kernel void mm(global const float* a, global const float* x,
			global float* c, int n) {
		int row = get_global_id(1);
		int col = get_global_id(0);
		float acc = 0.0f;
		for (int t = 0; t < n; t = t + 1) {
			acc = acc + a[row * n + t] * x[t * n + col];
		}
		c[row * n + col] = acc;
	}`
	u, err := inspire.LowerSource("bench", src)
	if err != nil {
		b.Fatal(err)
	}
	k := u.Kernel("mm")
	if k == nil {
		b.Fatal("kernel mm not found")
	}
	c, err := CompileTier(k, TierVM)
	if err != nil {
		b.Fatal(err)
	}
	const n = 64
	args := []Arg{
		BufArg(NewFloatBuffer(n * n)), BufArg(NewFloatBuffer(n * n)),
		BufArg(NewFloatBuffer(n * n)), IntArg(n),
	}
	nd := ND2(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(args, nd, RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(n * n * n * 8)
}
