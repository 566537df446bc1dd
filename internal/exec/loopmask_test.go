package exec

import (
	"fmt"
	"math/rand"
	"testing"
)

// loopMaskCases are loops whose lanes leave at different iterations, so
// the vector tier runs them under a loop mask (vm/vecdiverge.go): lanes
// that exit park at the loop's exit join until the last lane is out.
// TestVectorizeRejects in package vm keeps the in-loop regions a mask
// cannot run: a barrier, a store through a uniform index.
var loopMaskCases = []struct {
	name, src string
}{
	{
		// A rotated loop with a per-item bound: a varying addjcmp.i.
		name: "varying_trip_count",
		src: `kernel void k(global float* a, global float* out, int n) {
			int i = get_global_id(0);
			int m = i % 7;
			float acc = 0.0f;
			for (int j = 0; j < m; j = j + 1) {
				acc = acc + 1.0f;
			}
			out[i] = acc;
		}`,
	},
	{
		// The bound is recomputed every iteration, so the loop is not
		// rotated: its exit test is a forward branch whose region is the
		// whole body, back-edge included.
		name: "varying_exit_test",
		src: `kernel void k(global float* a, global float* out, int n) {
			int i = get_global_id(0);
			float acc = 0.0f;
			for (int j = 0; j < i % 7; j = j + 1) {
				acc = acc + 1.0f;
			}
			out[i] = acc;
		}`,
	},
	{
		// A nested uniform loop under a varying guard: the inner counter
		// stays uniform, private to the side that runs it.
		name: "in_loop_region_with_nested_loop",
		src: `kernel void k(global float* a, global float* out, int n) {
			int i = get_global_id(0);
			float acc = 0.0f;
			for (int j = 0; j < n; j = j + 1) {
				if (a[i + j] > 0.5f) {
					for (int t = 0; t < 3; t = t + 1) {
						acc = acc + 1.0f;
					}
				}
			}
			out[i] = acc;
		}`,
	},
	{
		// A break: the join is past the loop, and the breaking lanes
		// run the jump to it before they park.
		name: "in_loop_region_with_break",
		src: `kernel void k(global float* a, global float* out, int n) {
			int i = get_global_id(0);
			float acc = 0.0f;
			for (int j = 0; j < n; j = j + 1) {
				if (a[i + j] > 0.5f) {
					break;
				}
				acc = acc + 1.0f;
			}
			out[i] = acc;
		}`,
	},
	{
		// Control dependence makes the loop counter varying, and with it
		// the trip count.
		name: "in_loop_region_writes_loop_counter",
		src: `kernel void k(global float* a, global float* out, int n) {
			int i = get_global_id(0);
			float acc = 0.0f;
			for (int j = 0; j < n; j = j + 1) {
				if (a[i + j] > 0.5f) {
					j = j + 1;
				}
				acc = acc + 1.0f;
			}
			out[i] = acc;
		}`,
	},
	{
		// mandelbrot's shape: a while loop whose exit test is a `&&` of
		// a uniform-looking counter test and a float test; the counter is
		// live after the loop, so it is varying.
		name: "and_exit",
		src: `kernel void k(global float* a, global float* out, int n) {
			int i = get_global_id(0);
			float z = 0.0f;
			float c = a[i];
			int it = 0;
			while (it < n && z * z < 4.0f) {
				z = z * z + c;
				it++;
			}
			out[i] = (float)it + z;
		}`,
	},
	{
		// A break that runs code first, and a continue, both under
		// varying guards.
		name: "break_with_code_and_continue",
		src: `kernel void k(global float* a, global float* out, int n) {
			int i = get_global_id(0);
			float acc = 0.0f;
			int hits = 0;
			for (int j = 0; j < n; j = j + 1) {
				float x = a[i + j];
				if (x > 1.5f) {
					acc = acc * 2.0f + x;
					hits = hits + 10;
					break;
				}
				if (x < -1.0f) {
					continue;
				}
				acc = acc + x;
				hits++;
			}
			out[i] = acc + (float)hits;
		}`,
	},
	{
		// Work-item queries inside a masked loop: the narrowing compacts
		// the per-lane id ramps with the registers.
		name: "work_item_queries_in_loop",
		src: `kernel void k(global float* a, global float* out, int n) {
			int i = get_global_id(0);
			float acc = 0.0f;
			int j = 0;
			while (j < (i * 5) % 9) {
				acc = acc + a[get_global_id(0) + j % n] * (float)(get_local_id(0) + j);
				j = j + get_local_size(0) / 16;
			}
			out[i] = acc;
		}`,
	},
	{
		// A varying loop inside a varying loop, under a uniform loop, with
		// a uniform temporary computed inside the masked loop and dead
		// after it.
		name: "nested_varying_loops",
		src: `kernel void k(global float* a, global float* out, int n) {
			int i = get_global_id(0);
			float acc = 0.0f;
			for (int r = 0; r < 2; r++) {
				int m = (i + r) % 5;
				for (int j = 0; j < m; j++) {
					int u = n - r;
					for (int q = j; q < (i % 3) + j; q++) {
						acc = acc + a[(q + u) % n];
					}
				}
			}
			out[i] = acc;
		}`,
	},
}

// loopMaskLaunch is the launch every loop-mask case runs: a in [-2, 2)
// padded for a[i + j] with j < n, groups of 16.
func loopMaskLaunch() (func() []Arg, NDRange) {
	const n, groups = 8, 4
	args := func() []Arg {
		r := rand.New(rand.NewSource(35))
		a := NewFloatBuffer(16*groups + n)
		for i := range a.F {
			a.F[i] = r.Float32()*4 - 2
		}
		return []Arg{BufArg(a), BufArg(NewFloatBuffer(16 * groups)), IntArg(n)}
	}
	return args, NDRange{Global: [3]int{16 * groups, 1, 1}, Local: [3]int{16, 1, 1}}
}

// TestVecLoopMasks: every loop-mask case vectorizes, and the vector tier
// matches the closure oracle and the scalar VM on buffers and on every
// profile bucket, takes exactly the VM's steps (fuel charged per live
// lane), and re-forms every split it makes without a scalar bail.
func TestVecLoopMasks(t *testing.T) {
	defer func(lease int64) { vmStepLease = lease }(vmStepLease)
	vmStepLease = 1
	args, nd := loopMaskLaunch()
	for _, tc := range loopMaskCases {
		t.Run(tc.name, func(t *testing.T) {
			cVec := compileTierSrc(t, tc.src, "k", TierVec)
			tiers := []*Compiled{compileTierSrc(t, tc.src, "k", TierClosure), compileTierSrc(t, tc.src, "k", TierVM), cVec}
			var outs [][]Arg
			var profs []*Profile
			for _, c := range tiers {
				a := args()
				prof, err := c.Run(a, nd, RunOptions{Workers: 1, Buckets: 4})
				if err != nil {
					t.Fatalf("%v: %v", c.Tier(), err)
				}
				outs, profs = append(outs, a), append(profs, prof)
			}
			for ti := 1; ti < len(tiers); ti++ {
				ctx := fmt.Sprintf("%v vs closure", tiers[ti].Tier())
				kgenSame(t, ctx, kgenOutcome{args: outs[0], prof: profs[0]}, kgenOutcome{args: outs[ti], prof: profs[ti]})
			}
			if p := profs[2]; p.VecDivergences == 0 || p.VecReconverges != p.VecDivergences || p.VecScalarBails != 0 {
				t.Fatalf("vec: %d divergences, %d re-formed, %d scalar bails; want every split to re-form\n%s",
					p.VecDivergences, p.VecReconverges, p.VecScalarBails, cVec.Vec().Disassemble())
			}
			if sVM, sVec := stepsTaken(t, tiers[1], args, nd), stepsTaken(t, cVec, args, nd); sVM != sVec {
				t.Fatalf("steps drawn from the pool: vm %d, vec %d", sVM, sVec)
			}
		})
	}
}

// TestVecLoopMaskFaultOrder: a lane that would fault in a late
// iteration of a masked loop, while lanes before it in item order have
// already left the loop and lanes after it are still in it, bails the
// group to scalar completion in item order: the tiers report the same
// fault, the canonical item's.
func TestVecLoopMaskFaultOrder(t *testing.T) {
	src := `kernel void k(global float* a, global float* out, int n) {
		int i = get_global_id(0);
		float acc = 0.0f;
		for (int j = 0; j < i % 5 + 1; j++) {
			acc = acc + a[i + j * (i / 13) * n];
		}
		out[i] = acc;
	}`
	args, nd := loopMaskLaunch()
	var want string
	for _, tier := range []Tier{TierClosure, TierVM, TierVec} {
		_, err := compileTierSrc(t, src, "k", tier).Run(args(), nd, RunOptions{Workers: 1})
		if err == nil {
			t.Fatalf("%v: launch completed, want a load fault", tier)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("%v: fault %q, closure %q", tier, err, want)
		}
	}
}
