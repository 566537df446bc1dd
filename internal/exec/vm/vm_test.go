package vm

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
)

// TestSuspendResume drives the barrier protocol directly: Run must stop
// at each barrier with Suspended and continue from the saved PC on the
// next call.
func TestSuspendResume(t *testing.T) {
	src := `
kernel void k(global float* out, local float* tile, int n) {
	int l = get_local_id(0);
	tile[l] = (float)l;
	barrier(1);
	out[l] = tile[l] + 1.0f;
	barrier(1);
	out[l] = out[l] * 2.0f;
}`
	p := compileKernel(t, "susp", src, "k", Options{})
	f := p.NewFrame()
	f.Globals = []Buf{{F: make([]float32, 4)}}
	f.Locals = []Buf{{F: make([]float32, 4)}}
	f.WI[WILocalSize] = [3]int64{4, 1, 1}
	f.WI[WIGlobalSize] = [3]int64{4, 1, 1}
	f.WI[WINumGroups] = [3]int64{1, 1, 1}
	f.WI[WILocalID] = [3]int64{2, 0, 0}
	f.WI[WIGlobalID] = [3]int64{2, 0, 0}
	// n is the only scalar param.
	for _, pr := range p.Params {
		if pr.Kind == ParamInt {
			f.I[pr.Index] = 4
		}
	}

	suspends := 0
	for {
		st, err := p.Run(f)
		if err != nil {
			t.Fatal(err)
		}
		if st == Halted {
			break
		}
		suspends++
		if suspends > 2 {
			t.Fatalf("more suspends than barriers")
		}
	}
	if suspends != 2 {
		t.Fatalf("got %d suspends, want 2", suspends)
	}
	if got := f.Globals[0].F[2]; got != 6 {
		t.Fatalf("out[2] = %g, want 6", got)
	}
	if f.Cnt.Barriers != 2 {
		t.Fatalf("Barriers = %d, want 2", f.Cnt.Barriers)
	}
}

// vectorizeKernel compiles and vectorizes, failing the test on either.
func vectorizeKernel(t *testing.T, name, source, kernel string) *VecFunc {
	t.Helper()
	p := compileKernel(t, name, source, kernel, Options{})
	vp, err := Vectorize(p)
	if err != nil {
		t.Fatalf("%s: vectorize: %v", name, err)
	}
	return vp
}

// bindVecWI fills the launch-constant work-item queries and the id
// ramps for a single 1-D group of w lanes starting at global id base.
func bindVecWI(f *VecFrame, w int, base int64) {
	f.WI[WIGlobalSize] = [3]int64{int64(w), 1, 1}
	f.WI[WILocalSize] = [3]int64{int64(w), 1, 1}
	f.WI[WINumGroups] = [3]int64{1, 1, 1}
	for l := 0; l < w; l++ {
		f.LaneWI[WILocalID][0][l] = int64(l)
		f.LaneWI[WIGlobalID][0][l] = base + int64(l)
	}
}

// TestVecLaneRamps drives the vector tier directly: the global-id query
// must materialize as a per-lane ramp, and a gid-indexed store must
// scatter each lane to its own element in one dispatch.
func TestVecLaneRamps(t *testing.T) {
	src := `kernel void ramp(global float* out, int n) {
		int i = get_global_id(0);
		out[i] = (float)(i * 2);
	}`
	vp := vectorizeKernel(t, "ramp", src, "ramp")
	const w = 8
	f := vp.NewVecFrame(w)
	f.Globals = []Buf{{F: make([]float32, w)}}
	bindVecWI(f, w, 0)
	for _, pr := range vp.Params {
		if pr.Kind == ParamInt {
			f.SetI(pr.Index, w)
		}
	}
	st, err := vp.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	if st != Halted {
		t.Fatalf("status = %v, want Halted", st)
	}
	for i, v := range f.Globals[0].F {
		if v != float32(2*i) {
			t.Fatalf("out[%d] = %g, want %g", i, v, float32(2*i))
		}
	}
	// Lane layout invariant: register r's lanes live at [r*W, r*W+W).
	for r := int32(0); r < int32(vp.NumI); r++ {
		lanes := f.lanesI(r)
		for l := range lanes {
			if &lanes[l] != &f.I[int(r)*w+l] {
				t.Fatalf("lanesI(%d)[%d] does not alias I[%d]", r, l, int(r)*w+l)
			}
		}
	}
}

// TestVecFramePow2 pins the pow2 register-file rounding on both frame
// kinds: masks must cover the file exactly.
func TestVecFramePow2(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 8, 9, 17} {
		want := ceilPow2(n)
		if want&(want-1) != 0 || want < 1 || want < n || (want > 1 && want/2 >= n) {
			t.Fatalf("ceilPow2(%d) = %d", n, want)
		}
	}
	p := &Func{NumI: 5, NumF: 3}
	sf := p.NewFrame()
	if len(sf.I) != 8 || len(sf.F) != 4 {
		t.Fatalf("scalar frame files %d/%d, want 8/4", len(sf.I), len(sf.F))
	}
	vp := &VecFunc{Func: p}
	vf := vp.NewVecFrame(4)
	if len(vf.I) != 8*4 || len(vf.F) != 4*4 || vf.mi != 7 || vf.mf != 3 {
		t.Fatalf("vec frame files %d/%d masks %d/%d", len(vf.I), len(vf.F), vf.mi, vf.mf)
	}
	if len(vf.Frame.I) != 8 || len(vf.Frame.F) != 4 {
		t.Fatalf("vec frame scalar slots %d/%d, want 8/4", len(vf.Frame.I), len(vf.Frame.F))
	}
}

// TestVectorizeRejects pins the eligibility rules: a varying branch
// inside a loop — a back-edge, an exit test, a branch in the body —
// refuses to vectorize only when its region cannot run masked, because
// it holds a barrier or a store through a uniform index. The loop
// shapes a mask admits (varying trip counts and exit tests, nested
// loops and breaks under a varying guard, a guard that writes the loop
// counter) are held to the other tiers by TestVecLoopMasks in package
// exec.
func TestVectorizeRejects(t *testing.T) {
	cases := []struct {
		name, src, kernel, wantErr string
	}{
		{
			// The sides of the split would deadlock each other.
			name: "in_loop_region_with_barrier",
			src: `kernel void k(global float* a, global float* out, local float* tmp, int n) {
				int i = get_global_id(0);
				int l = get_local_id(0);
				for (int j = 0; j < n; j = j + 1) {
					if (a[i + j] > 0.5f) {
						tmp[l] = a[i];
						barrier(1);
					}
				}
				out[i] = tmp[l];
			}`,
			kernel: "k", wantErr: "varying branch inside loop body",
		},
		{
			// A per-item trip count around a barrier: the lanes that left
			// the loop would never reach it.
			name: "varying_trip_count_with_barrier",
			src: `kernel void k(global float* a, global float* out, local float* tmp, int n) {
				int i = get_global_id(0);
				int l = get_local_id(0);
				int m = i % 7;
				for (int j = 0; j < m; j = j + 1) {
					tmp[l] = a[i + j];
					barrier(1);
				}
				out[i] = tmp[l];
			}`,
			kernel: "k", wantErr: "varying loop back-edge",
		},
		{
			// Side order would replace canonical item order on out[0].
			name: "in_loop_region_with_uniform_index_store",
			src: `kernel void k(global float* a, global float* out, int n) {
				int i = get_global_id(0);
				for (int j = 0; j < n; j = j + 1) {
					if (a[i + j] > 0.5f) {
						out[0] = a[i];
					}
				}
				out[i + 1] = 1.0f;
			}`,
			kernel: "k", wantErr: "varying branch inside loop body",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := compileKernel(t, tc.name, tc.src, tc.kernel, Options{})
			if _, err := Vectorize(p); err == nil {
				t.Fatalf("vectorized, want rejection")
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
	// The admitted in-loop shape: a short loop-free `if` under a varying
	// condition re-forms at its join every iteration, and the accumulator
	// it writes is varying by control dependence even though both values
	// it can take (acc, acc + 1) are computed from uniform operands.
	t.Run("varying_branch_in_loop", func(t *testing.T) {
		vp := vectorizeKernel(t, "loopif", `kernel void k(global float* a, global float* out, int n) {
			int i = get_global_id(0);
			float acc = 0.0f;
			for (int j = 0; j < n; j = j + 1) {
				if (a[i + j] > 0.5f) {
					acc = acc + 1.0f;
				}
			}
			out[i] = acc;
		}`, "k")
		branches := 0
		for pc := range vp.Code {
			in := &vp.Code[pc]
			tgt, ok := condJumpTarget(in, pc)
			if !ok || vp.condUniform[pc] {
				continue
			}
			branches++
			j := vp.joinPC[pc]
			if j <= pc || j > tgt {
				t.Fatalf("in-loop branch at pc %d (-> %d): joinPC = %d, want a join inside the iteration", pc, tgt, j)
			}
			// Everything the region writes — here just the accumulator —
			// must be classified varying.
			for v := pc + 1; v < j; v++ {
				if isF, r, ok := destReg(&vp.Code[v]); ok && (isF && vp.uniF[r] || !isF && vp.uniI[r]) {
					t.Fatalf("pc %d writes a uniform register inside the divergent region of pc %d", v, pc)
				}
			}
			if len(vp.regions[pc].outF) != 1 {
				t.Fatalf("region of pc %d scatters float registers %v, want just the accumulator", pc, vp.regions[pc].outF)
			}
		}
		if branches != 1 {
			t.Fatalf("loopif kernel has %d varying branches, want 1", branches)
		}
	})
	// And the admitted shape: a varying forward guard outside any loop.
	vp := vectorizeKernel(t, "guard", `kernel void k(global float* out, int n) {
		int i = get_global_id(0);
		if (i < n) { out[i] = 1.0f; }
	}`, "k")
	if uni, total := vp.UniformConds(); total != 1 || uni != 0 {
		t.Fatalf("guard kernel conds = %d/%d, want 0/1", uni, total)
	}
	// `v++; if (v > x)` is admitted: the peephole pass fuses an increment
	// into a compare-branch only on a loop's back-edge, so the forward
	// pair stays an add and a plain varying jcmp.i with a join.
	vp = vectorizeKernel(t, "incif", `kernel void k(global float* a, global float* out, int n) {
		int i = get_global_id(0);
		int v = (int)a[i];
		float r = 0.0f;
		v = v + 1;
		if (v > n) {
			r = a[i] * 2.0f;
		}
		out[i] = r;
	}`, "k")
	for pc := range vp.Code {
		if vp.Code[pc].Op == OpIncJCmpI {
			t.Fatalf("forward increment-compare fused to addjcmp.i at pc %d:\n%s", pc, vp.Disassemble())
		}
	}
	if uni, total := vp.UniformConds(); total != 1 || uni != 0 || vp.BailBranches() != 0 {
		t.Fatalf("incif kernel conds = %d/%d, %d without a join; want one varying branch with a join",
			uni, total, vp.BailBranches())
	}
	// A branch on a uniform-index load inside a loop is admitted now:
	// lockstep lanes load the same cell, so the condition is uniform.
	vp = vectorizeKernel(t, "uload", `kernel void k(global float* a, global float* out, int n) {
		int i = get_global_id(0);
		float acc = 0.0f;
		for (int j = 0; j < n; j = j + 1) {
			if (a[j] > 0.5f) {
				acc = acc + a[j];
			}
		}
		out[i] = acc;
	}`, "k")
	if uni, total := vp.UniformConds(); uni != total {
		t.Fatalf("uniform-load kernel conds = %d/%d, want all uniform", uni, total)
	}
}

// TestVecDivergenceReconverges: when lanes disagree at a varying
// branch whose region has a safe join point, Run must split the group,
// run both sides masked, and re-form at the join — finishing the whole
// group W-wide with per-lane counts instead of bailing to scalar.
func TestVecDivergenceReconverges(t *testing.T) {
	src := `kernel void k(global float* a, global float* out, int n) {
		int i = get_global_id(0);
		float x = a[i];
		if (x > 0.0f) {
			out[i] = x * 2.0f;
		} else {
			out[i] = -x;
		}
	}`
	vp := vectorizeKernel(t, "div", src, "k")
	const w = 4
	f := vp.NewVecFrame(w)
	in := make([]float32, w)
	for i := range in {
		in[i] = float32(1 - 2*(i%2)) // alternating signs: lanes disagree
	}
	f.Globals = []Buf{{F: in}, {F: make([]float32, w)}}
	bindVecWI(f, w, 0)
	for _, pr := range vp.Params {
		if pr.Kind == ParamInt {
			f.SetI(pr.Index, w)
		}
	}
	st, err := vp.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	if st != Halted {
		t.Fatalf("status = %v, want Halted", st)
	}
	if f.Divergences != 1 || f.Reconverges != 1 {
		t.Fatalf("Divergences/Reconverges = %d/%d, want 1/1", f.Divergences, f.Reconverges)
	}
	for i, v := range f.Globals[1].F {
		want := -in[i]
		if in[i] > 0 {
			want = in[i] * 2
		}
		if v != want {
			t.Fatalf("out[%d] = %g, want %g", i, v, want)
		}
	}
	// Counts went per-lane at the split: each item still saw exactly
	// one conditional branch, whichever side it took.
	if !f.Laned {
		t.Fatal("re-converged frame has no per-lane counts")
	}
	for l := 0; l < w; l++ {
		if c := f.LaneCounts(l); c.Branches != 1 {
			t.Fatalf("lane %d Branches = %d, want 1", l, c.Branches)
		}
	}
}

// TestVecDivergenceParksPC: a divergent region that is ineligible for
// re-formation (here: both sides store through a uniform index, so side
// order would replace canonical item order on out[0]) must take the
// full bail — Diverged with the PC parked at the branch and the branch
// itself uncounted, so a scalar rerun re-executes it exactly once.
func TestVecDivergenceParksPC(t *testing.T) {
	src := `kernel void k(global float* a, global float* out, int n) {
		int i = get_global_id(0);
		float x = a[i];
		if (x > 0.0f) {
			out[0] = x;
		} else {
			out[0] = -x;
		}
		out[i + 1] = x;
	}`
	vp := vectorizeKernel(t, "divbail", src, "k")
	const w = 4
	f := vp.NewVecFrame(w)
	in := make([]float32, w)
	for i := range in {
		in[i] = float32(1 - 2*(i%2)) // alternating signs: lanes disagree
	}
	f.Globals = []Buf{{F: in}, {F: make([]float32, w+1)}}
	bindVecWI(f, w, 0)
	for _, pr := range vp.Params {
		if pr.Kind == ParamInt {
			f.SetI(pr.Index, w)
		}
	}
	st, err := vp.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	if st != Diverged {
		t.Fatalf("status = %v, want Diverged", st)
	}
	if f.PCLaned {
		t.Fatal("full bail must park a single shared PC")
	}
	in2 := &vp.Code[f.PC]
	if _, ok := condJumpTarget(in2, f.PC); !ok || vp.condUniform[f.PC] {
		t.Fatalf("parked PC %d is not a varying conditional jump", f.PC)
	}
	if f.Divergences != 1 {
		t.Fatalf("Divergences = %d, want 1", f.Divergences)
	}
	if f.Cnt.Branches != 0 {
		t.Fatalf("diverging branch was counted: Branches = %d", f.Cnt.Branches)
	}
	for _, v := range f.Globals[1].F {
		if v != 0 {
			t.Fatalf("store retired before divergence: out = %v", f.Globals[1].F)
		}
	}
}

// varyingBranches returns the PCs of vp's varying conditional jumps.
func varyingBranches(vp *VecFunc) []int {
	var pcs []int
	for pc := range vp.Code {
		if _, ok := condJumpTarget(&vp.Code[pc], pc); ok && !vp.condUniform[pc] {
			pcs = append(pcs, pc)
		}
	}
	return pcs
}

// TestVecJoinAnalysis pins what register liveness at the join decides:
// which divergent regions outside a loop may write a uniform register
// or store through a uniform index, and what a split copies.
func TestVecJoinAnalysis(t *testing.T) {
	// A uniform temporary computed inside a short-circuit guard dies
	// before the join: the branch joins and the temporary is private to
	// each side.
	t.Run("uniform_temp_dead_at_join", func(t *testing.T) {
		vp := vectorizeKernel(t, "deadtemp", `kernel void k(global float* a, global float* out, int n) {
			int i = get_global_id(0);
			if (i > 0 && i < n - 1) {
				out[i] = a[i];
			}
		}`, "k")
		if vp.BailBranches() != 0 {
			t.Fatalf("%d branches without a join:\n%s", vp.BailBranches(), vp.Disassemble())
		}
		first := varyingBranches(vp)[0]
		reg := vp.regions[first]
		var temps []int32
		for v := first + 1; v < vp.joinPC[first]; v++ {
			if isF, r, ok := destReg(&vp.Code[v]); ok && !isF && vp.uniI[r] {
				temps = append(temps, r)
			}
		}
		if len(temps) == 0 || !slices.Equal(reg.privI, temps) {
			t.Fatalf("region of pc %d: side-private %v, uniform registers written %v; want them equal and non-empty\n%s",
				first, reg.privI, temps, vp.Disassemble())
		}
		if privI, _ := vp.sidePrivate(); !slices.Equal(privI, temps) {
			t.Fatalf("sidePrivate = %v, want %v", privI, temps)
		}
	})
	// The same kind of temporary read after the join is live there: the
	// sides would disagree about a "uniform" value, so no join.
	t.Run("uniform_temp_live_at_join", func(t *testing.T) {
		vp := vectorizeKernel(t, "livetemp", `kernel void k(global float* a, global float* out, int n) {
			int i = get_global_id(0);
			int m = 0;
			if (a[i] > 0.0f) {
				m = n - 1;
			}
			out[i] = (float)m;
		}`, "k")
		pcs := varyingBranches(vp)
		if len(pcs) != 1 || vp.joinPC[pcs[0]] >= 0 || vp.BailBranches() != 1 {
			t.Fatalf("want one varying branch and no join:\n%s", vp.Disassemble())
		}
	})
	// A store through a uniform index: one-sided outside a loop joins
	// (TestVectorizeRejects has the in-loop refusal); with a store on
	// either side of an if/else there is no join.
	t.Run("uniform_index_store", func(t *testing.T) {
		one := vectorizeKernel(t, "onesided", `kernel void k(global float* a, global float* out, int n) {
			int i = get_global_id(0);
			float x = a[i];
			if (x > 0.0f) {
				out[0] = x;
			}
			out[i + 1] = x;
		}`, "k")
		if one.BailBranches() != 0 {
			t.Fatalf("one-sided uniform-index store has no join:\n%s", one.Disassemble())
		}
		two := vectorizeKernel(t, "twosided", `kernel void k(global float* a, global float* out, int n) {
			int i = get_global_id(0);
			float x = a[i];
			if (x > 0.0f) {
				out[0] = x;
			} else {
				out[i + 1] = x;
			}
		}`, "k")
		if two.BailBranches() != 1 {
			t.Fatalf("two-sided region with a uniform-index store: %d branches without a join, want 1:\n%s",
				two.BailBranches(), two.Disassemble())
		}
	})
	// A stencil's guarded update: the split at the last term of the
	// guard fills only the two coordinates and scatters nothing back —
	// every other register the sides touch is written before it is read
	// and dead at the join.
	t.Run("stencil_copies", func(t *testing.T) {
		vp := vectorizeKernel(t, "stencil", `kernel void k(global const float* in, global float* out, int w, int h) {
			int x = get_global_id(0);
			int y = get_global_id(1);
			if (x > 0 && x < w - 1 && y > 0 && y < h - 1) {
				out[y * w + x] = in[(y - 1) * w + x] + in[(y + 1) * w + x] + in[y * w + x - 1] + in[y * w + x + 1];
			} else if (x < w && y < h) {
				out[y * w + x] = 0.0f;
			}
		}`, "k")
		if vp.BailBranches() != 0 {
			t.Fatalf("%d branches without a join:\n%s", vp.BailBranches(), vp.Disassemble())
		}
		var coords []int32
		for pc := range vp.Code {
			if in := &vp.Code[pc]; in.Op == OpWI && in.B == WIGlobalID {
				coords = append(coords, in.A)
			}
		}
		slices.Sort(coords)
		for _, pc := range varyingBranches(vp) {
			if vp.Code[pc].Op != OpJZBr || vp.joinPC[pc] != len(vp.Code)-1 {
				continue
			}
			reg := vp.regions[pc]
			if !slices.Equal(reg.inI, coords) || len(reg.inF) != 0 || len(reg.outI)+len(reg.outF) != 0 {
				t.Fatalf("split at pc %d fills i%v f%v, scatters i%v f%v; want the coordinates i%v in and nothing out\n%s",
					pc, reg.inI, reg.inF, reg.outI, reg.outF, coords, vp.Disassemble())
			}
			if len(reg.wrI) == 0 || len(reg.wrF) == 0 {
				t.Fatalf("split at pc %d hands back nothing on a bail (wr i%v f%v)", pc, reg.wrI, reg.wrF)
			}
			return
		}
		t.Fatalf("no if/else-if split found:\n%s", vp.Disassemble())
	})
}

// TestVecScalarization pins the uniform-scalarization analysis: a
// kernel whose loop counter, bound, and scale parameter are all uniform
// must report scalarized instructions and still produce exact results,
// with the uniform registers living in the scalar slots.
func TestVecScalarization(t *testing.T) {
	src := `kernel void k(global float* x, global float* out, float alpha, int n) {
		int i = get_global_id(0);
		float acc = 0.0f;
		for (int j = 0; j < n; j = j + 1) {
			acc = acc + alpha * x[j];
		}
		out[i] = acc + (float)i;
	}`
	vp := vectorizeKernel(t, "scal", src, "k")
	if vp.ScalarizedOps() == 0 {
		t.Fatal("no scalarized instructions in a uniform-loop kernel")
	}
	const w = 8
	f := vp.NewVecFrame(w)
	in := make([]float32, w)
	for i := range in {
		in[i] = float32(i) + 0.5
	}
	f.Globals = []Buf{{F: in}, {F: make([]float32, w)}}
	bindVecWI(f, w, 0)
	for _, pr := range vp.Params {
		switch pr.Kind {
		case ParamInt:
			f.SetI(pr.Index, w)
		case ParamFloat:
			f.SetF(pr.Index, 3)
		}
	}
	st, err := vp.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	if st != Halted {
		t.Fatalf("status = %v, want Halted", st)
	}
	acc := 0.0
	for j := range in {
		acc = acc + 3*float64(in[j])
	}
	for i, v := range f.Globals[1].F {
		if want := float32(acc + float64(i)); v != want {
			t.Fatalf("out[%d] = %g, want %g", i, v, want)
		}
	}
}

// TestVecBudgetExhaustionMidGroup: a spinning vectorized group must
// abort with a structured steps error once the shared budget drains —
// fuel is charged W per taken jump, so exhaustion hits mid-group.
func TestVecBudgetExhaustionMidGroup(t *testing.T) {
	src := `kernel void spin(global float* out) {
		int i = 0;
		while (i < 2) {
			i = i - 1;
		}
		out[get_global_id(0)] = 1.0;
	}`
	vp := vectorizeKernel(t, "spin", src, "spin")
	const w = 16
	f := vp.NewVecFrame(w)
	f.Globals = []Buf{{F: make([]float32, w)}}
	bindVecWI(f, w, 0)
	f.B = NewBudget(context.Background(), 100_000, 0)
	_, err := vp.Run(f)
	if err == nil {
		t.Fatal("spin completed under a step budget")
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Kind != BudgetSteps {
		t.Fatalf("err = %v, want steps BudgetError", err)
	}
}
