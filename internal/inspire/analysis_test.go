package inspire

import (
	"testing"
)

func analyzeSrc(t *testing.T, src, kernel string) *StaticCounts {
	t.Helper()
	u := mustLower(t, src)
	k := u.Kernel(kernel)
	if k == nil {
		t.Fatalf("kernel %q not found", kernel)
	}
	return Analyze(k)
}

func TestAnalyzeVecaddCounts(t *testing.T) {
	c := analyzeSrc(t, vecaddSrc, "vecadd")
	if c.GlobalLoads != 2 {
		t.Errorf("GlobalLoads = %d, want 2", c.GlobalLoads)
	}
	if c.GlobalStores != 1 {
		t.Errorf("GlobalStores = %d, want 1", c.GlobalStores)
	}
	if c.FloatOps != 1 {
		t.Errorf("FloatOps = %d, want 1", c.FloatOps)
	}
	if c.Branches != 1 {
		t.Errorf("Branches = %d, want 1", c.Branches)
	}
	if c.Loops != 0 || c.MaxLoopDepth != 0 {
		t.Errorf("Loops=%d depth=%d, want 0/0", c.Loops, c.MaxLoopDepth)
	}
	if got := c.Accesses[AccessCoalesced]; got != 3 {
		t.Errorf("coalesced accesses = %d, want 3 (a[i], b[i], c[i])", got)
	}
}

func TestAnalyzeLoopWeighting(t *testing.T) {
	src := `kernel void f(global float* o, int n) {
		float s = 0.0;
		for (int i = 0; i < n; i++) {
			s += o[i];
		}
		o[0] = s;
	}`
	c := analyzeSrc(t, src, "f")
	if c.Loops != 1 {
		t.Errorf("Loops = %d, want 1", c.Loops)
	}
	if c.MaxLoopDepth != 1 {
		t.Errorf("MaxLoopDepth = %d, want 1", c.MaxLoopDepth)
	}
	// Loads inside the loop must weigh LoopWeight x a top-level load.
	if c.WeightedGlobalLoads < LoopWeight {
		t.Errorf("WeightedGlobalLoads = %g, want >= %g", c.WeightedGlobalLoads, LoopWeight)
	}
}

func TestAnalyzeNestedLoops(t *testing.T) {
	src := `kernel void mm(global const float* a, global const float* b, global float* c, int n) {
		int i = get_global_id(0);
		for (int j = 0; j < n; j++) {
			float acc = 0.0;
			for (int k = 0; k < n; k++) {
				acc += a[i*n+k] * b[k*n+j];
			}
			c[i*n+j] = acc;
		}
	}`
	c := analyzeSrc(t, src, "mm")
	if c.MaxLoopDepth != 2 {
		t.Errorf("MaxLoopDepth = %d, want 2", c.MaxLoopDepth)
	}
	if c.Loops != 2 {
		t.Errorf("Loops = %d, want 2", c.Loops)
	}
	// Inner-loop float ops should be weighted by LoopWeight^2.
	if c.WeightedFloatOps < LoopWeight*LoopWeight {
		t.Errorf("WeightedFloatOps = %g, want >= %g", c.WeightedFloatOps, LoopWeight*LoopWeight)
	}
}

func TestAnalyzeTranscendentals(t *testing.T) {
	src := `kernel void f(global float* o) {
		int i = get_global_id(0);
		o[i] = exp(sin(1.0)) + fabs(-2.0) + min(1.0, 2.0);
	}`
	c := analyzeSrc(t, src, "f")
	if c.TranscendentalOps != 2 {
		t.Errorf("TranscendentalOps = %d, want 2 (exp, sin)", c.TranscendentalOps)
	}
	if c.OtherBuiltins != 2 {
		t.Errorf("OtherBuiltins = %d, want 2 (fabs, min)", c.OtherBuiltins)
	}
}

func TestAnalyzeHelperInlining(t *testing.T) {
	src := `
float sq(float x) { return x * x; }
kernel void f(global float* o) { o[0] = sq(2.0); }
`
	c := analyzeSrc(t, src, "f")
	if c.HelperCalls != 1 {
		t.Errorf("HelperCalls = %d, want 1", c.HelperCalls)
	}
	if c.FloatOps < 1 {
		t.Errorf("FloatOps = %d, want >=1 (inlined x*x)", c.FloatOps)
	}
}

func TestAnalyzeLocalMemoryAndBarrier(t *testing.T) {
	src := `kernel void f(local float* tmp, global float* o) {
		int l = get_local_id(0);
		tmp[l] = o[l];
		barrier(1);
		o[l] = tmp[0];
	}`
	c := analyzeSrc(t, src, "f")
	if c.Barriers != 1 {
		t.Errorf("Barriers = %d, want 1", c.Barriers)
	}
	if c.LocalStores != 1 || c.LocalLoads != 1 {
		t.Errorf("local stores/loads = %d/%d, want 1/1", c.LocalStores, c.LocalLoads)
	}
}

func TestClassifyIndexPatterns(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want AccessPattern
	}{
		{"coalesced gid", `kernel void f(global float* o) { o[get_global_id(0)] = 1.0; }`, AccessCoalesced},
		{"coalesced gid+1", `kernel void f(global float* o) { o[get_global_id(0) + 1] = 1.0; }`, AccessCoalesced},
		{"uniform", `kernel void f(global float* o, int n) { o[n] = 1.0; }`, AccessUniform},
		{"strided", `kernel void f(global float* o) { o[get_global_id(0) * 4] = 1.0; }`, AccessStrided},
		{"strided unknown", `kernel void f(global float* o, int n) { o[get_global_id(0) * n] = 1.0; }`, AccessStrided},
		{"indirect", `kernel void f(global float* o, global const int* idx) { o[idx[get_global_id(0)]] = 1.0; }`, AccessIndirect},
		{"nonaffine", `kernel void f(global float* o, int n) { o[get_global_id(0) % n] = 1.0; }`, AccessUnknown},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u := mustLower(t, tc.src)
			k := u.Kernel("f")
			env := BuildAffineEnv(k)
			var got AccessPattern = -1
			WalkStmts(k.Body, func(s Stmt) bool {
				if se, ok := s.(*StoreElem); ok {
					got = ClassifyIndexEnv(se.Index, env)
				}
				return true
			})
			if got != tc.want {
				t.Errorf("classified %s, want %s", got, tc.want)
			}
		})
	}
}

func TestClassifyIndexRowMajor2D(t *testing.T) {
	// i*n + j with i = gid: strided (row-major row per work item).
	src := `kernel void f(global float* o, int n) {
		int i = get_global_id(0);
		for (int j = 0; j < n; j++) {
			o[i * n + j] = 1.0;
		}
	}`
	u := mustLower(t, src)
	k := u.Kernel("f")
	env := BuildAffineEnv(k)
	var got AccessPattern = -1
	WalkStmts(k.Body, func(s Stmt) bool {
		if se, ok := s.(*StoreElem); ok {
			got = ClassifyIndexEnv(se.Index, env)
		}
		return true
	})
	// The environment sees through i = gid, so i*n+j strides by n; the
	// loop counter j is gid-independent.
	if got != AccessStrided {
		t.Errorf("classified %s, want strided", got)
	}
}

func TestWalkStmtsStopsDescent(t *testing.T) {
	u := mustLower(t, `kernel void f(global int* o, int n) {
		if (n > 0) { o[0] = 1; o[1] = 2; }
	}`)
	var count int
	WalkStmts(u.Kernel("f").Body, func(s Stmt) bool {
		count++
		_, isIf := s.(*If)
		return !isIf // do not descend into if
	})
	if count != 1 {
		t.Errorf("visited %d statements, want 1 (stopped at if)", count)
	}
}
