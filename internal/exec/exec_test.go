package exec

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/inspire"
)

func compileSrc(t *testing.T, src, kernel string) *Compiled {
	t.Helper()
	u, err := inspire.LowerSource("test", src)
	if err != nil {
		t.Fatal(err)
	}
	k := u.Kernel(kernel)
	if k == nil {
		t.Fatalf("kernel %q not found", kernel)
	}
	c, err := Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const vecaddSrc = `
kernel void vecadd(global const float* a, global const float* b,
                   global float* c, int n) {
    int i = get_global_id(0);
    if (i < n) {
        c[i] = a[i] + b[i];
    }
}
`

func TestRunVecadd(t *testing.T) {
	c := compileSrc(t, vecaddSrc, "vecadd")
	n := 256
	a, b, out := NewFloatBuffer(n), NewFloatBuffer(n), NewFloatBuffer(n)
	for i := 0; i < n; i++ {
		a.F[i] = float32(i)
		b.F[i] = float32(2 * i)
	}
	prof, err := c.Run([]Arg{BufArg(a), BufArg(b), BufArg(out), IntArg(n)}, ND1(n), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if want := float32(3 * i); out.F[i] != want {
			t.Fatalf("out[%d] = %g, want %g", i, out.F[i], want)
		}
	}
	tot := prof.Total()
	if tot.Items != int64(n) {
		t.Errorf("Items = %d, want %d", tot.Items, n)
	}
	if tot.GlobalLoads != int64(2*n) {
		t.Errorf("GlobalLoads = %d, want %d", tot.GlobalLoads, 2*n)
	}
	if tot.GlobalStores != int64(n) {
		t.Errorf("GlobalStores = %d, want %d", tot.GlobalStores, n)
	}
	if tot.FloatOps != int64(n) {
		t.Errorf("FloatOps = %d, want %d", tot.FloatOps, n)
	}
	if tot.Branches != int64(n) {
		t.Errorf("Branches = %d, want %d", tot.Branches, n)
	}
}

func TestRunLoopSum(t *testing.T) {
	src := `kernel void rowsum(global const float* a, global float* out, int n) {
		int i = get_global_id(0);
		float s = 0.0;
		for (int j = 0; j < n; j++) {
			s += a[i * n + j];
		}
		out[i] = s;
	}`
	c := compileSrc(t, src, "rowsum")
	rows, cols := 64, 33
	a, out := NewFloatBuffer(rows*cols), NewFloatBuffer(rows)
	for i := range a.F {
		a.F[i] = 1.0
	}
	if _, err := c.Run([]Arg{BufArg(a), BufArg(out), IntArg(cols)}, ND1(rows), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if out.F[i] != float32(cols) {
			t.Fatalf("out[%d] = %g, want %d", i, out.F[i], cols)
		}
	}
}

func TestRunHelperCall(t *testing.T) {
	src := `
float axpb(float a, float x, float b) { return a * x + b; }
int twice(int v) { return v * 2; }
kernel void f(global float* o, global int* p) {
	int i = get_global_id(0);
	o[i] = axpb(2.0, (float)i, 1.0);
	p[i] = twice(i);
}`
	c := compileSrc(t, src, "f")
	n := 64
	o, p := NewFloatBuffer(n), NewIntBuffer(n)
	if _, err := c.Run([]Arg{BufArg(o), BufArg(p)}, ND1(n), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if want := float32(2*i + 1); o.F[i] != want {
			t.Fatalf("o[%d] = %g, want %g", i, o.F[i], want)
		}
		if p.I[i] != int32(2*i) {
			t.Fatalf("p[%d] = %d, want %d", i, p.I[i], 2*i)
		}
	}
}

func TestRunBarrierReduction(t *testing.T) {
	src := `kernel void reduce(global const float* in, global float* out, local float* tmp, int n) {
		int gid = get_global_id(0);
		int lid = get_local_id(0);
		tmp[lid] = gid < n ? in[gid] : 0.0;
		barrier(1);
		for (int s = get_local_size(0) / 2; s > 0; s = s / 2) {
			if (lid < s) {
				tmp[lid] += tmp[lid + s];
			}
			barrier(1);
		}
		if (lid == 0) {
			out[get_group_id(0)] = tmp[0];
		}
	}`
	c := compileSrc(t, src, "reduce")
	if !c.hasBarrier {
		t.Fatal("hasBarrier = false for barrier kernel")
	}
	n := 1024
	lsz := 64
	groups := n / lsz
	in, out := NewFloatBuffer(n), NewFloatBuffer(groups)
	var want float64
	for i := 0; i < n; i++ {
		in.F[i] = float32(i % 7)
		want += float64(i % 7)
	}
	nd := NDRange{Global: [3]int{n, 1, 1}, Local: [3]int{lsz, 1, 1}}
	if _, err := c.Run([]Arg{BufArg(in), BufArg(out), LocalArg(lsz), IntArg(n)}, nd, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	var got float64
	for g := 0; g < groups; g++ {
		got += float64(out.F[g])
	}
	if math.Abs(got-want) > 1e-3 {
		t.Errorf("reduction total = %g, want %g", got, want)
	}
}

func TestRunChunkedMatchesFull(t *testing.T) {
	c := compileSrc(t, vecaddSrc, "vecadd")
	n := 512
	mk := func() (*Buffer, *Buffer, *Buffer) {
		a, b, o := NewFloatBuffer(n), NewFloatBuffer(n), NewFloatBuffer(n)
		for i := 0; i < n; i++ {
			a.F[i] = float32(i) * 0.5
			b.F[i] = float32(n - i)
		}
		return a, b, o
	}
	a1, b1, full := mk()
	if _, err := c.Run([]Arg{BufArg(a1), BufArg(b1), BufArg(full), IntArg(n)}, ND1(n), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	a2, b2, chunked := mk()
	args := []Arg{BufArg(a2), BufArg(b2), BufArg(chunked), IntArg(n)}
	// Execute as three chunks: [0,192), [192,448), [448,512).
	for _, ch := range [][2]int{{0, 192}, {192, 448}, {448, 512}} {
		if _, err := c.Run(args, ND1(n), RunOptions{Lo: ch[0], Hi: ch[1]}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if full.F[i] != chunked.F[i] {
			t.Fatalf("chunked[%d] = %g, full = %g", i, chunked.F[i], full.F[i])
		}
	}
}

func TestRunChunkProfileCoversOnlyChunk(t *testing.T) {
	c := compileSrc(t, vecaddSrc, "vecadd")
	n := 640
	a, b, o := NewFloatBuffer(n), NewFloatBuffer(n), NewFloatBuffer(n)
	args := []Arg{BufArg(a), BufArg(b), BufArg(o), IntArg(n)}
	prof, err := c.Run(args, ND1(n), RunOptions{Lo: 128, Hi: 384})
	if err != nil {
		t.Fatal(err)
	}
	if got := prof.Total().Items; got != 256 {
		t.Errorf("chunk profile items = %d, want 256", got)
	}
	if got := prof.Range(0, 128).Items; got != 0 {
		t.Errorf("items outside chunk = %d, want 0", got)
	}
}

func TestRun2DTranspose(t *testing.T) {
	src := `kernel void transpose(global const float* in, global float* out, int w, int h) {
		int x = get_global_id(0);
		int y = get_global_id(1);
		if (x < w && y < h) {
			out[x * h + y] = in[y * w + x];
		}
	}`
	c := compileSrc(t, src, "transpose")
	w, h := 64, 32
	in, out := NewFloatBuffer(w*h), NewFloatBuffer(w*h)
	for i := range in.F {
		in.F[i] = float32(i)
	}
	if _, err := c.Run([]Arg{BufArg(in), BufArg(out), IntArg(w), IntArg(h)}, ND2(w, h), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if out.F[x*h+y] != in.F[y*w+x] {
				t.Fatalf("transpose mismatch at (%d,%d)", x, y)
			}
		}
	}
}

func TestRunDivergentWorkload(t *testing.T) {
	// Items with high gid iterate much longer: MaxItemOps must exceed the mean.
	src := `kernel void diverge(global float* o, int n) {
		int i = get_global_id(0);
		float s = 0.0;
		for (int j = 0; j < i; j++) {
			s += 1.0;
		}
		o[i] = s;
	}`
	c := compileSrc(t, src, "diverge")
	n := 512
	o := NewFloatBuffer(n)
	prof, err := c.Run([]Arg{BufArg(o), IntArg(n)}, ND1(n), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tot := prof.Total()
	mean := tot.totalOps() / tot.Items
	if tot.MaxItemOps <= mean {
		t.Errorf("MaxItemOps = %d, want > mean %d", tot.MaxItemOps, mean)
	}
	if o.F[n-1] != float32(n-1) {
		t.Errorf("o[%d] = %g, want %d", n-1, o.F[n-1], n-1)
	}
	// The last bucket must be more expensive than the first.
	first := prof.Range(0, n/10)
	last := prof.Range(n-n/10, n)
	if last.FloatOps <= first.FloatOps {
		t.Errorf("bucketing lost the gradient: first %d floatOps, last %d", first.FloatOps, last.FloatOps)
	}
}

func TestRunErrors(t *testing.T) {
	c := compileSrc(t, vecaddSrc, "vecadd")
	n := 64
	a, b, o := NewFloatBuffer(n), NewFloatBuffer(n), NewFloatBuffer(n)
	good := []Arg{BufArg(a), BufArg(b), BufArg(o), IntArg(n)}

	if _, err := c.Run(good[:3], ND1(n), RunOptions{}); err == nil {
		t.Error("want arity error")
	}
	if _, err := c.Run([]Arg{IntArg(1), BufArg(b), BufArg(o), IntArg(n)}, ND1(n), RunOptions{}); err == nil {
		t.Error("want missing-buffer error")
	}
	if _, err := c.Run(good, NDRange{Global: [3]int{100, 1, 1}, Local: [3]int{64, 1, 1}}, RunOptions{}); err == nil {
		t.Error("want divisibility error")
	}
	if _, err := c.Run(good, ND1(n), RunOptions{Lo: 3, Hi: 64}); err == nil {
		t.Error("want chunk alignment error")
	}
	if _, err := c.Run(good, ND1(n), RunOptions{Lo: 0, Hi: 128}); err == nil {
		t.Error("want chunk range error")
	}
}

func TestRunOutOfBounds(t *testing.T) {
	src := `kernel void oob(global float* o) {
		o[get_global_id(0) + 1000000] = 1.0;
	}`
	c := compileSrc(t, src, "oob")
	o := NewFloatBuffer(16)
	_, err := c.Run([]Arg{BufArg(o)}, ND1(16), RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("err = %v, want out-of-bounds", err)
	}
}

func TestRunDivideByZero(t *testing.T) {
	src := `kernel void dbz(global int* o, int d) {
		o[get_global_id(0)] = 7 / d;
	}`
	c := compileSrc(t, src, "dbz")
	o := NewIntBuffer(16)
	_, err := c.Run([]Arg{BufArg(o), IntArg(0)}, ND1(16), RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v, want division by zero", err)
	}
	// Float division by zero is Inf, not an error.
	src2 := `kernel void fdbz(global float* o, float d) {
		o[get_global_id(0)] = 1.0 / d;
	}`
	c2 := compileSrc(t, src2, "fdbz")
	fo := NewFloatBuffer(16)
	if _, err := c2.Run([]Arg{BufArg(fo), FloatArg(0)}, ND1(16), RunOptions{}); err != nil {
		t.Fatalf("float div by zero errored: %v", err)
	}
	if !math.IsInf(float64(fo.F[0]), 1) {
		t.Errorf("1/0 = %g, want +Inf", fo.F[0])
	}
}

func TestRunMathBuiltins(t *testing.T) {
	src := `kernel void m(global float* o) {
		o[0] = sqrt(4.0);
		o[1] = exp(0.0);
		o[2] = fmin(3.0, 2.0);
		o[3] = fmax(3.0, 2.0);
		o[4] = fabs(-5.5);
		o[5] = pow(2.0, 10.0);
		o[6] = clamp(7.0, 0.0, 1.0);
		o[7] = mad(2.0, 3.0, 4.0);
		o[8] = floor(1.7);
		o[9] = rsqrt(4.0);
		o[10] = log2(8.0);
	}`
	c := compileSrc(t, src, "m")
	o := NewFloatBuffer(16)
	if _, err := c.Run([]Arg{BufArg(o)}, ND1(1), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	want := []float32{2, 1, 2, 3, 5.5, 1024, 1, 10, 1, 0.5, 3}
	for i, w := range want {
		if math.Abs(float64(o.F[i]-w)) > 1e-5 {
			t.Errorf("o[%d] = %g, want %g", i, o.F[i], w)
		}
	}
}

func TestRunIntBuiltinsAndOps(t *testing.T) {
	src := `kernel void m(global int* o, int n) {
		o[0] = min(3, n);
		o[1] = max(3, n);
		o[2] = abs(-9);
		o[3] = clamp(n, 0, 4);
		o[4] = n % 3;
		o[5] = n / 2;
		o[6] = n << 1;
		o[7] = n >> 1;
		o[8] = n & 3;
		o[9] = n | 8;
		o[10] = n ^ 1;
		o[11] = -n;
		o[12] = n > 3 && n < 100 ? 1 : 0;
		o[13] = !(n > 3) ? 1 : 0;
	}`
	c := compileSrc(t, src, "m")
	o := NewIntBuffer(16)
	if _, err := c.Run([]Arg{BufArg(o), IntArg(7)}, ND1(1), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	want := []int32{3, 7, 9, 4, 1, 3, 14, 3, 3, 15, 6, -7, 1, 0}
	for i, w := range want {
		if o.I[i] != w {
			t.Errorf("o[%d] = %d, want %d", i, o.I[i], w)
		}
	}
}

func TestRunWhileBreakContinue(t *testing.T) {
	src := `kernel void wbc(global int* o) {
		int i = 0;
		int acc = 0;
		while (true) {
			i++;
			if (i == 3) { continue; }
			if (i > 6) { break; }
			acc += i;
		}
		o[get_global_id(0)] = acc;
	}`
	c := compileSrc(t, src, "wbc")
	o := NewIntBuffer(4)
	if _, err := c.Run([]Arg{BufArg(o)}, ND1(4), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	// 1+2+4+5+6 = 18
	if o.I[0] != 18 {
		t.Errorf("acc = %d, want 18", o.I[0])
	}
}

func TestProfileRangeAdditive(t *testing.T) {
	c := compileSrc(t, vecaddSrc, "vecadd")
	n := 1000
	a, b, o := NewFloatBuffer(n), NewFloatBuffer(n), NewFloatBuffer(n)
	prof, err := c.Run([]Arg{BufArg(a), BufArg(b), BufArg(o), IntArg(n)}, NDRange{Global: [3]int{n, 1, 1}, Local: [3]int{1, 1, 1}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(cutRaw uint16) bool {
		cut := int(cutRaw) % (n + 1)
		left := prof.Range(0, cut)
		right := prof.Range(cut, n)
		tot := prof.Total()
		sum := left.GlobalLoads + right.GlobalLoads
		// Proportional attribution may round at bucket-cutting boundaries.
		return absI64(sum-tot.GlobalLoads) <= int64(len(prof.Buckets))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func absI64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestRunDeterministic(t *testing.T) {
	src := `kernel void trig(global float* o, int n) {
		int i = get_global_id(0);
		o[i] = sin((float)i * 0.001) * cos((float)i * 0.002);
	}`
	c := compileSrc(t, src, "trig")
	n := 4096
	run := func() []float32 {
		o := NewFloatBuffer(n)
		if _, err := c.Run([]Arg{BufArg(o), IntArg(n)}, ND1(n), RunOptions{}); err != nil {
			t.Fatal(err)
		}
		return o.F
	}
	r1, r2 := run(), run()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("nondeterministic output at %d: %g vs %g", i, r1[i], r2[i])
		}
	}
}

func TestCompileRejectsRecursion(t *testing.T) {
	u, err := inspire.LowerSource("t", `
int f(int x) { return f(x); }
kernel void k(global int* o) { o[0] = 0; }
`)
	if err != nil {
		t.Fatal(err)
	}
	// Build a self-referential helper call manually to probe the guard:
	// compiling the helper that calls itself must not hang or crash.
	helper := u.Helpers[0]
	if _, err := Compile(helper); err == nil {
		// Recursion guard yields a nil body which surfaces as an error
		// either at compile or run time; compile-time is preferred but
		// the important property is "no infinite loop", which reaching
		// this line at all proves.
		t.Log("recursive helper compiled; guard relies on run-time check")
	}
}

// TestCompileRejectsKernelOverLaneLimit: a straight-line kernel with more
// static float ops than the VM's packed profile lanes hold (4095) does
// not lower, so it fails Compile on the serving tiers rather than falling
// back to the closure tree, which itself still takes it.
func TestCompileRejectsKernelOverLaneLimit(t *testing.T) {
	src := "kernel void huge(global float* a, global float* out, int n) {\n" +
		"\tint i = get_global_id(0);\n\tfloat x = a[i];\n" +
		strings.Repeat("\tx = x * 1.5f + 0.25f;\n", 2100) +
		"\tout[i] = x;\n}"
	u, err := inspire.LowerSource("test", src)
	if err != nil {
		t.Fatal(err)
	}
	k := u.Kernel("huge")
	if _, err := CompileTier(k, TierAuto); err == nil || !strings.Contains(err.Error(), "too large to profile") {
		t.Fatalf("TierAuto compile err = %v, want the lane-limit rejection", err)
	}
	c, err := CompileTier(k, TierClosure)
	if err != nil {
		t.Fatalf("closure compile: %v", err)
	}
	a, out := NewFloatBuffer(4), NewFloatBuffer(4)
	if _, err := c.Run([]Arg{BufArg(a), BufArg(out), IntArg(4)}, ND1(4), RunOptions{}); err != nil {
		t.Fatalf("closure run: %v", err)
	}
}

func TestNDRangeNormalization(t *testing.T) {
	nd, err := ND1(128).normalized()
	if err != nil {
		t.Fatal(err)
	}
	if nd.Local[0] != DefaultLocal0 {
		t.Errorf("default local = %d, want %d", nd.Local[0], DefaultLocal0)
	}
	nd2, err := ND1(67).normalized()
	if err != nil {
		t.Fatal(err)
	}
	if nd2.Local[0] != 1 {
		t.Errorf("non-divisible default local = %d, want 1", nd2.Local[0])
	}
}

func TestBufferHelpers(t *testing.T) {
	b := NewFloatBuffer(10)
	if b.Len() != 10 || b.Bytes() != 40 {
		t.Errorf("Len/Bytes = %d/%d, want 10/40", b.Len(), b.Bytes())
	}
	b.F[3] = 7
	cl := b.Clone()
	cl.F[3] = 9
	if b.F[3] != 7 {
		t.Error("Clone aliases original")
	}
	ib := NewIntBuffer(4)
	ib.I[0] = 5
	icl := ib.Clone()
	if icl.I[0] != 5 || icl.Len() != 4 {
		t.Error("int clone broken")
	}
}
