package backend

import (
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/inspire"
	"repro/internal/partition"
	"repro/internal/sim"
)

func planFor(t *testing.T, src, kernel string) *Plan {
	t.Helper()
	u, err := inspire.LowerSource("t", src)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Analyze(u.Kernel(kernel))
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func usage(t *testing.T, pl *Plan, name string) BufferUsage {
	t.Helper()
	for _, u := range pl.Usages {
		if u.Param.Name == name {
			return u
		}
	}
	t.Fatalf("no usage for buffer %q", name)
	return BufferUsage{}
}

func TestAnalyzeVecadd(t *testing.T) {
	pl := planFor(t, `kernel void vecadd(global const float* a, global const float* b,
		global float* c, int n) {
		int i = get_global_id(0);
		if (i < n) { c[i] = a[i] + b[i]; }
	}`, "vecadd")
	if len(pl.Usages) != 3 {
		t.Fatalf("got %d usages, want 3", len(pl.Usages))
	}
	a, b, c := usage(t, pl, "a"), usage(t, pl, "b"), usage(t, pl, "c")
	if !a.Read || a.Written || !a.Splittable {
		t.Errorf("a: %+v, want read-only splittable", a)
	}
	if !b.Read || b.Written || !b.Splittable {
		t.Errorf("b: %+v, want read-only splittable", b)
	}
	if c.Read || !c.Written || !c.Splittable {
		t.Errorf("c: %+v, want write-only splittable", c)
	}
	if pl.Mix.Coalesced < 0.99 {
		t.Errorf("vecadd mix = %+v, want fully coalesced", pl.Mix)
	}
}

func TestAnalyzeMatmulRowSplit(t *testing.T) {
	pl := planFor(t, `kernel void mm(global const float* a, global const float* b,
		global float* c, int n) {
		int i = get_global_id(0);
		for (int j = 0; j < n; j++) {
			float acc = 0.0;
			for (int k = 0; k < n; k++) {
				acc += a[i*n+k] * b[k*n+j];
			}
			c[i*n+j] = acc;
		}
	}`, "mm")
	a, b, c := usage(t, pl, "a"), usage(t, pl, "b"), usage(t, pl, "c")
	// a is accessed by row (affine in gid): each device needs its rows only.
	if !a.Splittable {
		t.Errorf("a should be splittable (row-block), got %+v", a)
	}
	// b is indexed by loop variables only: every device needs all of b.
	if b.Splittable {
		t.Errorf("b should be replicated (uniform access), got %+v", b)
	}
	if !c.Splittable || !c.Written {
		t.Errorf("c should be written splittable, got %+v", c)
	}
}

func TestAnalyzeIndirectReplicates(t *testing.T) {
	pl := planFor(t, `kernel void gather(global const float* src, global const int* idx,
		global float* dst) {
		int i = get_global_id(0);
		dst[i] = src[idx[i]];
	}`, "gather")
	src := usage(t, pl, "src")
	if src.Splittable {
		t.Errorf("indirectly-addressed src should be replicated: %+v", src)
	}
	if src.ReadPattern != inspire.AccessIndirect {
		t.Errorf("src pattern = %s, want indirect", src.ReadPattern)
	}
	idx := usage(t, pl, "idx")
	if !idx.Splittable {
		t.Errorf("idx is read coalesced and should be splittable: %+v", idx)
	}
}

func TestAnalyzeReadWriteBuffer(t *testing.T) {
	pl := planFor(t, `kernel void inc(global float* x) {
		int i = get_global_id(0);
		x[i] += 1.0;
	}`, "inc")
	x := usage(t, pl, "x")
	if !x.Read || !x.Written {
		t.Errorf("x: %+v, want read+written (compound assign)", x)
	}
}

func TestTransferBytesProportional(t *testing.T) {
	pl := planFor(t, `kernel void vecadd(global const float* a, global const float* b,
		global float* c, int n) {
		int i = get_global_id(0);
		if (i < n) { c[i] = a[i] + b[i]; }
	}`, "vecadd")
	n := 1000
	args := []exec.Arg{
		exec.BufArg(exec.NewFloatBuffer(n)),
		exec.BufArg(exec.NewFloatBuffer(n)),
		exec.BufArg(exec.NewFloatBuffer(n)),
		exec.IntArg(n),
	}
	in, out := pl.TransferBytes(ArgBytes(nil, args), n, 0, n)
	if in != 8000 || out != 4000 {
		t.Errorf("full range: in=%d out=%d, want 8000/4000", in, out)
	}
	in, out = pl.TransferBytes(ArgBytes(nil, args), n, 0, 500)
	if in != 4000 || out != 2000 {
		t.Errorf("half range: in=%d out=%d, want 4000/2000", in, out)
	}
	in, out = pl.TransferBytes(ArgBytes(nil, args), n, 500, 500)
	if in != 0 || out != 0 {
		t.Errorf("empty range: in=%d out=%d, want 0/0", in, out)
	}
}

func TestTransferBytesReplicated(t *testing.T) {
	pl := planFor(t, `kernel void mm(global const float* a, global const float* b,
		global float* c, int n) {
		int i = get_global_id(0);
		for (int j = 0; j < n; j++) {
			float acc = 0.0;
			for (int k = 0; k < n; k++) { acc += a[i*n+k] * b[k*n+j]; }
			c[i*n+j] = acc;
		}
	}`, "mm")
	n := 100
	abuf, bbuf, cbuf := exec.NewFloatBuffer(n*n), exec.NewFloatBuffer(n*n), exec.NewFloatBuffer(n*n)
	args := []exec.Arg{exec.BufArg(abuf), exec.BufArg(bbuf), exec.BufArg(cbuf), exec.IntArg(n)}
	in, out := pl.TransferBytes(ArgBytes(nil, args), n, 0, 50)
	// a: half (splittable) = 20000, b: whole = 40000, c out: half = 20000.
	if in != 20000+40000 {
		t.Errorf("in = %d, want 60000", in)
	}
	if out != 20000 {
		t.Errorf("out = %d, want 20000", out)
	}
}

func TestDeviceWorksPartition(t *testing.T) {
	pl := planFor(t, `kernel void vecadd(global const float* a, global const float* b,
		global float* c, int n) {
		int i = get_global_id(0);
		if (i < n) { c[i] = a[i] + b[i]; }
	}`, "vecadd")
	n := 1000
	// Build a synthetic uniform profile: 10 buckets, 100 items each.
	prof := &exec.Profile{Global0: n, Buckets: make([]exec.Counts, 10)}
	for i := range prof.Buckets {
		prof.Buckets[i] = exec.Counts{Items: 100, FloatOps: 100, GlobalLoads: 200, GlobalStores: 100, MaxItemOps: 4}
	}
	args := []exec.Arg{
		exec.BufArg(exec.NewFloatBuffer(n)),
		exec.BufArg(exec.NewFloatBuffer(n)),
		exec.BufArg(exec.NewFloatBuffer(n)),
		exec.IntArg(n),
	}
	part := partition.Partition{Shares: []int{5, 3, 2}}
	works := pl.DeviceWorks(prof, ArgBytes(nil, args), part, 1, 1)
	if len(works) != 3 {
		t.Fatalf("got %d works", len(works))
	}
	var items int64
	for _, w := range works {
		items += w.Counts.Items
	}
	if items != 1000 {
		t.Errorf("total items = %d, want 1000", items)
	}
	if works[0].Counts.Items != 500 || works[1].Counts.Items != 300 || works[2].Counts.Items != 200 {
		t.Errorf("item split = %d/%d/%d, want 500/300/200",
			works[0].Counts.Items, works[1].Counts.Items, works[2].Counts.Items)
	}
	if works[0].TransferIn != 4000 {
		t.Errorf("device 0 in = %d, want 4000", works[0].TransferIn)
	}
}

func TestDeviceWorksLaunchScaling(t *testing.T) {
	pl := planFor(t, `kernel void inc(global float* x) {
		x[get_global_id(0)] += 1.0;
	}`, "inc")
	n := 100
	prof := &exec.Profile{Global0: n, Buckets: []exec.Counts{{Items: int64(n), FloatOps: int64(n), GlobalLoads: int64(n), GlobalStores: int64(n), MaxItemOps: 3}}}
	args := []exec.Arg{exec.BufArg(exec.NewFloatBuffer(n))}
	one := pl.DeviceWorks(prof, ArgBytes(nil, args), partition.Single(1, 0), 1, 1)
	ten := pl.DeviceWorks(prof, ArgBytes(nil, args), partition.Single(1, 0), 1, 10)
	if ten[0].Counts.FloatOps != 10*one[0].Counts.FloatOps {
		t.Errorf("launches did not scale compute: %d vs %d", ten[0].Counts.FloatOps, one[0].Counts.FloatOps)
	}
	if ten[0].TransferIn != one[0].TransferIn {
		t.Errorf("launches scaled transfers: %d vs %d", ten[0].TransferIn, one[0].TransferIn)
	}
	if ten[0].Launches != 10 {
		t.Errorf("Launches = %d, want 10", ten[0].Launches)
	}
}

func TestAnalyzeNilKernel(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Error("Analyze(nil) should fail")
	}
}

func TestDeviceWorksIntoMatchesDeviceWorks(t *testing.T) {
	pl := planFor(t, `kernel void vecadd(global const float* a, global const float* b,
		global float* c, int n) {
		int i = get_global_id(0);
		if (i < n) { c[i] = a[i] + b[i]; }
	}`, "vecadd")
	n := 1000
	prof := &exec.Profile{Global0: n, Buckets: make([]exec.Counts, 10)}
	for i := range prof.Buckets {
		prof.Buckets[i] = exec.Counts{Items: 100, FloatOps: 100 + int64(i), GlobalLoads: 200, GlobalStores: 100, MaxItemOps: int64(4 + i%3)}
	}
	args := []exec.Arg{
		exec.BufArg(exec.NewFloatBuffer(n)),
		exec.BufArg(exec.NewFloatBuffer(n)),
		exec.BufArg(exec.NewFloatBuffer(n)),
		exec.IntArg(n),
	}
	var works []sim.Work
	var chunks [][2]int
	// Reuse the same scratch across several candidates (the oracle-search
	// pattern): every result must match the allocating path exactly,
	// including stale-state clearing for empty chunks.
	for _, part := range []partition.Partition{
		{Shares: []int{5, 3, 2}},
		{Shares: []int{0, 10, 0}},
		{Shares: []int{7, 0, 3}},
	} {
		want := pl.DeviceWorks(prof, ArgBytes(nil, args), part, 64, 3)
		works, chunks = pl.DeviceWorksInto(works, chunks, prof, ArgBytes(nil, args), part, 64, 3)
		if !reflect.DeepEqual(works, want) {
			t.Fatalf("partition %s: DeviceWorksInto %+v != DeviceWorks %+v", part, works, want)
		}
	}
}

// TestAnalyzeFollowsHelpers: a buffer that only a helper reads or writes
// is still read or written by the kernel, so the transfer plan must price
// its copy-in and copy-back; what the kernel passes on through a second
// helper counts too, and a buffer no helper touches stays untouched.
func TestAnalyzeFollowsHelpers(t *testing.T) {
	pl := planFor(t, `float peek(global const float* p, int i) { return p[i]; }
	float poke(global float* p, int i, float v) { p[i] = v; return v; }
	float relay(global float* p, int i, float v) { return poke(p, i, v); }
	kernel void k(global const float* a, global float* w, global float* rw,
		global float* via, global float* idle, global float* direct, int n) {
		int i = get_global_id(0);
		float v = peek(a, i) + peek(rw, i);
		v = poke(w, i, v) + poke(rw, i, v) + relay(via, i, v);
		direct[i] = v;
	}`, "k")
	for _, want := range []struct {
		name                      string
		read, written, splittable bool
	}{
		{"a", true, false, false},
		{"w", false, true, false},
		{"rw", true, true, false},
		{"via", false, true, false},
		{"idle", false, false, true},
		{"direct", false, true, true},
	} {
		u := usage(t, pl, want.name)
		if u.Read != want.read || u.Written != want.written || u.Splittable != want.splittable {
			t.Errorf("%s: read=%v written=%v splittable=%v, want %v %v %v",
				want.name, u.Read, u.Written, u.Splittable, want.read, want.written, want.splittable)
		}
	}
	// The priced transfers follow: every helper-touched buffer moves whole.
	const n = 1024
	args := make([]exec.Arg, 7)
	for i := 0; i < 6; i++ {
		args[i] = exec.BufArg(exec.NewFloatBuffer(n))
	}
	args[6] = exec.IntArg(n)
	in, out := pl.TransferBytes(ArgBytes(nil, args), n, 0, n/2)
	// in: a, rw whole; w, via whole (written, replicated, not read). out: w, rw, via whole + half of direct.
	if wantIn, wantOut := int64(4*n*4), int64(3*n*4+n*4/2); in != wantIn || out != wantOut {
		t.Errorf("TransferBytes = (%d, %d), want (%d, %d)", in, out, wantIn, wantOut)
	}
}
