package vm

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/inspire"
)

var update = flag.Bool("update", false, "rewrite golden disassembly files")

// goldenKernels pin the bytecode encoding: any change to opcode
// selection, register allocation, or the fusion passes shows up as a
// golden diff and must be deliberate (regenerate with -update).
var goldenKernels = []struct {
	name   string
	kernel string
	noFuse bool
	source string
}{
	{
		name:   "saxpy",
		kernel: "saxpy",
		source: `
kernel void saxpy(global float* x, global float* y, float a, int n) {
	int i = get_global_id(0);
	if (i < n) {
		y[i] = a * x[i] + y[i];
	}
}`,
	},
	{
		name:   "saxpy_nofuse",
		kernel: "saxpy",
		noFuse: true,
		source: `
kernel void saxpy(global float* x, global float* y, float a, int n) {
	int i = get_global_id(0);
	if (i < n) {
		y[i] = a * x[i] + y[i];
	}
}`,
	},
	{
		name:   "dot_local",
		kernel: "dot",
		source: `
kernel void dot(global float* a, global float* b, global float* partial, local float* tile, int n) {
	int l = get_local_id(0);
	int i = get_global_id(0);
	tile[l] = (i < n) ? a[i] * b[i] : 0.0f;
	barrier(1);
	int half = get_local_size(0) / 2;
	while (half > 0) {
		if (l < half) {
			tile[l] = tile[l] + tile[l + half];
		}
		barrier(1);
		half = half / 2;
	}
	if (l == 0) {
		partial[get_group_id(0)] = tile[0];
	}
}`,
	},
	{
		name:   "helper_abs_diff",
		kernel: "k",
		source: `
float diff(global float* p, int i, int j) {
	return fabs(p[i] - p[j]);
}
kernel void k(global float* src, global float* out, int n) {
	int i = get_global_id(0);
	if (i > 0 && i < n) {
		out[i] = diff(src, i, i - 1);
	}
}`,
	},
	{
		name:   "branchy_loop",
		kernel: "k",
		source: `
kernel void k(global float* v, global float* out, int n, int steps) {
	int i = get_global_id(0);
	float acc = 0.0f;
	for (int s = 0; s < steps; s = s + 1) {
		int idx = (i * 3 + s) % n;
		float x = v[idx];
		if (x > 0.5f) {
			acc = acc + x * 2.0f;
		} else {
			acc = acc - x;
		}
	}
	out[i] = acc;
}`,
	},
}

func compileKernel(t *testing.T, name, source, kernel string, opts Options) *Func {
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
	p, err := CompileOpts(k, opts)
	if err != nil {
		t.Fatalf("%s: vm compile: %v", name, err)
	}
	return p
}

func TestGoldenDisassembly(t *testing.T) {
	for _, tc := range goldenKernels {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := compileKernel(t, tc.name, tc.source, tc.kernel, Options{NoFuse: tc.noFuse})
			got := Disassemble(p)
			path := filepath.Join("testdata", tc.name+".disasm")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run go test ./internal/exec/vm -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("disassembly drift for %s:\n--- got ---\n%s--- want ---\n%s", tc.name, got, want)
			}
		})
	}
}

// vecGoldenKernels pin the vector tier's uniformity classification:
// which branches run as one lane-0 test ('u') versus a runtime
// lane-agreement scan ('v'), and how many registers prove uniform. Any
// analysis change shows up as a golden diff (regenerate with -update).
var vecGoldenKernels = []struct {
	name   string
	kernel string
	source string
}{
	{
		// Varying forward guard: admitted with a runtime scan.
		name:   "vec_saxpy",
		kernel: "saxpy",
		source: `
kernel void saxpy(global float* x, global float* y, float a, int n) {
	int i = get_global_id(0);
	if (i < n) {
		y[i] = a * x[i] + y[i];
	}
}`,
	},
	{
		// Uniform counted loop: the back-edge tests one lane.
		name:   "vec_rowsum",
		kernel: "rowsum",
		source: `
kernel void rowsum(global const float* a, global float* out, int n) {
	int i = get_global_id(0);
	float s = 0.0f;
	for (int j = 0; j < n; j = j + 1) {
		s = s + a[i * n + j];
	}
	out[i] = s;
}`,
	},
	{
		// Compound varying guard plus a helper call.
		name:   "vec_helper_abs_diff",
		kernel: "k",
		source: `
float diff(global float* p, int i, int j) {
	return fabs(p[i] - p[j]);
}
kernel void k(global float* src, global float* out, int n) {
	int i = get_global_id(0);
	if (i > 0 && i < n) {
		out[i] = diff(src, i, i - 1);
	}
}`,
	},
	{
		// Varying if/else inside a uniform-trip loop: both 'v' branches
		// re-form every iteration, and the accumulator they write is
		// varying by control dependence.
		name:   "vec_branchy_loop",
		kernel: "k",
		source: goldenSource("branchy_loop"),
	},
	{
		// The suite's histogram: a one-sided `if (v == b) c++` in the
		// inner loop. c's writes (the ldc.i reset included) carry no 's'.
		name:   "vec_histogram",
		kernel: "histogram",
		source: `
kernel void histogram(global const float* data, global int* counts, int n, int k, int bins) {
	int i = get_global_id(0);
	if (i < n) {
		int base = i * k;
		for (int b = 0; b < bins; b++) {
			int c = 0;
			for (int j = 0; j < k; j++) {
				int v = (int)(data[base + j] * (float)bins);
				v = clamp(v, 0, bins - 1);
				if (v == b) {
					c++;
				}
			}
			counts[i * bins + b] = c;
		}
	}
}`,
	},
	{
		// The suite's convolution2d: every term of the boundary guard
		// is a 'v' branch with a join, and `w - 1` / `h - 1`, computed
		// inside the guard, are uniform registers dead at the join —
		// side-private, so boundary groups split and re-form.
		name:   "vec_conv2d",
		kernel: "conv2d",
		source: `
kernel void conv2d(global const float* in, global float* out, int w, int h) {
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
	},
	{
		// Tree reduction: the in-loop `if (l < half)` re-forms every
		// iteration, and the one-sided `if (l == 0)` epilogue joins
		// although it stores through a uniform index.
		name:   "vec_dot_local",
		kernel: "dot",
		source: goldenSource("dot_local"),
	},
	{
		// The suite's mandelbrot: the `&&` exit test's second branch is
		// a loop mask joining after the loop (the first re-forms at the
		// second), and the iteration count the loop leaves live there is
		// varying although every value it takes is computed uniformly.
		name:   "vec_mandelbrot",
		kernel: "mandelbrot",
		source: `
kernel void mandelbrot(global int* out, int w, int h, int maxIter) {
	int x = get_global_id(0);
	int y = get_global_id(1);
	if (x < w && y < h) {
		float cr = (float)x / (float)w * 3.5 - 2.5;
		float ci = (float)y / (float)h * 2.0 - 1.0;
		float zr = 0.0;
		float zi = 0.0;
		int it = 0;
		while (it < maxIter && zr * zr + zi * zi < 4.0) {
			float nzr = zr * zr - zi * zi + cr;
			zi = 2.0 * zr * zi + ci;
			zr = nzr;
			it++;
		}
		out[y * w + x] = it;
	}
}`,
	},
	{
		// The suite's spmv: a varying addjcmp.i back-edge (per-row trip
		// counts) is a loop mask joining at its fall-through, and the
		// rotated loop's guard joins there too.
		name:   "vec_spmv",
		kernel: "spmv",
		source: `
kernel void spmv(global const int* rowptr, global const int* col, global const float* val,
                 global const float* x, global float* y, int rows) {
	int i = get_global_id(0);
	if (i < rows) {
		float acc = 0.0;
		int end = rowptr[i + 1];
		for (int j = rowptr[i]; j < end; j++) {
			acc += val[j] * x[col[j]];
		}
		y[i] = acc;
	}
}`,
	},
}

// goldenSource returns the source of the named goldenKernels entry.
func goldenSource(name string) string {
	for _, k := range goldenKernels {
		if k.name == name {
			return k.source
		}
	}
	panic("no golden kernel " + name)
}

func TestGoldenVecDisassembly(t *testing.T) {
	for _, tc := range vecGoldenKernels {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := compileKernel(t, tc.name, tc.source, tc.kernel, Options{})
			vp, err := Vectorize(p)
			if err != nil {
				t.Fatalf("%s: vectorize: %v", tc.name, err)
			}
			got := vp.Disassemble()
			path := filepath.Join("testdata", tc.name+".disasm")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run go test ./internal/exec/vm -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("vec disassembly drift for %s:\n--- got ---\n%s--- want ---\n%s", tc.name, got, want)
			}
		})
	}
}

// TestFusionReducesCode checks the peephole pass actually fires on the
// canonical fusion shapes and that NoFuse leaves no super-instructions.
func TestFusionReducesCode(t *testing.T) {
	src := goldenKernels[0]
	fused := compileKernel(t, "f", src.source, src.kernel, Options{})
	plain := compileKernel(t, "p", src.source, src.kernel, Options{NoFuse: true})
	if plain.Fused != 0 {
		t.Fatalf("NoFuse program reports %d fused instructions", plain.Fused)
	}
	if fused.Fused == 0 {
		t.Fatalf("saxpy produced no super-instructions")
	}
	if len(fused.Code) >= len(plain.Code) {
		t.Fatalf("fusion did not shrink code: fused %d vs plain %d", len(fused.Code), len(plain.Code))
	}
	for i := range plain.Code {
		info, ok := LookupOp(plain.Code[i].Op)
		if !ok {
			t.Fatalf("unknown opcode %d in unfused code", plain.Code[i].Op)
		}
		if info.Super {
			t.Fatalf("unfused code contains super-instruction %s", info.Name)
		}
	}
}

// TestOpTable checks the opcode registry is dense and well-formed.
func TestOpTable(t *testing.T) {
	seen := map[string]Opcode{}
	for op := Opcode(0); op < opCount; op++ {
		info, ok := LookupOp(op)
		if !ok {
			t.Fatalf("opcode %d has no registry entry", op)
		}
		if info.Name == "" {
			t.Fatalf("opcode %d has empty mnemonic", op)
		}
		if prev, dup := seen[info.Name]; dup {
			t.Fatalf("mnemonic %q reused by opcodes %d and %d", info.Name, prev, op)
		}
		seen[info.Name] = op
		if op.String() != info.Name {
			t.Fatalf("String() mismatch for opcode %d", op)
		}
	}
	if _, ok := LookupOp(opCount); ok {
		t.Fatalf("out-of-range opcode resolved")
	}
}

func TestPackMemRoundtrip(t *testing.T) {
	cases := [][2]int32{{0, 0}, {1, 2}, {7, 40}, {2147483647, 2147483647}}
	for _, c := range cases {
		slot, name := unpackMem(packMem(c[0], c[1]))
		if slot != c[0] || name != c[1] {
			t.Fatalf("packMem(%d,%d) roundtripped to (%d,%d)", c[0], c[1], slot, name)
		}
	}
}
