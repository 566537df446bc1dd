// Package bench defines the 23-program benchmark suite of the paper's
// evaluation (Section 3: "a selection of 23 programs drawn from OpenCL
// vendors' example codes, applications from our department or partner
// universities, and benchmark suites" — Rodinia, SHOC, PolyBench/InPar).
//
// Each program is a MiniCL kernel with a host-side setup that builds its
// buffers for a family of problem sizes, plus a Go reference
// implementation used to verify partitioned executions. The suite spans
// the axes that move the optimal partitioning: arithmetic intensity
// (streaming vs O(n^2)/O(n^3) compute), memory access patterns (coalesced,
// strided, indirect), control flow (branchy, divergent), work-group
// cooperation (barriers, local memory) and launch structure (single-shot
// vs iterative).
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/backend"
	"repro/internal/exec"
	"repro/internal/inspire"
	"repro/internal/runtime"
)

// Size is one problem size of a program. N is the primary scale parameter
// (elements, matrix side, rows...); the program's setup derives everything
// else from it.
type Size struct {
	Label string
	N     int
}

// Instance is one runnable configuration of a program: arguments bound to
// initialized buffers plus the launch geometry. Extra holds verification
// snapshots (e.g. pre-execution copies of in-place buffers), which a
// verifier only reads. Args need not be the buffers the setup allocated:
// the serving engine verifies executions that ran on its own copies of
// the written buffers and the setup's buffers for the rest.
type Instance struct {
	Args  []exec.Arg
	ND    exec.NDRange
	Extra map[string]*exec.Buffer
}

// Program is one benchmark of the suite.
type Program struct {
	Name   string
	Suite  string // origin style: vendor, rodinia, shoc, polybench
	Source string // MiniCL source
	Kernel string // kernel function name
	// Iterations is how many times the application launches the kernel
	// per run (iterative solvers); buffers stay resident between launches.
	Iterations int
	// LocalSize overrides the dim-0 work-group size (0 = default).
	LocalSize int
	// Sizes is the problem size family, ascending. DefaultSize indexes
	// the size used for the Figure 1 experiment.
	Sizes       []Size
	DefaultSize int

	setup  func(n int, rng *rand.Rand) *Instance
	verify func(inst *Instance, n int) error

	mu    sync.Mutex // guards lazy compilation
	front *Front
}

// Front is one MiniCL kernel through the whole front end: the lowered,
// optimized unit, the kernel's name, its executable form, its
// multi-device plan and its static analysis counts.
type Front struct {
	Kernel   string
	Unit     *inspire.Unit
	Compiled *exec.Compiled
	Plan     *backend.Plan
	Static   *inspire.StaticCounts
}

// Compile is the front end every kernel goes through — built-ins, the
// framework's CompileSource and uploads alike: lower MiniCL source to
// INSPIRE (errors carry the MiniCL line:column), optimize, verify,
// compile to an execution tier and analyze the multi-device plan.
// kernel selects the kernel function; "" picks the first.
func Compile(name, src, kernel string) (*Front, error) {
	u, err := inspire.LowerSource(name, src)
	if err != nil {
		return nil, err
	}
	if kernel == "" && len(u.Kernels) > 0 {
		kernel = u.Kernels[0].Name
	}
	fn := u.Kernel(kernel)
	if fn == nil {
		return nil, fmt.Errorf("kernel %q not found in %q", kernel, name)
	}
	inspire.Optimize(u)
	if err := inspire.Verify(u); err != nil {
		return nil, fmt.Errorf("IR verification: %w", err)
	}
	comp, err := exec.Compile(fn)
	if err != nil {
		return nil, err
	}
	plan, err := backend.Analyze(fn)
	if err != nil {
		return nil, err
	}
	return &Front{Kernel: kernel, Unit: u, Compiled: comp, Plan: plan, Static: inspire.Analyze(fn)}, nil
}

// Front returns the program's kernel through the front end. It is built
// on first use and kept for the life of the process, so every caller —
// the training sweep's launches (Build) and every serving engine's
// registry — runs the same *exec.Compiled and shares the group runners
// parked on it. Safe for concurrent sweep workers: the first caller
// compiles, the rest wait and reuse the result.
func (p *Program) Front() (*Front, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.front == nil {
		f, err := Compile(p.Name, p.Source, p.Kernel)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", p.Name, err)
		}
		p.front = f
	}
	return p.front, nil
}

// Static returns the kernel's static analysis counts.
func (p *Program) Static() (*inspire.StaticCounts, error) {
	f, err := p.Front()
	if err != nil {
		return nil, err
	}
	return f.Static, nil
}

// Instance builds the deterministic input instance (arguments and launch
// geometry) for size index szIdx without compiling the kernel. Callers
// that bring their own compiled program (the deployment engine's
// registry) combine it with the instance to form a launch.
func (p *Program) Instance(szIdx int) (*Instance, error) {
	if szIdx < 0 || szIdx >= len(p.Sizes) {
		return nil, fmt.Errorf("bench %s: size index %d out of range", p.Name, szIdx)
	}
	n := p.Sizes[szIdx].N
	rng := rand.New(rand.NewSource(int64(szIdx)*1315423911 + int64(len(p.Name))*2654435761 + 12345))
	inst := p.setup(n, rng)
	if p.LocalSize > 0 {
		inst.ND.Local[0] = p.LocalSize
	}
	return inst, nil
}

// Build creates a launch for size index szIdx with deterministic input
// data, plus the instance for verification.
func (p *Program) Build(szIdx int) (runtime.Launch, *Instance, error) {
	f, err := p.Front()
	if err != nil {
		return runtime.Launch{}, nil, err
	}
	inst, err := p.Instance(szIdx)
	if err != nil {
		return runtime.Launch{}, nil, err
	}
	l := runtime.Launch{
		Kernel:     f.Compiled,
		Plan:       f.Plan,
		Args:       inst.Args,
		ND:         inst.ND,
		Iterations: p.Iterations,
	}
	return l, inst, nil
}

// Verify checks the instance's outputs against the Go reference for size
// index szIdx. Call after executing the launch.
func (p *Program) Verify(inst *Instance, szIdx int) error {
	if p.verify == nil {
		return fmt.Errorf("bench %s: no verifier", p.Name)
	}
	return p.verify(inst, p.Sizes[szIdx].N)
}

// registry is populated by the program definition files.
var registry []*Program

func register(p *Program) *Program {
	registry = append(registry, p)
	return p
}

// All returns the full suite in registration order.
func All() []*Program { return registry }

// Get returns the program named name.
func Get(name string) (*Program, error) {
	for _, p := range registry {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown program %q", name)
}

// --- shared verification helpers ---

// approxEq compares float32 results with a mixed absolute/relative
// tolerance sized for float32 accumulation error.
func approxEq(got, want float32, tol float64) bool {
	g, w := float64(got), float64(want)
	if math.IsNaN(g) || math.IsNaN(w) {
		return false
	}
	diff := math.Abs(g - w)
	return diff <= tol*(1+math.Abs(w))
}

// checkFloats compares a buffer against expected values.
func checkFloats(name string, got []float32, want []float32, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if !approxEq(got[i], want[i], tol) {
			return fmt.Errorf("%s[%d] = %g, want %g", name, i, got[i], want[i])
		}
	}
	return nil
}

// checkInts compares an int buffer against expected values.
func checkInts(name string, got []int32, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
	return nil
}

// fillUniform fills a float buffer with deterministic values in [lo, hi).
func fillUniform(b *exec.Buffer, rng *rand.Rand, lo, hi float64) {
	for i := range b.F {
		b.F[i] = float32(lo + rng.Float64()*(hi-lo))
	}
}

// geomSizes builds a size family by repeated doubling from base.
func geomSizes(labels []string, base int) []Size {
	out := make([]Size, len(labels))
	n := base
	for i, l := range labels {
		out[i] = Size{Label: l, N: n}
		n *= 2
	}
	return out
}

// sizeLabels is the canonical S0..S5 labelling.
var sizeLabels = []string{"S0", "S1", "S2", "S3", "S4", "S5"}
