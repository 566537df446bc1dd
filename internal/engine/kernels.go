package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/bench"
	"repro/internal/core"
)

// Runtime kernel registration: untrusted MiniCL source uploaded through
// POST /kernels, compiled through the same front end as the built-in
// suite and registered under a tenant-qualified name ("tenant/name").
// Qualified names are disjoint from the built-in namespace (no built-in
// contains a "/"), so user kernels flow through the existing program
// memo — including its LRU eviction, which makes idle tenant programs
// recompile-on-next-use instead of pinning compiled code forever.

// ErrKernelExists reports a registration under an already-taken name.
var ErrKernelExists = errors.New("engine: kernel name already registered")

// ErrInvalidKernel reports a spec rejected before compilation (bad
// tenant or kernel name, bad size family) — a client error, not a quota
// or compile one.
var ErrInvalidKernel = errors.New("engine: invalid kernel spec")

// CompileError wraps a front-end failure for an uploaded kernel so the
// serving layer can answer 400 with the MiniCL position intact.
type CompileError struct {
	Name string
	Err  error
}

func (e *CompileError) Error() string {
	return fmt.Sprintf("engine: kernel %s: compile failed: %v", e.Name, e.Err)
}

func (e *CompileError) Unwrap() error { return e.Err }

// KernelSpec is one kernel upload.
type KernelSpec struct {
	// Name is the tenant-local kernel name ([a-zA-Z0-9_-], ≤ 64 chars).
	Name string `json:"name"`
	// Source is the MiniCL source text.
	Source string `json:"source"`
	// Kernel names the kernel function to serve; defaults to the
	// source's only kernel (required when the source defines several).
	Kernel string `json:"kernel,omitempty"`
	// BaseN is the smallest problem size (default 1024; must be a
	// multiple of the work-group size).
	BaseN int `json:"baseSize,omitempty"`
	// NumSizes is the size-family length (default 4, doubling from
	// BaseN).
	NumSizes int `json:"sizes,omitempty"`
}

// KernelInfo describes one registered kernel.
type KernelInfo struct {
	Name        string `json:"name"` // qualified: tenant/name
	Tenant      string `json:"tenant"`
	Kernel      string `json:"kernel"`
	SourceBytes int    `json:"sourceBytes"`
	SizeNs      []int  `json:"sizeNs"`
	Tier        string `json:"tier"`
	// VecReason is why the kernel is not on the vector tier when Tier
	// is "vm" (the vectorizer's refusal): a varying branch inside a loop
	// whose region holds a barrier or a store through a uniform index.
	// Empty otherwise; lane-varying trip counts run under loop masks.
	VecReason string `json:"vecReason,omitempty"`
	// VecBailBranches is how many varying branches of a kernel on the
	// vector tier have no join: a group whose lanes disagree there
	// leaves the tier and completes item by item on the scalar VM. A
	// loop exit has one, the loop's exit join, where a loop mask
	// re-forms the group.
	VecBailBranches int `json:"vecBailBranches"`
}

// userKernel is one registered upload. The bench program retains the
// source, so an evicted compiled program is rebuilt from here on demand.
type userKernel struct {
	bench  *bench.Program
	tenant string
	info   KernelInfo
}

type kernelTable struct {
	mu sync.RWMutex
	m  map[string]*userKernel
}

// validName reports whether name may be a tenant or kernel name. The
// qualified name "tenant/name" is a program name, which the observation
// log and responses carry and no file path may be built from, so neither
// half may hold a path separator or a dot.
func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		ok := r == '_' || r == '-' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// RegisterKernel compiles and registers an uploaded kernel for tenant.
// On success the kernel serves /predict and /execute immediately under
// its qualified name.
func (e *Engine) RegisterKernel(tenant string, spec KernelSpec) (*KernelInfo, error) {
	tn := tenantName(tenant)
	if !validName(tn) || !validName(spec.Name) {
		return nil, fmt.Errorf("%w: tenant %q, name %q (each want [a-zA-Z0-9_-], at most 64 chars)", ErrInvalidKernel, tn, spec.Name)
	}
	qname := tn + "/" + spec.Name

	// Quota pre-check before spending compile work; re-checked at
	// insertion, which is the authoritative gate.
	if err := e.checkKernelQuota(tn, int64(len(spec.Source)), qname); err != nil {
		e.noteQuotaRejection(err)
		return nil, err
	}

	// The whole front end, once — exactly what the program memo runs
	// after an eviction, so upload-time success means serve-time
	// compiles cannot fail. Errors carry the MiniCL line:column.
	cp, err := core.CompileSource(qname, spec.Source, spec.Kernel)
	if err != nil {
		return nil, &CompileError{Name: qname, Err: err}
	}
	if n := len(cp.Unit.Kernels); spec.Kernel == "" && n != 1 {
		return nil, &CompileError{Name: qname, Err: fmt.Errorf("source defines %d kernels; specify which to serve", n)}
	}
	bp, err := bench.UserProgram(qname, "user", spec.Source, cp.Kernel, cp.Unit.Kernel(cp.Kernel), spec.BaseN, spec.NumSizes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidKernel, err)
	}

	info := KernelInfo{
		Name:        qname,
		Tenant:      tn,
		Kernel:      cp.Kernel,
		SourceBytes: len(spec.Source),
		Tier:        cp.Compiled.Tier().String(),
	}
	if verr := cp.Compiled.VecError(); verr != nil {
		info.VecReason = verr.Error()
	}
	if vp := cp.Compiled.Vec(); vp != nil {
		info.VecBailBranches = vp.BailBranches()
	}
	for _, s := range bp.Sizes {
		info.SizeNs = append(info.SizeNs, s.N)
	}

	// Authoritative gate. Name existence is per-engine (kernels register
	// into one shard); the quota accounting commits in the — possibly
	// fleet-shared — tenant table. Lock order: kernels.mu, then the
	// tenant table's mutex inside reserveRegistration.
	e.kernels.mu.Lock()
	if e.kernels.m[qname] != nil {
		e.kernels.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrKernelExists, qname)
	}
	if err := e.tenants.reserveRegistration(tn, int64(len(spec.Source)), e.opts.Tenant); err != nil {
		e.kernels.mu.Unlock()
		e.noteQuotaRejection(err)
		return nil, err
	}
	if e.kernels.m == nil {
		e.kernels.m = map[string]*userKernel{}
	}
	e.kernels.m[qname] = &userKernel{bench: bp, tenant: tn, info: info}
	e.kernels.mu.Unlock()

	// Seed the program memo with the already-compiled entry so the first
	// request does not recompile; eviction falls back to the stored
	// source.
	e.programs.Do(qname, func() (*programEntry, error) {
		return &programEntry{bench: bp, prog: cp}, nil
	})
	e.stats.kernelsRegistered.Add(1)
	return &info, nil
}

// noteQuotaRejection counts quota-typed registration failures (name
// conflicts and validation errors are not quota pressure).
func (e *Engine) noteQuotaRejection(err error) {
	var qe *QuotaError
	if errors.As(err, &qe) {
		e.stats.quotaRejections.Add(1)
	}
}

// checkKernelQuota is the pre-compile rejection: name taken or tenant
// over quota, checked without committing anything.
func (e *Engine) checkKernelQuota(tenant string, srcLen int64, qname string) error {
	e.kernels.mu.RLock()
	taken := e.kernels.m[qname] != nil
	e.kernels.mu.RUnlock()
	if taken {
		return fmt.Errorf("%w: %s", ErrKernelExists, qname)
	}
	return e.tenants.checkRegistration(tenant, srcLen, e.opts.Tenant)
}

// ListKernels returns every registered user kernel, sorted by qualified
// name.
func (e *Engine) ListKernels() []KernelInfo {
	e.kernels.mu.RLock()
	out := make([]KernelInfo, 0, len(e.kernels.m))
	for _, uk := range e.kernels.m {
		out = append(out, uk.info)
	}
	e.kernels.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// userBench resolves a qualified user-kernel name to its bench program.
func (e *Engine) userBench(qname string) (*bench.Program, error) {
	e.kernels.mu.RLock()
	uk := e.kernels.m[qname]
	e.kernels.mu.RUnlock()
	if uk == nil {
		return nil, fmt.Errorf("engine: unknown kernel %q", qname)
	}
	return uk.bench, nil
}

// isUserKernel reports whether a program name is a qualified
// "tenant/name": no built-in's name contains a "/".
func isUserKernel(name string) bool { return strings.Contains(name, "/") }

// benchFor routes a program name: qualified names are user kernels,
// everything else the built-in suite.
func (e *Engine) benchFor(name string) (*bench.Program, error) {
	if isUserKernel(name) {
		return e.userBench(name)
	}
	return bench.Get(name)
}
