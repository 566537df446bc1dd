// Package backend derives multi-device execution plans from single-device
// kernels: the role of the paper's Insieme backend, which "generates
// multi-device OpenCL code" from the INSPIRE representation.
//
// For each global buffer parameter the backend determines how the kernel
// accesses it relative to the partitioned dimension (dim 0 of the
// NDRange). Buffers accessed affinely in the work-item ID can be split:
// each device only receives/returns its proportional slice. Buffers with
// uniform, indirect or unclassifiable accesses must be replicated to every
// participating device. The resulting transfer plan feeds the timing
// simulator, which — following the paper's methodology — always accounts
// kernel time including transfer overhead.
package backend

import (
	"fmt"
	"slices"

	"repro/internal/exec"
	"repro/internal/inspire"
	"repro/internal/minicl"
	"repro/internal/partition"
	"repro/internal/sim"
)

// BufferUsage describes how a kernel uses one global buffer parameter.
type BufferUsage struct {
	Param   *inspire.Var
	Read    bool
	Written bool
	// ReadPattern and WritePattern are the worst observed access patterns
	// for the respective direction.
	ReadPattern  inspire.AccessPattern
	WritePattern inspire.AccessPattern
	// Splittable means a partition chunk only needs a proportional slice
	// of this buffer (affine access in the partition dimension).
	Splittable bool
}

// Plan is the multi-device execution plan for one kernel: per-buffer usage
// plus the kernel's aggregate static access mix.
type Plan struct {
	Kernel *inspire.Function
	Usages []BufferUsage
	Static *inspire.StaticCounts
	Mix    sim.AccessMix
}

// worse returns the less split-friendly of two patterns.
func worse(a, b inspire.AccessPattern) inspire.AccessPattern {
	if splitRank(a) >= splitRank(b) {
		return a
	}
	return b
}

// splitRank orders patterns by how hostile they are to buffer splitting.
func splitRank(p inspire.AccessPattern) int {
	switch p {
	case inspire.AccessCoalesced:
		return 0
	case inspire.AccessStrided:
		return 1
	case inspire.AccessUniform:
		return 2
	case inspire.AccessIndirect:
		return 3
	default:
		return 4
	}
}

// splittable reports whether a pattern allows proportional buffer slicing
// along the partition dimension. Affine accesses (coalesced or strided in
// the work-item ID) cover index ranges proportional to the chunk.
func splittable(p inspire.AccessPattern) bool {
	return p == inspire.AccessCoalesced || p == inspire.AccessStrided
}

// Analyze builds the multi-device plan for a kernel.
func Analyze(fn *inspire.Function) (*Plan, error) {
	if fn == nil {
		return nil, fmt.Errorf("backend: nil kernel")
	}
	pl := &Plan{Kernel: fn, Static: inspire.Analyze(fn)}

	usageByVar := map[*inspire.Var]*BufferUsage{}
	for _, p := range fn.Params {
		if p.Type.Ptr && p.Type.Space == minicl.Global {
			u := &BufferUsage{Param: p, ReadPattern: inspire.AccessUniform, WritePattern: inspire.AccessUniform}
			usageByVar[p] = u
		}
	}

	env := inspire.BuildAffineEnv(fn)
	noteAccesses(fn.Body, usageByVar, func(idx inspire.Expr) inspire.AccessPattern {
		return inspire.ClassifyIndexEnv(idx, env)
	}, nil)

	for _, p := range fn.Params {
		if u := usageByVar[p]; u != nil {
			u.Splittable = true
			if u.Read && !splittable(u.ReadPattern) {
				u.Splittable = false
			}
			if u.Written && !splittable(u.WritePattern) {
				u.Splittable = false
			}
			if !u.Read && !u.Written {
				u.Splittable = true // untouched buffer: no transfers at all
			}
			pl.Usages = append(pl.Usages, *u)
		}
	}

	pl.Mix = MixOf(pl.Static)
	return pl, nil
}

// noteAccesses records every load and store of body against the usage of
// the buffer it goes through, following buffers into the helpers they are
// passed to: a buffer only a helper touches is read or written all the
// same and its transfers must be priced. classify gives an access's
// pattern from its index; inside a helper the index is in the callee's
// variables, which the kernel's affine environment does not describe, so
// accesses there count as unclassifiable (the buffer is replicated).
// inline is the chain of helpers being followed, the recursion guard.
func noteAccesses(body *inspire.Block, usage map[*inspire.Var]*BufferUsage,
	classify func(inspire.Expr) inspire.AccessPattern, inline []*inspire.Function) {
	inspire.WalkStmts(body, func(s inspire.Stmt) bool {
		if se, ok := s.(*inspire.StoreElem); ok {
			if u := usage[se.Buf]; u != nil {
				pat := classify(se.Index)
				if u.Written {
					pat = worse(u.WritePattern, pat)
				}
				u.WritePattern, u.Written = pat, true
			}
		}
		return true
	})
	inspire.WalkExprs(body, func(e inspire.Expr) {
		switch ex := e.(type) {
		case *inspire.Load:
			if u := usage[ex.Buf]; u != nil {
				pat := classify(ex.Index)
				if u.Read {
					pat = worse(u.ReadPattern, pat)
				}
				u.ReadPattern, u.Read = pat, true
			}
		case *inspire.CallFunc:
			if slices.Contains(inline, ex.Callee) {
				return
			}
			passed := map[*inspire.Var]*BufferUsage{}
			for i, a := range ex.Args {
				if vr, ok := a.(*inspire.VarRef); ok && usage[vr.Var] != nil {
					passed[ex.Callee.Params[i]] = usage[vr.Var]
				}
			}
			if len(passed) > 0 {
				noteAccesses(ex.Callee.Body, passed, func(inspire.Expr) inspire.AccessPattern {
					return inspire.AccessUnknown
				}, append(inline, ex.Callee))
			}
		}
	})
}

// MixOf converts a static access histogram into the simulator's mix.
func MixOf(st *inspire.StaticCounts) sim.AccessMix {
	var m sim.AccessMix
	for pat, n := range st.Accesses {
		f := float64(n)
		switch pat {
		case inspire.AccessCoalesced:
			m.Coalesced += f
		case inspire.AccessStrided:
			m.Strided += f
		case inspire.AccessIndirect:
			m.Indirect += f
		case inspire.AccessUniform:
			m.Uniform += f
		default:
			m.Indirect += f // price unknown like gather
		}
	}
	return m.Normalize()
}

// ArgBytes appends each argument's byte size to dst: a buffer's Bytes(),
// 0 for anything else. Pricing reads these sizes and never the buffers'
// contents, so a launch that is only priced need not keep its buffers.
func ArgBytes(dst []int64, args []exec.Arg) []int64 {
	for _, a := range args {
		var n int64
		if a.Buf != nil {
			n = a.Buf.Bytes()
		}
		dst = append(dst, n)
	}
	return dst
}

// TransferBytes computes host->device and device->host traffic for
// executing dim-0 chunk [lo,hi) of a launch whose arguments have the given
// byte sizes (ArgBytes). global0 is the full dim-0 extent. Buffers not used
// by the kernel move nothing; splittable buffers move their proportional
// slice; everything else is replicated in full (and written back in full if
// written).
func (pl *Plan) TransferBytes(argBytes []int64, global0, lo, hi int) (in, out int64) {
	if hi <= lo || global0 <= 0 {
		return 0, 0
	}
	frac := float64(hi-lo) / float64(global0)
	ui := 0
	for i, p := range pl.Kernel.Params {
		if !p.Type.Ptr || p.Type.Space != minicl.Global {
			continue
		}
		u := pl.Usages[ui]
		ui++
		bytes := argBytes[i]
		if bytes == 0 {
			continue
		}
		prop := int64(float64(bytes) * frac)
		if u.Read {
			if u.Splittable {
				in += prop
			} else {
				in += bytes
			}
		}
		if u.Written {
			if u.Splittable {
				out += prop
			} else {
				out += bytes
			}
			// Partially-written replicated buffers must also be uploaded
			// so untouched regions survive the writeback merge.
			if !u.Splittable && !u.Read {
				in += bytes
			}
		}
	}
	return in, out
}

// DeviceWorks builds the per-device sim.Work vector for a partitioned
// launch: chunk profiles from a full-range profile, transfer bytes from
// the plan and the arguments' byte sizes, and the kernel's access mix.
// launches is the number of kernel invocations the work represents
// (iterative applications re-launch the kernel but keep buffers resident,
// so transfers are charged once). dst receives the works and chunkScratch
// the chunk layout, both reused when their capacity suffices (nil for
// fresh ones); the chunk counts come from the profile's O(1) range query.
// It returns the works plus the chunk scratch for reuse on the next
// candidate.
func (pl *Plan) DeviceWorks(dst []sim.Work, chunkScratch [][2]int, prof *exec.Profile,
	argBytes []int64, part partition.Partition, align int, launches int) ([]sim.Work, [][2]int) {
	chunks := part.ChunksInto(chunkScratch, prof.Global0, align)
	var works []sim.Work
	if cap(dst) >= len(chunks) {
		works = dst[:len(chunks)]
		clear(works)
	} else {
		works = make([]sim.Work, len(chunks))
	}
	for d, ch := range chunks {
		if ch[1] <= ch[0] {
			continue
		}
		counts := prof.Range(ch[0], ch[1])
		scaleCounts(&counts, launches)
		in, outB := pl.TransferBytes(argBytes, prof.Global0, ch[0], ch[1])
		works[d] = sim.Work{
			Counts:      counts,
			Mix:         pl.Mix,
			TransferIn:  in,
			TransferOut: outB,
			Launches:    launches,
		}
	}
	return works, chunks
}

// scaleCounts multiplies dynamic counts by the launch count (profiles are
// captured for one representative launch of iterative kernels).
func scaleCounts(c *exec.Counts, launches int) {
	if launches <= 1 {
		return
	}
	l := int64(launches)
	c.IntOps *= l
	c.FloatOps *= l
	c.TransOps *= l
	c.OtherBuiltins *= l
	c.GlobalLoads *= l
	c.GlobalStores *= l
	c.LocalOps *= l
	c.Branches *= l
	c.Barriers *= l
	c.MaxItemOps *= l
}
