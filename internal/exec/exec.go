// Package exec executes INSPIRE kernels over an OpenCL-style NDRange.
//
// It serves two roles in the framework:
//
//   - Correctness: kernels run against real host buffers, so benchmark
//     outputs can be verified against Go reference implementations.
//   - Profiling: every run produces a dynamic operation Profile, bucketed
//     along dimension 0 of the NDRange. The timing simulator
//     (internal/sim) prices these buckets on a device model, and because
//     bucket counts are additive, the cost of ANY contiguous partition
//     chunk is derived from one profiling run — the exhaustive
//     partitioning search of the training phase never re-executes kernels.
//
// Kernels are lowered to register bytecode (package vm) rather than
// walked: a kernel whose control flow the vectorizer admits runs a whole
// work group per dispatch on the vector tier, any other on the scalar VM
// (Compile). The closure tree (one typed func per IR node) serves
// nothing; it is the reference interpreter the differential suites hold
// both tiers to (tier.go).
package exec

import (
	"bytes"
	"fmt"
	"unsafe"

	"repro/internal/minicl"
)

// Buffer is a typed device/host buffer. Exactly one of F or I is non-nil,
// matching Kind. MiniCL float is 32-bit, so floats are stored as float32
// (arithmetic happens in float64 and is rounded on store, like C).
type Buffer struct {
	Kind minicl.BasicKind
	F    []float32
	I    []int32
}

// NewFloatBuffer allocates a float buffer of n elements.
func NewFloatBuffer(n int) *Buffer {
	return &Buffer{Kind: minicl.Float, F: make([]float32, n)}
}

// NewIntBuffer allocates an int buffer of n elements.
func NewIntBuffer(n int) *Buffer {
	return &Buffer{Kind: minicl.Int, I: make([]int32, n)}
}

// Len returns the element count.
func (b *Buffer) Len() int {
	if b.F != nil {
		return len(b.F)
	}
	return len(b.I)
}

// Bytes returns the buffer size in bytes (4-byte elements).
func (b *Buffer) Bytes() int64 { return int64(b.Len()) * 4 }

// Clone returns a deep copy of the buffer.
func (b *Buffer) Clone() *Buffer {
	nb := &Buffer{Kind: b.Kind}
	if b.F != nil {
		nb.F = append([]float32(nil), b.F...)
	}
	if b.I != nil {
		nb.I = append([]int32(nil), b.I...)
	}
	return nb
}

// SameBits reports whether o holds the same kind and number of elements
// with the same bit patterns: a NaN equals only a NaN with its payload,
// and 0.0 differs from -0.0. The elements are compared as bytes, at
// memory speed.
func (b *Buffer) SameBits(o *Buffer) bool {
	return b.Kind == o.Kind &&
		bytes.Equal(viewBytes(b.F), viewBytes(o.F)) &&
		bytes.Equal(viewBytes(b.I), viewBytes(o.I))
}

// viewBytes aliases a slice of 4-byte elements as bytes.
func viewBytes[T float32 | int32](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

// Arg is one kernel argument. For pointer parameters set Buf (global) or
// LocalLen (local: the runtime allocates a per-group buffer of that many
// elements). For scalar parameters set Int or Float according to the
// parameter type.
type Arg struct {
	Buf      *Buffer
	LocalLen int
	Int      int64
	Float    float64
}

// BufArg wraps a buffer argument.
func BufArg(b *Buffer) Arg { return Arg{Buf: b} }

// IntArg wraps an int scalar argument.
func IntArg(v int) Arg { return Arg{Int: int64(v)} }

// FloatArg wraps a float scalar argument.
func FloatArg(v float64) Arg { return Arg{Float: v} }

// LocalArg requests a per-group local buffer of n elements.
func LocalArg(n int) Arg { return Arg{LocalLen: n} }

// NDRange is the kernel launch geometry, up to 3 dimensions. Zero entries
// in Global beyond the used rank are treated as 1. Local sizes must divide
// the corresponding global sizes; a zero Local[0] picks a default.
type NDRange struct {
	Global [3]int
	Local  [3]int
}

// ND1 builds a 1-D range with the default local size.
func ND1(global int) NDRange { return NDRange{Global: [3]int{global, 1, 1}} }

// ND2 builds a 2-D range with the default local size.
func ND2(gx, gy int) NDRange { return NDRange{Global: [3]int{gx, gy, 1}} }

// DefaultLocal0 is the work-group size used along dimension 0 when the
// launch does not specify one and the global size is divisible by it.
const DefaultLocal0 = 64

// Normalized returns the range with zero entries defaulted and local
// sizes validated; clients needing the effective work-group size (e.g.
// for chunk alignment) should call this.
func (nd NDRange) Normalized() (NDRange, error) { return nd.normalized() }

// normalized returns the range with zero entries defaulted.
func (nd NDRange) normalized() (NDRange, error) {
	for d := 0; d < 3; d++ {
		if nd.Global[d] == 0 {
			nd.Global[d] = 1
		}
		if nd.Global[d] < 0 {
			return nd, fmt.Errorf("exec: negative global size in dim %d", d)
		}
	}
	if nd.Local[0] == 0 {
		if nd.Global[0]%DefaultLocal0 == 0 {
			nd.Local[0] = DefaultLocal0
		} else {
			nd.Local[0] = 1
		}
	}
	for d := 1; d < 3; d++ {
		if nd.Local[d] == 0 {
			nd.Local[d] = 1
		}
	}
	for d := 0; d < 3; d++ {
		if nd.Global[d]%nd.Local[d] != 0 {
			return nd, fmt.Errorf("exec: global size %d not divisible by local size %d in dim %d",
				nd.Global[d], nd.Local[d], d)
		}
	}
	return nd, nil
}

// Counts is a dynamic operation profile: the execution counts of one work
// item, one profile bucket, or an aggregated chunk.
type Counts struct {
	Items         int64 // work items executed
	IntOps        int64
	FloatOps      int64
	TransOps      int64 // transcendental builtin calls
	OtherBuiltins int64
	GlobalLoads   int64 // element loads from global buffers
	GlobalStores  int64
	LocalOps      int64 // local-memory loads+stores
	Branches      int64 // executed branch decisions
	Barriers      int64
	MaxItemOps    int64 // max per-item total op count seen (imbalance proxy)
}

// totalOps is the per-item work metric used for MaxItemOps.
func (c *Counts) totalOps() int64 {
	return c.IntOps + c.FloatOps + 4*c.TransOps + c.OtherBuiltins +
		c.GlobalLoads + c.GlobalStores + c.LocalOps
}

// Add accumulates o into c, taking the max of MaxItemOps.
func (c *Counts) Add(o *Counts) {
	c.Items += o.Items
	c.IntOps += o.IntOps
	c.FloatOps += o.FloatOps
	c.TransOps += o.TransOps
	c.OtherBuiltins += o.OtherBuiltins
	c.GlobalLoads += o.GlobalLoads
	c.GlobalStores += o.GlobalStores
	c.LocalOps += o.LocalOps
	c.Branches += o.Branches
	c.Barriers += o.Barriers
	if o.MaxItemOps > c.MaxItemOps {
		c.MaxItemOps = o.MaxItemOps
	}
}

// GlobalLoadBytes returns bytes read from global memory (4-byte elements).
func (c *Counts) GlobalLoadBytes() int64 { return c.GlobalLoads * 4 }

// GlobalStoreBytes returns bytes written to global memory.
func (c *Counts) GlobalStoreBytes() int64 { return c.GlobalStores * 4 }

// Profile is the dynamic profile of one kernel launch, bucketed along
// dimension 0 so that the cost of any contiguous dim-0 chunk can be
// reconstructed without re-execution (Range).
type Profile struct {
	// Global0 is the dim-0 extent the profile covers.
	Global0 int
	// Buckets partition [0, Global0) into len(Buckets) contiguous spans.
	Buckets []Counts

	// Vector-tier divergence telemetry for the launch. VecDivergences
	// counts lane disagreements at varying branches that split the
	// group; VecReconverges is the subset that re-formed at the join
	// point and finished W-wide; VecLinearized counts the disagreements
	// at linear branches, whose short sides ran in place under the lane
	// mask without a split; VecScalarBails counts groups that fell back
	// to per-item scalar completion. These do not affect pricing — they
	// are execution-path observability, surfaced through /stats.
	VecDivergences int64
	VecReconverges int64
	VecLinearized  int64
	VecScalarBails int64
}

// DefaultBuckets is the profile resolution along dim 0.
const DefaultBuckets = 200

// Precompute does nothing. It is kept only because the benchmark module
// still calls it (benchmark/train.go and benchmark/micro.go); delete it
// once those two calls are gone.
func (p *Profile) Precompute() {}

// subAdditive subtracts o's additive fields from c.
func (c *Counts) subAdditive(o *Counts) {
	c.Items -= o.Items
	c.IntOps -= o.IntOps
	c.FloatOps -= o.FloatOps
	c.TransOps -= o.TransOps
	c.OtherBuiltins -= o.OtherBuiltins
	c.GlobalLoads -= o.GlobalLoads
	c.GlobalStores -= o.GlobalStores
	c.LocalOps -= o.LocalOps
	c.Branches -= o.Branches
	c.Barriers -= o.Barriers
}

// scaleFloor returns c's additive fields scaled by off/width with exact
// integer floor division (the remainder scheme that makes sub-range counts
// conserve totals: inner(x) is monotone and inner(width) == c).
func (c *Counts) scaleFloor(off, width int) Counts {
	o, w := int64(off), int64(width)
	return Counts{
		Items:         c.Items * o / w,
		IntOps:        c.IntOps * o / w,
		FloatOps:      c.FloatOps * o / w,
		TransOps:      c.TransOps * o / w,
		OtherBuiltins: c.OtherBuiltins * o / w,
		GlobalLoads:   c.GlobalLoads * o / w,
		GlobalStores:  c.GlobalStores * o / w,
		LocalOps:      c.LocalOps * o / w,
		Branches:      c.Branches * o / w,
		Barriers:      c.Barriers * o / w,
	}
}

// Range aggregates the profile over dim-0 indices [lo, hi), scanning the
// buckets the range overlaps. Bucket b spans [b*Global0/nb,
// (b+1)*Global0/nb).
//
// Whole-bucket spans are exact integer sums. When a boundary cuts a
// bucket, the bucket's counts are attributed by the exact floor-scaled
// prefix inner(x) = c*(x-bucketStart)/bucketWidth, so adjacent sub-ranges
// always conserve totals: Range(a,b) + Range(b,c) == Range(a,c) for every
// additive field. MaxItemOps is the maximum over every overlapped bucket
// (an imbalance proxy is not divisible).
func (p *Profile) Range(lo, hi int) Counts {
	var out Counts
	lo, hi = max(lo, 0), min(hi, p.Global0)
	if lo >= hi {
		return out
	}
	nb, g := len(p.Buckets), p.Global0
	// lo*nb/g never lies past the bucket holding lo (it may lie one before).
	for b := lo * nb / g; b < nb; b++ {
		bLo, bHi := b*g/nb, (b+1)*g/nb
		if bLo >= hi {
			break
		}
		if bHi <= lo {
			continue
		}
		c := &p.Buckets[b]
		ovLo, ovHi := max(lo, bLo), min(hi, bHi)
		if ovLo == bLo && ovHi == bHi {
			out.Add(c)
			continue
		}
		part := c.scaleFloor(ovHi-bLo, bHi-bLo)
		low := c.scaleFloor(ovLo-bLo, bHi-bLo)
		part.subAdditive(&low)
		part.MaxItemOps = c.MaxItemOps
		out.Add(&part)
	}
	return out
}

// Total aggregates the whole profile.
func (p *Profile) Total() Counts { return p.Range(0, p.Global0) }
