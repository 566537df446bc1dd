// Package sim prices dynamic kernel profiles on analytic device models.
//
// It is the substitute for running on physical hardware: given the
// operation counts a chunk of the NDRange executes (from internal/exec),
// the static memory-access mix (from internal/inspire), and the bytes that
// must cross the host interconnect (from the backend's transfer plan), it
// computes the wall time a device would take. Timings always include
// memory-transfer overhead, following the paper's methodology (Gregg &
// Hazelwood, ISPASS'11: "Where is the data?").
//
// The model is deliberately first-order — roofline-style compute/bandwidth
// overlap, occupancy-scaled throughput, SIMT divergence and VLIW branch
// penalties, and shared-link contention — because those are exactly the
// effects that move the optimal partitioning with program, problem size
// and platform.
package sim

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/exec"
)

// AccessMix is the fraction of global-memory accesses per pattern class.
// Fractions should sum to 1; an all-zero mix is treated as fully coalesced.
type AccessMix struct {
	Coalesced float64
	Strided   float64
	Indirect  float64
	Uniform   float64
}

// Normalize scales the mix to sum to 1, defaulting to coalesced.
func (m AccessMix) Normalize() AccessMix {
	s := m.Coalesced + m.Strided + m.Indirect + m.Uniform
	if s <= 0 {
		return AccessMix{Coalesced: 1}
	}
	return AccessMix{m.Coalesced / s, m.Strided / s, m.Indirect / s, m.Uniform / s}
}

// Work describes the execution of one chunk on one device: the dynamic
// counts of the chunk, its static access mix, the host-device traffic it
// requires, and how many kernel launches it is part of.
type Work struct {
	Counts      exec.Counts
	Mix         AccessMix
	TransferIn  int64 // bytes host -> device
	TransferOut int64 // bytes device -> host
	Launches    int   // kernel launches (>=1 when any items run)
}

// Options tweaks the cost model, mainly for ablations.
type Options struct {
	// IgnoreTransfers prices kernels as if data were already resident
	// (the accounting mistake the paper warns against). Used by the
	// transfer-ablation experiment.
	IgnoreTransfers bool
	// LinkShare divides interconnect bandwidth, modelling concurrent
	// transfers on a shared PCIe complex: 1 = exclusive, 2 = two devices
	// transferring, etc. Zero means exclusive.
	LinkShare float64
}

// Breakdown itemizes simulated device time in seconds.
type Breakdown struct {
	Compute  float64 // arithmetic + branches + local memory + barriers
	Memory   float64 // global memory traffic on the device
	Kernel   float64 // max(Compute, Memory) after penalties
	Transfer float64 // host link traffic
	Overhead float64 // launch overhead
	Total    float64
}

// divergenceCap bounds the imbalance penalty (a 32-wide SIMT unit cannot
// lose more than 32x to divergence).
const divergenceCap = 32.0

// cpuBarrierOps and gpuBarrierOps price one executed barrier in branch-unit
// operations. Work-group barriers are nearly free in GPU hardware but need
// cross-thread synchronization on a CPU.
const (
	cpuBarrierOps = 32.0
	gpuBarrierOps = 4.0
)

// DeviceTime computes the simulated wall time for w on device d.
func DeviceTime(d *device.Profile, w Work, opts Options) Breakdown {
	var bd Breakdown
	c := &w.Counts
	if c.Items == 0 {
		return bd
	}
	launches := w.Launches
	if launches < 1 {
		launches = 1
	}

	// --- compute time ---
	compute := float64(c.IntOps)/d.IntOpsPerSec +
		float64(c.FloatOps)/d.FloatOpsPerSec +
		float64(c.TransOps)/d.TransOpsPerSec +
		float64(c.OtherBuiltins)/d.FloatOpsPerSec +
		float64(c.LocalOps)/d.LocalOpsPerSec

	totalOps := float64(c.IntOps + c.FloatOps + 4*c.TransOps + c.OtherBuiltins +
		c.GlobalLoads + c.GlobalStores + c.LocalOps)
	branchDensity := 0.0
	if totalOps > 0 {
		branchDensity = float64(c.Branches) / totalOps
	}
	// Branches, with the VLIW wide-issue stall surcharge on branchy code.
	branchCost := float64(c.Branches) / d.BranchPerSec
	branchCost *= 1 + d.VLIWBranchFactor*minF(1, branchDensity*4)
	compute += branchCost

	// Barriers.
	barrierOps := gpuBarrierOps
	if d.Class == device.CPU {
		barrierOps = cpuBarrierOps
	}
	compute += float64(c.Barriers) * barrierOps / d.BranchPerSec

	// SIMT divergence: lockstep execution pays for the slowest item.
	if d.DivergenceFactor > 0 && c.Items > 0 {
		meanItemOps := totalOps / float64(c.Items)
		if meanItemOps > 0 && c.MaxItemOps > 0 {
			imbalance := float64(c.MaxItemOps) / meanItemOps
			if imbalance > 1 {
				penalty := 1 + d.DivergenceFactor*(imbalance-1)
				if penalty > divergenceCap {
					penalty = divergenceCap
				}
				compute *= penalty
			}
		}
	}

	// Occupancy: chunks smaller than the saturation point run at
	// proportionally reduced throughput.
	if d.SaturationItems > 0 && float64(c.Items) < d.SaturationItems {
		compute *= d.SaturationItems / float64(c.Items)
	}

	// --- global memory time ---
	mix := w.Mix.Normalize()
	bytes := float64(c.GlobalLoadBytes() + c.GlobalStoreBytes())
	memTime := bytes / d.MemBandwidth * (mix.Coalesced/d.EffCoalesced +
		mix.Strided/d.EffStrided +
		mix.Indirect/d.EffIndirect +
		mix.Uniform/d.EffUniform)
	if d.Class == device.GPU && d.SaturationItems > 0 && float64(c.Items) < d.SaturationItems {
		// Latency-bound at low occupancy: bandwidth also degrades, but
		// more gently than compute (memory parallelism saturates earlier).
		short := d.SaturationItems / float64(c.Items)
		memTime *= 1 + (short-1)*0.5
	}

	bd.Compute = compute
	bd.Memory = memTime
	// Roofline-style overlap: the device is limited by the slower of the
	// two pipelines, plus a small serial fraction of the faster one.
	const serialFraction = 0.15
	if compute >= memTime {
		bd.Kernel = compute + serialFraction*memTime
	} else {
		bd.Kernel = memTime + serialFraction*compute
	}

	// --- transfers ---
	if !opts.IgnoreTransfers && !d.IsHost() {
		share := opts.LinkShare
		if share < 1 {
			share = 1
		}
		moved := float64(w.TransferIn + w.TransferOut)
		if moved > 0 {
			// Buffers stay resident across launches of an iterative
			// application, so link latency is paid once per direction.
			bd.Transfer = moved/(d.LinkBandwidth/share) + 2*d.LinkLatencySec
		}
	}

	// --- fixed overheads ---
	bd.Overhead = d.LaunchOverheadSec * float64(launches)

	bd.Total = bd.Kernel + bd.Transfer + bd.Overhead
	return bd
}

// Makespan returns the simulated completion time of a partitioned launch:
// all devices run concurrently, so the makespan is the maximum of the
// per-device totals. works must be indexed like plat.Devices; devices with
// zero items contribute nothing. Shared-link platforms divide transfer
// bandwidth among the discrete devices that actually move data. The
// breakdowns go into dst, reused when its capacity suffices (nil for a
// fresh one), so the oracle search prices candidates without allocating.
func Makespan(dst []Breakdown, plat *device.Platform, works []Work, opts Options) (float64, []Breakdown, error) {
	if len(works) != len(plat.Devices) {
		return 0, nil, fmt.Errorf("sim: %d works for %d devices", len(works), len(plat.Devices))
	}
	linkUsers := 0
	if plat.LinkShared {
		for i, w := range works {
			if !plat.Devices[i].IsHost() && w.Counts.Items > 0 && (w.TransferIn+w.TransferOut) > 0 {
				linkUsers++
			}
		}
	}
	var breakdowns []Breakdown
	if cap(dst) >= len(works) {
		breakdowns = dst[:len(works)]
	} else {
		breakdowns = make([]Breakdown, len(works))
	}
	var makespan float64
	for i, w := range works {
		o := opts
		if linkUsers > 1 {
			o.LinkShare = float64(linkUsers)
		}
		bd := DeviceTime(plat.Devices[i], w, o)
		breakdowns[i] = bd
		if bd.Total > makespan {
			makespan = bd.Total
		}
	}
	return makespan, breakdowns, nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
