// Package partition defines the discretized task-partitioning space of the
// paper: the dim-0 iteration range of a kernel is split into contiguous
// chunks, one per device, with per-device shares drawn from a grid with a
// 10% step size (Section 2.1: "p is selected from a discretized
// partitioning space with a stepsize of 10%").
package partition

import (
	"strconv"
	"strings"
	"sync"
)

// DefaultSteps is the number of share units: 10 units of 10% each.
const DefaultSteps = 10

// Partition assigns each device an integer number of share units.
// Shares[i] units out of Steps() go to device i; the units map to
// contiguous dim-0 chunks in device order.
type Partition struct {
	Shares []int
}

// Steps returns the total number of share units of the partition.
func (p Partition) Steps() int {
	s := 0
	for _, v := range p.Shares {
		s += v
	}
	return s
}

// IsSingle reports whether the whole range goes to one device, returning
// its index.
func (p Partition) IsSingle() (int, bool) {
	idx := -1
	for i, v := range p.Shares {
		if v > 0 {
			if idx >= 0 {
				return -1, false
			}
			idx = i
		}
	}
	return idx, idx >= 0
}

// String renders the partition as "50/30/20".
func (p Partition) String() string {
	steps := p.Steps()
	parts := make([]string, len(p.Shares))
	for i, v := range p.Shares {
		pct := 0
		if steps > 0 {
			pct = v * 100 / steps
		}
		parts[i] = strconv.Itoa(pct)
	}
	return strings.Join(parts, "/")
}

// Single returns the partition giving everything to device idx.
func Single(nDevices, idx int) Partition {
	shares := make([]int, nDevices)
	shares[idx] = DefaultSteps
	return Partition{Shares: shares}
}

// Space enumerates every partition of steps share units over nDevices
// devices (all weak compositions), in deterministic lexicographic order.
// With 3 devices and 10 steps this yields 66 candidate partitionings.
func Space(nDevices, steps int) []Partition {
	if nDevices <= 0 || steps <= 0 {
		return nil
	}
	var out []Partition
	shares := make([]int, nDevices)
	var rec func(dev, left int)
	rec = func(dev, left int) {
		if dev == nDevices-1 {
			shares[dev] = left
			out = append(out, Partition{Shares: append([]int(nil), shares...)})
			return
		}
		for v := 0; v <= left; v++ {
			shares[dev] = v
			rec(dev+1, left-v)
		}
	}
	rec(0, steps)
	return out
}

// spaceCache memoizes Space per (devices, steps): the enumeration is
// re-requested for every oracle search and every training cell, and the
// grid never changes within a process.
var spaceCache sync.Map // spaceKey -> []Partition

type spaceKey struct{ devices, steps int }

// SharedSpace returns the memoized canonical enumeration of
// Space(nDevices, steps). The slice and the partitions it holds are shared
// by every caller in the process and must be treated as read-only; callers
// that need to mutate the enumeration should call Space instead.
func SharedSpace(nDevices, steps int) []Partition {
	key := spaceKey{nDevices, steps}
	if v, ok := spaceCache.Load(key); ok {
		return v.([]Partition)
	}
	v, _ := spaceCache.LoadOrStore(key, Space(nDevices, steps))
	return v.([]Partition)
}

// ChunksInto maps the partition onto dim-0 range [0, global0), aligning
// chunk boundaries down to multiples of align (the work-group size).
// Devices with zero shares get empty chunks. The chunks exactly tile the
// range: chunk[i] = [start_i, end_i) with end_i == start_{i+1}. Rounding
// may give the last active device slightly more or less than its nominal
// share. dst is reused when its capacity suffices, so hot pricing loops
// (the oracle search) compute chunk layouts without allocating per
// candidate.
func (p Partition) ChunksInto(dst [][2]int, global0, align int) [][2]int {
	if align <= 0 {
		align = 1
	}
	steps := p.Steps()
	var out [][2]int
	if cap(dst) >= len(p.Shares) {
		out = dst[:len(p.Shares)]
	} else {
		out = make([][2]int, len(p.Shares))
	}
	if steps == 0 || global0 == 0 {
		clear(out)
		return out
	}
	cum := 0
	prevEnd := 0
	for i, v := range p.Shares {
		cum += v
		end := global0 * cum / steps
		end = end / align * align
		if cum == steps {
			end = global0
		}
		if end < prevEnd {
			end = prevEnd
		}
		out[i] = [2]int{prevEnd, end}
		prevEnd = end
	}
	return out
}
