package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/exec"
)

// TestDeviceTimeMonotonicInWork: strictly more work never takes less time.
func TestDeviceTimeMonotonicInWork(t *testing.T) {
	devs := []*device.Profile{
		device.MC1().Devices[0], device.MC1().Devices[1],
		device.MC2().Devices[0], device.MC2().Devices[1],
	}
	f := func(items16, ops8, extra8 uint16, devIdx uint8) bool {
		items := int64(items16)%100000 + 1000
		ops := int64(ops8)%500 + 1
		extra := int64(extra8)%500 + 1
		d := devs[int(devIdx)%len(devs)]
		base := Work{
			Counts: exec.Counts{
				Items: items, FloatOps: items * ops,
				GlobalLoads: items, GlobalStores: items,
				MaxItemOps: ops + 2,
			},
			Mix:        AccessMix{Coalesced: 1},
			TransferIn: items * 4, TransferOut: items * 4,
			Launches: 1,
		}
		more := base
		more.Counts.FloatOps += items * extra
		if more.Counts.MaxItemOps < ops+extra+2 {
			more.Counts.MaxItemOps = ops + extra + 2
		}
		t1 := DeviceTime(d, base, 1).Total
		t2 := DeviceTime(d, more, 1).Total
		return t2 >= t1*0.999999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDeviceTimeNonNegative: no parameter combination yields negative or
// NaN time components.
func TestDeviceTimeNonNegative(t *testing.T) {
	devs := device.MC2().Devices
	f := func(items32 uint32, fl, ld, st, br, ba uint16, devIdx uint8) bool {
		items := int64(items32 % 1e7)
		c := exec.Counts{
			Items:        items,
			FloatOps:     int64(fl) * items / 4,
			GlobalLoads:  int64(ld) * items / 8,
			GlobalStores: int64(st) * items / 8,
			Branches:     int64(br) * items / 8,
			Barriers:     int64(ba) * items / 64,
			MaxItemOps:   int64(fl) + 4,
		}
		w := Work{Counts: c, Mix: AccessMix{Coalesced: 0.5, Strided: 0.3, Indirect: 0.2},
			TransferIn: items, TransferOut: items, Launches: 3}
		bd := DeviceTime(devs[int(devIdx)%len(devs)], w, 1)
		for _, v := range []float64{bd.Compute, bd.Memory, bd.Kernel, bd.Transfer, bd.Overhead, bd.Total} {
			if v < 0 || v != v { // negative or NaN
				return false
			}
		}
		return bd.Total >= bd.Kernel
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMakespanDominatedByComponents: the makespan equals some device's
// total and is at least every device's total... (max semantics).
func TestMakespanMaxSemantics(t *testing.T) {
	plat := device.MC1()
	f := func(a, b, c uint16) bool {
		works := []Work{
			{Counts: exec.Counts{Items: int64(a) + 1, FloatOps: int64(a) * 1000, MaxItemOps: 1000}, Mix: AccessMix{Coalesced: 1}, Launches: 1},
			{Counts: exec.Counts{Items: int64(b) + 1, FloatOps: int64(b) * 1000, MaxItemOps: 1000}, Mix: AccessMix{Coalesced: 1}, TransferIn: int64(b) * 4, Launches: 1},
			{Counts: exec.Counts{Items: int64(c) + 1, FloatOps: int64(c) * 1000, MaxItemOps: 1000}, Mix: AccessMix{Coalesced: 1}, TransferIn: int64(c) * 4, Launches: 1},
		}
		ms, bds, err := Makespan(nil, plat, works)
		if err != nil {
			return false
		}
		found := false
		for _, bd := range bds {
			if bd.Total > ms {
				return false
			}
			if bd.Total == ms {
				found = true
			}
		}
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
