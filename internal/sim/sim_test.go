package sim

import (
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/exec"
)

// computeWork builds a compute-bound workload of n items with ops float
// operations per item.
func computeWork(items, opsPerItem int64) Work {
	return Work{
		Counts: exec.Counts{
			Items:      items,
			FloatOps:   items * opsPerItem,
			MaxItemOps: opsPerItem,
		},
		Mix:      AccessMix{Coalesced: 1},
		Launches: 1,
	}
}

// streamWork builds a memory-bound workload: loads+stores dominate.
func streamWork(items int64) Work {
	return Work{
		Counts: exec.Counts{
			Items:        items,
			FloatOps:     items,
			GlobalLoads:  2 * items,
			GlobalStores: items,
			MaxItemOps:   4,
		},
		Mix:         AccessMix{Coalesced: 1},
		TransferIn:  8 * items,
		TransferOut: 4 * items,
		Launches:    1,
	}
}

func TestZeroItemsZeroTime(t *testing.T) {
	d := device.MC2().Devices[0]
	bd := DeviceTime(d, Work{}, Options{})
	if bd.Total != 0 {
		t.Errorf("empty work cost %g, want 0", bd.Total)
	}
}

func TestComputeScalesWithWork(t *testing.T) {
	d := device.MC2().Devices[0]
	t1 := DeviceTime(d, computeWork(1e6, 100), Options{}).Total
	t2 := DeviceTime(d, computeWork(2e6, 100), Options{}).Total
	if t2 < 1.8*t1 || t2 > 2.2*t1 {
		t.Errorf("doubling work: %g -> %g, want ~2x", t1, t2)
	}
}

func TestCPUHasNoTransfer(t *testing.T) {
	mc2 := device.MC2()
	w := streamWork(1e6)
	cpu := DeviceTime(mc2.Devices[0], w, Options{})
	gpu := DeviceTime(mc2.Devices[1], w, Options{})
	if cpu.Transfer != 0 {
		t.Errorf("CPU transfer time %g, want 0", cpu.Transfer)
	}
	if gpu.Transfer <= 0 {
		t.Errorf("GPU transfer time %g, want > 0", gpu.Transfer)
	}
}

func TestIgnoreTransfersOption(t *testing.T) {
	gpu := device.MC2().Devices[1]
	w := streamWork(1e6)
	with := DeviceTime(gpu, w, Options{})
	without := DeviceTime(gpu, w, Options{IgnoreTransfers: true})
	if without.Total >= with.Total {
		t.Errorf("ignoring transfers did not reduce time: %g vs %g", without.Total, with.Total)
	}
	if without.Transfer != 0 {
		t.Error("IgnoreTransfers left transfer time")
	}
}

func TestTransferChangesStreamingWinner(t *testing.T) {
	// Streaming kernels: with transfers the CPU should win; pretending
	// data is resident flips the verdict to the GPU (the Gregg-Hazelwood
	// effect the paper controls for).
	mc2 := device.MC2()
	w := streamWork(4e6)
	cpu := DeviceTime(mc2.Devices[0], w, Options{}).Total
	gpuWith := DeviceTime(mc2.Devices[1], w, Options{}).Total
	gpuWithout := DeviceTime(mc2.Devices[1], w, Options{IgnoreTransfers: true}).Total
	if cpu >= gpuWith {
		t.Errorf("streaming with transfers: CPU %g should beat GPU %g", cpu, gpuWith)
	}
	if gpuWithout >= cpu {
		t.Errorf("streaming without transfers: GPU %g should beat CPU %g", gpuWithout, cpu)
	}
}

func TestComputeBoundGPUWinsWhenLarge(t *testing.T) {
	mc2 := device.MC2()
	w := computeWork(1e6, 500)
	w.TransferIn, w.TransferOut = 4e6, 4e6
	cpu := DeviceTime(mc2.Devices[0], w, Options{}).Total
	gpu := DeviceTime(mc2.Devices[1], w, Options{}).Total
	if gpu >= cpu {
		t.Errorf("large compute-bound work: GPU %g should beat CPU %g", gpu, cpu)
	}
}

func TestSmallSizeCPUWins(t *testing.T) {
	// Small problem: launch overhead + transfer latency + low occupancy
	// make the GPU lose even on compute-bound code.
	mc2 := device.MC2()
	w := computeWork(256, 500)
	w.TransferIn, w.TransferOut = 1024, 1024
	cpu := DeviceTime(mc2.Devices[0], w, Options{}).Total
	gpu := DeviceTime(mc2.Devices[1], w, Options{}).Total
	if cpu >= gpu {
		t.Errorf("small work: CPU %g should beat GPU %g", cpu, gpu)
	}
}

func TestDivergencePenalizesGPUOnly(t *testing.T) {
	mc2 := device.MC2()
	balanced := computeWork(1e6, 100)
	diverged := computeWork(1e6, 100)
	diverged.Counts.MaxItemOps = 1600 // 16x imbalance
	gpuB := DeviceTime(mc2.Devices[1], balanced, Options{IgnoreTransfers: true}).Total
	gpuD := DeviceTime(mc2.Devices[1], diverged, Options{IgnoreTransfers: true}).Total
	if gpuD <= gpuB {
		t.Errorf("divergence did not slow GPU: %g vs %g", gpuD, gpuB)
	}
	cpuB := DeviceTime(mc2.Devices[0], balanced, Options{}).Total
	cpuD := DeviceTime(mc2.Devices[0], diverged, Options{}).Total
	if cpuD != cpuB {
		t.Errorf("divergence changed CPU time: %g vs %g", cpuD, cpuB)
	}
}

func TestVLIWBranchPenalty(t *testing.T) {
	mc1gpu := device.MC1().Devices[1]
	mc2gpu := device.MC2().Devices[1]
	branchy := computeWork(1e6, 50)
	branchy.Counts.Branches = 20e6 // 40% branch density
	smooth := computeWork(1e6, 50)
	relative := func(d *device.Profile) float64 {
		b := DeviceTime(d, branchy, Options{IgnoreTransfers: true}).Total
		s := DeviceTime(d, smooth, Options{IgnoreTransfers: true}).Total
		return b / s
	}
	if relative(mc1gpu) <= relative(mc2gpu) {
		t.Errorf("branchy code should hurt the VLIW GPU more: mc1 %.2fx vs mc2 %.2fx",
			relative(mc1gpu), relative(mc2gpu))
	}
}

func TestOccupancyPenalty(t *testing.T) {
	gpu := device.MC2().Devices[1]
	// Same total ops split into fewer items: fewer-but-fatter items at
	// low occupancy should not be faster than the saturated version.
	small := computeWork(100, 10000)
	large := computeWork(1e6, 1)
	ts := DeviceTime(gpu, small, Options{IgnoreTransfers: true}).Total
	tl := DeviceTime(gpu, large, Options{IgnoreTransfers: true}).Total
	if ts <= tl {
		t.Errorf("underoccupied chunk not penalized: %g vs %g", ts, tl)
	}
}

func TestAccessMixSlowsStridedOnGPU(t *testing.T) {
	gpu := device.MC2().Devices[1]
	co := streamWork(1e6)
	st := streamWork(1e6)
	st.Mix = AccessMix{Strided: 1}
	tc := DeviceTime(gpu, co, Options{IgnoreTransfers: true}).Total
	ts := DeviceTime(gpu, st, Options{IgnoreTransfers: true}).Total
	if ts <= tc {
		t.Errorf("strided access not penalized: %g vs %g", ts, tc)
	}
}

func TestMixNormalize(t *testing.T) {
	m := AccessMix{}.Normalize()
	if m.Coalesced != 1 {
		t.Errorf("zero mix normalized to %+v, want coalesced 1", m)
	}
	m2 := AccessMix{Coalesced: 2, Strided: 2}.Normalize()
	if m2.Coalesced != 0.5 || m2.Strided != 0.5 {
		t.Errorf("normalize = %+v", m2)
	}
}

func TestMakespanIsMax(t *testing.T) {
	plat := device.MC2()
	works := []Work{computeWork(1e6, 100), computeWork(1e5, 100), {}}
	ms, bds, err := Makespan(nil, plat, works, Options{IgnoreTransfers: true})
	if err != nil {
		t.Fatal(err)
	}
	maxT := 0.0
	for _, bd := range bds {
		if bd.Total > maxT {
			maxT = bd.Total
		}
	}
	if ms != maxT {
		t.Errorf("makespan %g != max breakdown %g", ms, maxT)
	}
	if bds[2].Total != 0 {
		t.Error("idle device has nonzero time")
	}
}

func TestMakespanLinkSharing(t *testing.T) {
	plat := device.MC2()
	one := []Work{{}, streamWork(2e6), {}}
	two := []Work{{}, streamWork(2e6), streamWork(2e6)}
	_, bd1, err := Makespan(nil, plat, one, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, bd2, err := Makespan(nil, plat, two, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bd2[1].Transfer <= bd1[1].Transfer {
		t.Errorf("shared link did not slow concurrent transfers: %g vs %g",
			bd2[1].Transfer, bd1[1].Transfer)
	}
}

func TestMakespanArityError(t *testing.T) {
	if _, _, err := Makespan(nil, device.MC2(), []Work{{}}, Options{}); err == nil {
		t.Error("want works/devices arity error")
	}
}

func TestBreakdownConsistency(t *testing.T) {
	gpu := device.MC2().Devices[1]
	w := streamWork(1e6)
	bd := DeviceTime(gpu, w, Options{})
	if bd.Total != bd.Kernel+bd.Transfer+bd.Overhead {
		t.Errorf("Total %g != Kernel %g + Transfer %g + Overhead %g",
			bd.Total, bd.Kernel, bd.Transfer, bd.Overhead)
	}
	if bd.Kernel < bd.Compute && bd.Kernel < bd.Memory {
		t.Error("Kernel below both pipelines")
	}
}

func TestLaunchesScaleOverheadNotTransfer(t *testing.T) {
	gpu := device.MC2().Devices[1]
	w1 := computeWork(1e6, 100)
	w1.TransferIn = 4e6
	w10 := w1
	w10.Launches = 10
	bd1 := DeviceTime(gpu, w1, Options{})
	bd10 := DeviceTime(gpu, w10, Options{})
	if bd10.Overhead <= bd1.Overhead {
		t.Error("launch overhead must scale with launches")
	}
	// Transfer bytes are charged once (resident buffers); only per-launch
	// latency grows.
	if bd10.Transfer >= 10*bd1.Transfer {
		t.Error("transfers should not scale linearly with launches")
	}
}

// TestMakespanIntoMatchesMakespan checks Makespan on breakdowns handed
// back in against Makespan on fresh ones, including breakdown contents and
// stale-state clearing across reuses.
func TestMakespanIntoMatchesMakespan(t *testing.T) {
	plat := device.MC2()
	mkWorks := func(seed int64) []Work {
		works := make([]Work, len(plat.Devices))
		for i := range works {
			works[i] = Work{
				Counts: exec.Counts{
					Items: int64(1000 * (i + 1)), IntOps: 5000, FloatOps: 20000 + seed,
					GlobalLoads: 30000, GlobalStores: 10000, Branches: 2000, MaxItemOps: 60,
				},
				Mix:        AccessMix{Coalesced: 1},
				TransferIn: 1 << 20, TransferOut: 1 << 18, Launches: 1,
			}
		}
		return works
	}
	var scratch []Breakdown
	for seed := int64(0); seed < 3; seed++ {
		works := mkWorks(seed)
		wantT, wantB, err := Makespan(nil, plat, works, Options{})
		if err != nil {
			t.Fatal(err)
		}
		gotT, gotB, err := Makespan(scratch, plat, works, Options{})
		if err != nil {
			t.Fatal(err)
		}
		scratch = gotB
		if gotT != wantT || !reflect.DeepEqual(gotB, wantB) {
			t.Fatalf("seed %d: reused storage (%v, %+v) != fresh storage (%v, %+v)", seed, gotT, gotB, wantT, wantB)
		}
	}
}
