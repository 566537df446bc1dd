package engine

import (
	"context"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// sameBits reports whether two float64 slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// measure runs a cell's launch, on a fresh instance, under the served
// class's partitioning with the measuring Runtime.Execute.
func measure(t *testing.T, eng *Engine, program string, size, class int) *runtime.Result {
	t.Helper()
	pe, err := eng.program(program)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := pe.bench.Instance(size)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.fw.Runtime.Execute(eng.launch(pe, inst), eng.fw.ClassPartition(class))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// observed flushes the engine's observations and returns them in order.
func observed(t *testing.T, eng *Engine, log *obs.Log) []obs.Observation {
	t.Helper()
	eng.FlushObservations()
	snap, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestPriceTableMatchesExecute: for every built-in at sizes 0-1 on both
// platforms, the first execution (the self-check, measured) and a warm
// one (priced from the table) answer the makespan /predict priced, which
// is bit for bit what Runtime.Execute measures on the same launch and
// partitioning; both observations carry Runtime.Execute's per-device
// times; the vector-tier counters in Stats add up to what the measured
// runs count; and no execution disagrees with the table.
func TestPriceTableMatchesExecute(t *testing.T) {
	var divergences atomic.Uint64
	t.Run("cells", func(t *testing.T) {
		for _, platform := range []string{"mc1", "mc2"} {
			for _, bp := range bench.All() {
				t.Run(platform+"/"+bp.Name, func(t *testing.T) {
					t.Parallel()
					opts, log := adaptiveOpts(t)
					opts.Platform = platform
					eng, err := New(opts)
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Close()
					var wantDiv, wantRec, wantBail uint64
					for sz := 0; sz <= 1 && sz < len(bp.Sizes); sz++ {
						req := Request{Program: bp.Name, SizeIdx: sz}
						first := mustExecute(t, eng, req)
						warm := mustExecute(t, eng, req)
						res := measure(t, eng, bp.Name, sz, warm.Class)
						for _, x := range []*Execution{first, warm} {
							if math.Float64bits(x.Makespan) != math.Float64bits(x.PredictedTime) ||
								math.Float64bits(x.Makespan) != math.Float64bits(res.Makespan) {
								t.Fatalf("size %d: makespan %v, predicted %v, Runtime.Execute %v", sz, x.Makespan, x.PredictedTime, res.Makespan)
							}
						}
						for _, o := range observed(t, eng, log)[2*sz:] {
							if !sameBits(o.DeviceTimes, deviceTotals(res.Breakdowns)) {
								t.Fatalf("size %d: observed device times %v, Runtime.Execute %v", sz, o.DeviceTimes, deviceTotals(res.Breakdowns))
							}
						}
						p := res.Profile
						wantDiv += 2 * uint64(p.VecDivergences)
						wantRec += 2 * uint64(p.VecReconverges)
						wantBail += 2 * uint64(p.VecScalarBails)
					}
					st := eng.Stats()
					if st.VecDivergences != wantDiv || st.VecReconverges != wantRec || st.VecScalarBails != wantBail {
						t.Fatalf("divergences/reconverges/bails %d/%d/%d, measured runs count %d/%d/%d",
							st.VecDivergences, st.VecReconverges, st.VecScalarBails, wantDiv, wantRec, wantBail)
					}
					if st.MakespanMismatches != 0 {
						t.Fatalf("%d makespan mismatches", st.MakespanMismatches)
					}
					divergences.Add(wantDiv)
				})
			}
		}
	})
	if divergences.Load() == 0 {
		t.Fatal("no built-in diverged: the vector-tier counters went unchecked")
	}
}

// TestMakespanMismatchAnsweredAsMeasured breaks the byte-identity premise
// by hand: one bucket of a cell's cached profile is perturbed before the
// cell first executes, so its price table no longer prices what the
// kernel does. The self-check must notice, answer (and observe) what it
// measured, count the mismatch, and measure again next time.
func TestMakespanMismatchAnsweredAsMeasured(t *testing.T) {
	opts, log := adaptiveOpts(t)
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	req := Request{Program: "matmul", SizeIdx: 1}
	pred, err := eng.Predict(req)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := eng.program(req.Program)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := eng.featuresFor(context.Background(), pe, req.SizeIdx)
	if err != nil {
		t.Fatal(err)
	}
	bent := &exec.Profile{Global0: fe.prof.Global0, Buckets: slices.Clone(fe.prof.Buckets)}
	bent.Buckets[0].IntOps += 1e9
	bent.Precompute()
	fe.prof = bent

	res := measure(t, eng, req.Program, req.SizeIdx, pred.Class)
	if math.Float64bits(res.Makespan) != math.Float64bits(pred.PredictedTime) {
		t.Fatalf("Runtime.Execute %v, predicted on the intact profile %v", res.Makespan, pred.PredictedTime)
	}
	for i := uint64(1); i <= 2; i++ {
		x := mustExecute(t, eng, req)
		price, err := eng.priceOf(fe, x.Class)
		if err != nil {
			t.Fatal(err)
		}
		if price.makespan == res.Makespan {
			t.Fatal("the perturbed bucket did not move the price")
		}
		if x.Makespan != res.Makespan || x.PredictedTime != price.makespan {
			t.Fatalf("execution %d: makespan %v, predicted %v; want the measured %v and the table's %v",
				i, x.Makespan, x.PredictedTime, res.Makespan, price.makespan)
		}
		if st := eng.Stats(); st.MakespanMismatches != i || price.checked.Load() {
			t.Fatalf("execution %d: %d mismatches, checked %v; want %d and false", i, st.MakespanMismatches, price.checked.Load(), i)
		}
	}
	for _, o := range observed(t, eng, log) {
		if o.Makespan != res.Makespan || !sameBits(o.DeviceTimes, deviceTotals(res.Breakdowns)) {
			t.Fatalf("observed makespan %v, device times %v; measured %v, %v",
				o.Makespan, o.DeviceTimes, res.Makespan, deviceTotals(res.Breakdowns))
		}
	}
}
