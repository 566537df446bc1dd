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

// mustCellCache builds a cell cache for the named platforms.
func mustCellCache(t testing.TB, platforms ...string) *CellCache {
	t.Helper()
	c, err := NewCellCache(platforms...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPriceTableMatchesExecute: for every built-in at sizes 0-1, an mc1
// and an mc2 engine share one cell cache and run concurrently. On each,
// the first execution (the self-check, measured) and a warm one (priced
// from the table) answer the makespan /predict priced, which is bit for
// bit what Runtime.Execute measures on the same launch and partitioning;
// both observations carry Runtime.Execute's per-device times; the
// vector-tier counters in Stats add up to what the measured runs count;
// no execution disagrees with its platform's table; and each (program,
// size) was profiled once between the two engines.
func TestPriceTableMatchesExecute(t *testing.T) {
	type program struct {
		cells    *CellCache
		computes atomic.Uint64
	}
	programs := map[string]*program{}
	for _, bp := range bench.All() {
		programs[bp.Name] = &program{cells: mustCellCache(t, "mc1", "mc2")}
	}
	var divergences atomic.Uint64
	t.Run("cells", func(t *testing.T) {
		for _, platform := range []string{"mc1", "mc2"} {
			for _, bp := range bench.All() {
				t.Run(platform+"/"+bp.Name, func(t *testing.T) {
					t.Parallel()
					opts, log := adaptiveOpts(t)
					opts.Platform = platform
					opts.SharedCells = programs[bp.Name].cells
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
					programs[bp.Name].computes.Add(st.FeatureComputes)
					divergences.Add(wantDiv)
				})
			}
		}
	})
	if divergences.Load() == 0 {
		t.Fatal("no built-in diverged: the vector-tier counters went unchecked")
	}
	for _, bp := range bench.All() {
		p := programs[bp.Name]
		if want := uint64(min(2, len(bp.Sizes))); p.computes.Load() != want || p.cells.Len() != int(want) {
			t.Errorf("%s: %d feature computes and %d cells over both platforms, want %d each", bp.Name, p.computes.Load(), p.cells.Len(), want)
		}
	}
}

// TestMakespanMismatchAnsweredAsMeasured breaks the byte-identity premise
// by hand on one platform of a shared cell: one bucket of the cell's
// cached profile is perturbed before the cell first executes there, so
// that platform's price table no longer prices what the kernel does. The
// self-check must notice, answer (and observe) what it measured, count
// the mismatch, and measure again next time. The other platform's (cell,
// class) is left alone: neither priced nor checked by those mismatches,
// priced on the intact profile and checked by its own first execution,
// which in turn checks nothing for the platform that mismatched.
func TestMakespanMismatchAnsweredAsMeasured(t *testing.T) {
	for _, order := range [][2]string{{"mc1", "mc2"}, {"mc2", "mc1"}} {
		t.Run("mismatch on "+order[0], func(t *testing.T) {
			cells := mustCellCache(t, "mc1", "mc2")
			var engs [2]*Engine
			var logs [2]*obs.Log
			for i, platform := range order {
				opts, log := adaptiveOpts(t)
				opts.Platform, opts.SharedCells = platform, cells
				eng, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				engs[i], logs[i] = eng, log
			}
			bad, good := engs[0], engs[1]
			req := Request{Program: "matmul", SizeIdx: 1}
			pred, err := bad.Predict(req)
			if err != nil {
				t.Fatal(err)
			}
			pe, err := bad.program(req.Program)
			if err != nil {
				t.Fatal(err)
			}
			fe, err := bad.cellFor(context.Background(), pe, req.SizeIdx)
			if err != nil {
				t.Fatal(err)
			}
			intact := fe.prof
			bent := &exec.Profile{Global0: intact.Global0, Buckets: slices.Clone(intact.Buckets)}
			bent.Buckets[0].IntOps += 1e9
			bent.Precompute()
			fe.prof = bent

			res := measure(t, bad, req.Program, req.SizeIdx, pred.Class)
			if math.Float64bits(res.Makespan) != math.Float64bits(pred.PredictedTime) {
				t.Fatalf("Runtime.Execute %v, predicted on the intact profile %v", res.Makespan, pred.PredictedTime)
			}
			var price *classPrice
			for i := uint64(1); i <= 2; i++ {
				x := mustExecute(t, bad, req)
				if price, err = bad.priceOf(fe, x.Class); err != nil {
					t.Fatal(err)
				}
				if price.makespan == res.Makespan {
					t.Fatal("the perturbed bucket did not move the price")
				}
				if x.Makespan != res.Makespan || x.PredictedTime != price.makespan {
					t.Fatalf("execution %d: makespan %v, predicted %v; want the measured %v and the table's %v",
						i, x.Makespan, x.PredictedTime, res.Makespan, price.makespan)
				}
				if st := bad.Stats(); st.MakespanMismatches != i || price.checked.Load() {
					t.Fatalf("execution %d: %d mismatches, checked %v; want %d and false", i, st.MakespanMismatches, price.checked.Load(), i)
				}
			}
			for _, o := range observed(t, bad, logs[0]) {
				if o.Makespan != res.Makespan || !sameBits(o.DeviceTimes, deviceTotals(res.Breakdowns)) {
					t.Fatalf("observed makespan %v, device times %v; measured %v, %v",
						o.Makespan, o.DeviceTimes, res.Makespan, deviceTotals(res.Breakdowns))
				}
			}
			for class := range good.fw.NumClasses() {
				if fe.prices[good.priceBase+class].Load() != nil {
					t.Fatalf("%s's mismatches priced %s's class %d", order[0], order[1], class)
				}
			}

			fe.prof = intact
			for i := 0; i < 2; i++ {
				x := mustExecute(t, good, req)
				want := measure(t, good, req.Program, req.SizeIdx, x.Class).Makespan
				if math.Float64bits(x.Makespan) != math.Float64bits(want) || math.Float64bits(x.PredictedTime) != math.Float64bits(want) {
					t.Fatalf("%s execution %d: makespan %v, predicted %v, Runtime.Execute %v", order[1], i, x.Makespan, x.PredictedTime, want)
				}
				gp, err := good.priceOf(fe, x.Class)
				if err != nil {
					t.Fatal(err)
				}
				if st := good.Stats(); st.MakespanMismatches != 0 || !gp.checked.Load() {
					t.Fatalf("%s execution %d: %d mismatches, checked %v; want 0 and true", order[1], i, st.MakespanMismatches, gp.checked.Load())
				}
			}
			if price.checked.Load() {
				t.Fatalf("%s's self-check checked %s's (cell, class)", order[1], order[0])
			}
			if x := mustExecute(t, bad, req); x.Makespan != res.Makespan || bad.Stats().MakespanMismatches != 3 {
				t.Fatalf("%s after %s checked: makespan %v, %d mismatches; want the measured %v and 3",
					order[0], order[1], x.Makespan, bad.Stats().MakespanMismatches, res.Makespan)
			}
			if n := bad.Stats().FeatureComputes + good.Stats().FeatureComputes; n != 1 || cells.Len() != 1 {
				t.Fatalf("%d feature computes and %d cells for one (program, size), want 1 and 1", n, cells.Len())
			}
		})
	}
}
