package engine

import (
	"context"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/partition"
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

// observed flushes the engine's observations and returns the log's
// labels in order.
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
// two executions — among the four, the cell's profiling run, the
// self-check that measures and runs answered from the label — answer the
// makespan /predict priced, which is bit for bit what Runtime.Execute
// measures on the same launch and partitioning;
// the cell's label record carries Runtime.Execute's per-device times, and
// prices the served class at what Runtime.Execute measures; the
// vector-tier counters in Stats add up to what the measured runs count;
// no execution disagrees with its platform's label; and each (program,
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
						labels := observed(t, eng, log)
						if o := labels[len(labels)-1]; o.SizeIdx != sz || !sameBits(o.DeviceTimes, deviceTotals(res.Breakdowns)) ||
							math.Float64bits(o.Times[warm.Class]) != math.Float64bits(res.Makespan) {
							t.Fatalf("size %d: label of size %d has device times %v and prices class %d at %v; Runtime.Execute %v, %v",
								sz, o.SizeIdx, o.DeviceTimes, warm.Class, o.Times[warm.Class], deviceTotals(res.Breakdowns), res.Makespan)
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
// by hand on a cell shared by mc1 and mc2: one bucket of the cell's cached
// profile is perturbed after /predict profiled it and before it first
// executes, and the label /predict priced is dropped, so the profile no
// longer holds what the kernel counts and the labels priced on it no
// longer price it. The self-check must notice on either platform, answer
// (and record) what it measured, count the mismatch and leave the cell
// unchecked, so that the next execution measures again. Once the profile
// is restored and the labels priced on it again, one matching execution on
// the other platform checks the cell, and the first platform's next
// execution answers from its own label.
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
			fe, err := bad.cellFor(context.Background(), pe, req.SizeIdx, nil)
			if err != nil {
				t.Fatal(err)
			}
			intact := fe.prof
			bent := &exec.Profile{Global0: intact.Global0, Buckets: slices.Clone(intact.Buckets)}
			bent.Buckets[0].IntOps += 1e9
			fe.prof = bent
			fe.labels[bad.platSlot].Store(nil)

			res := measure(t, bad, req.Program, req.SizeIdx, pred.Class)
			if math.Float64bits(res.Makespan) != math.Float64bits(pred.PredictedTime) {
				t.Fatalf("Runtime.Execute %v, predicted on the intact profile %v", res.Makespan, pred.PredictedTime)
			}
			for i := uint64(1); i <= 2; i++ {
				x := mustExecute(t, bad, req)
				row := fe.labels[bad.platSlot].Load().Times[x.Class]
				if row == res.Makespan {
					t.Fatal("the perturbed bucket did not move the price")
				}
				if x.Makespan != res.Makespan || x.PredictedTime != row {
					t.Fatalf("execution %d: makespan %v, predicted %v; want the measured %v and the label's %v",
						i, x.Makespan, x.PredictedTime, res.Makespan, row)
				}
				if st := bad.Stats(); st.MakespanMismatches != i || fe.checked.Load() {
					t.Fatalf("execution %d: %d mismatches, checked %v; want %d and false", i, st.MakespanMismatches, fe.checked.Load(), i)
				}
			}
			if labels := observed(t, bad, logs[0]); len(labels) != 1 || labels[0].Makespan != res.Makespan ||
				!sameBits(labels[0].DeviceTimes, deviceTotals(res.Breakdowns)) {
				t.Fatalf("labels %+v; want one, carrying the measured makespan %v and device times %v",
					labels, res.Makespan, deviceTotals(res.Breakdowns))
			}
			x := mustExecute(t, good, req)
			want := measure(t, good, req.Program, req.SizeIdx, x.Class).Makespan
			if x.Makespan != want || good.Stats().MakespanMismatches != 1 || fe.checked.Load() {
				t.Fatalf("%s on the perturbed profile: makespan %v, %d mismatches, checked %v; want the measured %v, 1 and false",
					order[1], x.Makespan, good.Stats().MakespanMismatches, fe.checked.Load(), want)
			}

			good.FlushObservations() // its label record, priced on the perturbed profile
			fe.prof = intact
			for i := range fe.labels {
				fe.labels[i].Store(nil)
			}
			for i := 0; i < 2; i++ {
				x := mustExecute(t, good, req)
				if math.Float64bits(x.Makespan) != math.Float64bits(want) || math.Float64bits(x.PredictedTime) != math.Float64bits(want) {
					t.Fatalf("%s execution %d: makespan %v, predicted %v, Runtime.Execute %v", order[1], i, x.Makespan, x.PredictedTime, want)
				}
				if st := good.Stats(); st.MakespanMismatches != 1 || !fe.checked.Load() {
					t.Fatalf("%s execution %d: %d mismatches, checked %v; want 1 and true", order[1], i, st.MakespanMismatches, fe.checked.Load())
				}
			}
			if x := mustExecute(t, bad, req); x.Makespan != res.Makespan || bad.Stats().MakespanMismatches != 2 {
				t.Fatalf("%s after %s checked the cell: makespan %v, %d mismatches; want %v and 2",
					order[0], order[1], x.Makespan, bad.Stats().MakespanMismatches, res.Makespan)
			}
			if n := bad.Stats().FeatureComputes + good.Stats().FeatureComputes; n != 1 || cells.Len() != 1 {
				t.Fatalf("%d feature computes and %d cells for one (program, size), want 1 and 1", n, cells.Len())
			}
		})
	}
}

// TestServedRunReproducesProfile: for every built-in at sizes 0-1, on a
// cell shared by an mc1 and an mc2 engine, the 2-D launches included,
// every execution after the cell's first (its profiling run) reproduces
// the cached profile. The cell is put back on the measuring path before
// each of them, so each measures its profile and its class's price and
// compares both with the cell's; none mismatches. What a run counts does
// not depend on its class either: Runtime.Execute on the template's
// buffers profiles exactly the cached profile under CPU-only, GPU-only
// and an even split on both platforms.
func TestServedRunReproducesProfile(t *testing.T) {
	for _, bp := range bench.All() {
		t.Run(bp.Name, func(t *testing.T) {
			t.Parallel()
			cells := mustCellCache(t, "mc1", "mc2")
			var engs []*Engine
			for _, platform := range []string{"mc1", "mc2"} {
				eng, err := New(Options{Platform: platform, DB: testDB(t), Model: harness.FastModel(), SharedCells: cells})
				if err != nil {
					t.Fatal(err)
				}
				engs = append(engs, eng)
			}
			for sz := 0; sz <= 1 && sz < len(bp.Sizes); sz++ {
				req := Request{Program: bp.Name, SizeIdx: sz}
				mustExecute(t, engs[sz%2], req)
				pe, err := engs[0].program(bp.Name)
				if err != nil {
					t.Fatal(err)
				}
				fe, err := engs[0].cellFor(context.Background(), pe, sz, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					for _, eng := range engs {
						fe.checked.Store(false)
						if x := mustExecute(t, eng, req); !x.Verified || !fe.checked.Load() {
							t.Fatalf("%s size %d: verified %v, checked %v: the execution did not reproduce the cell's profile and price",
								eng.opts.Platform, sz, x.Verified, fe.checked.Load())
						}
					}
				}
				tmpl := fe.tmpl.Load()
				for _, eng := range engs {
					rt := eng.fw.Runtime
					for _, part := range []partition.Partition{rt.CPUOnly(), rt.GPUOnly(), {Shares: []int{4, 3, 3}}} {
						l := fe.launch
						l.Args = tmpl.acquire()
						res, err := rt.Execute(l, part)
						tmpl.release(l.Args)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(res.Profile.Buckets, fe.prof.Buckets) {
							t.Fatalf("%s size %d under %v: the profile differs from the cell's", eng.opts.Platform, sz, part)
						}
					}
				}
			}
			var computes uint64
			for _, eng := range engs {
				st := eng.Stats()
				if st.MakespanMismatches != 0 {
					t.Fatalf("%s: %d makespan mismatches", eng.opts.Platform, st.MakespanMismatches)
				}
				computes += st.FeatureComputes
			}
			if want := uint64(min(2, len(bp.Sizes))); computes != want {
				t.Fatalf("%d feature computes, want %d", computes, want)
			}
		})
	}
}

// TestProfileMismatchAloneIsCaught: the self-check compares profiles, not
// only prices. Two unequal buckets of a cell's cached profile are swapped
// and the cell's label priced again on it, which leaves every total — and
// so the CPU-only price, which prices the whole range on one device — as
// it was. A CPU-only execution then reproduces that price bit for bit but
// not the profile: it is counted as a mismatch and leaves the cell
// unchecked.
func TestProfileMismatchAloneIsCaught(t *testing.T) {
	eng, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Program: "spmv", SizeIdx: 1}
	if _, err := eng.Predict(req); err != nil {
		t.Fatal(err)
	}
	pe, err := eng.program(req.Program)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := eng.cellFor(context.Background(), pe, req.SizeIdx, nil)
	if err != nil {
		t.Fatal(err)
	}
	intact := fe.prof
	cpu := eng.fw.Runtime.CPUOnly()
	want, _, err := eng.fw.Runtime.Price(fe.launch, intact, cpu)
	if err != nil {
		t.Fatal(err)
	}
	swapped := &exec.Profile{Global0: intact.Global0, Buckets: slices.Clone(intact.Buckets)}
	last := len(swapped.Buckets) - 1
	i := slices.IndexFunc(swapped.Buckets, func(c exec.Counts) bool { return c != swapped.Buckets[last] })
	if i < 0 {
		t.Fatal("every bucket of the profile is the same: nothing to swap")
	}
	swapped.Buckets[i], swapped.Buckets[last] = swapped.Buckets[last], swapped.Buckets[i]
	fe.prof = swapped
	fe.labels[eng.platSlot].Store(nil)

	lb, err := eng.label(fe)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(lb.Times[lb.CPUOnly]) != math.Float64bits(want) {
		t.Fatalf("the swap moved the CPU-only price: %v, intact %v", lb.Times[lb.CPUOnly], want)
	}
	r := ran{makespan: lb.Times[lb.CPUOnly]}
	if err := eng.run(context.Background(), pe, fe, req.SizeIdx, lb.CPUOnly, &r); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(r.makespan) != math.Float64bits(want) || r.verifyErr != nil {
		t.Fatalf("makespan %v, verify error %v; want %v and none", r.makespan, r.verifyErr, want)
	}
	if st := eng.Stats(); st.MakespanMismatches != 1 || fe.checked.Load() {
		t.Fatalf("%d mismatches, checked %v; want 1 and false", st.MakespanMismatches, fe.checked.Load())
	}
}

// TestServedLabelIsTheSweepRecord: serving traffic and the offline sweep
// feed one training pipeline, so the label a serving process records for a
// cell must be the sweep's record of that cell. For every built-in at
// sizes 0-1, an mc1 and an mc2 engine sharing one cell cache and one
// observation log each execute the cell once; every label record in the
// log equals harness.Generate's record of the same (platform, program,
// size) bit for bit: candidate times, oracle class, partition and time,
// default strategies' times and features.
func TestServedLabelIsTheSweepRecord(t *testing.T) {
	db, err := harness.Generate(harness.GenOptions{MaxSizeIdx: 1})
	if err != nil {
		t.Fatal(err)
	}
	cells := mustCellCache(t, "mc1", "mc2")
	log := openLog(t, t.TempDir())
	for _, platform := range []string{"mc1", "mc2"} {
		eng, err := New(Options{Platform: platform, DB: testDB(t), Model: harness.FastModel(), SharedCells: cells, ObsLog: log})
		if err != nil {
			t.Fatal(err)
		}
		for _, bp := range bench.All() {
			for sz := 0; sz <= 1 && sz < len(bp.Sizes); sz++ {
				mustExecute(t, eng, Request{Program: bp.Name, SizeIdx: sz})
			}
		}
		eng.Close()
	}
	labels, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != len(db.Records) {
		t.Fatalf("%d label records, the sweep has %d records", len(labels), len(db.Records))
	}
	for _, o := range labels {
		rec := db.Find(o.Platform, o.Program, o.SizeIdx)
		if rec == nil {
			t.Fatalf("%s %s size %d: no sweep record", o.Platform, o.Program, o.SizeIdx)
		}
		if !sameBits(o.Times, rec.Times) || o.BestClass != rec.BestClass || o.BestPartition != rec.BestPartition ||
			!sameBits([]float64{o.OracleTime, o.CPUOnlyTime, o.GPUOnlyTime}, []float64{rec.OracleTime, rec.CPUOnlyTime, rec.GPUOnlyTime}) ||
			!slices.Equal(o.FeatureNames, rec.FeatureNames) || !sameBits(o.Features, rec.Features) {
			t.Fatalf("%s %s size %d: served label %+v\nsweep record %+v", o.Platform, o.Program, o.SizeIdx, o, *rec)
		}
	}
}
