package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestExecuteDoesNotWaitForObservationAppend pins the async acceptance
// criterion: /execute latency never includes an observation append. The
// flusher is held shut, yet Execute returns — the execution is only
// counted and its cell only queued for labeling, nothing has touched the
// log.
func TestExecuteDoesNotWaitForObservationAppend(t *testing.T) {
	opts, log := adaptiveOpts(t)
	gate := make(chan struct{})
	opts.beforeAppend = func() error { <-gate; return nil }
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ex, err := eng.Execute(context.Background(), Request{Program: "vecadd", SizeIdx: 0})
	if err != nil {
		t.Fatal(err) // would deadlock here if the append were inline
	}
	if !ex.Verified {
		t.Fatalf("execution failed verification: %s", ex.VerifyError)
	}
	// The response is out; the execution is counted, not durable.
	if st := log.Stats(); st.Labeled != 0 || st.Executions != 0 {
		t.Fatalf("observation reached the log before the flusher ran: %+v", st)
	}
	if s := eng.Stats(); s.Observations != 0 || s.ObservationsPending != 1 {
		t.Fatalf("stats before release: %+v", s)
	}

	// A bounded flush against the stalled flusher gives up instead of
	// blocking (this keeps /observations responsive on a hung log).
	if eng.TryFlushObservations(10 * time.Millisecond) {
		t.Fatal("TryFlushObservations claimed to drain past a closed gate")
	}

	close(gate)
	eng.FlushObservations()
	if !eng.TryFlushObservations(time.Second) {
		t.Fatal("TryFlushObservations failed on a drained queue")
	}
	if st := log.Stats(); st.Labeled != 1 || st.Executions != 1 {
		t.Fatalf("flushed log: %+v", st)
	}
	if s := eng.Stats(); s.Observations != 1 || s.ObservationsLabeled != 1 || s.ObservationsPending != 0 {
		t.Fatalf("stats after flush: %+v", s)
	}
}

// TestObservationOverloadShedsAndCounts: a stalled flusher sheds nothing
// — every execution is counted and pending, however many arrive, and the
// flush after the stall records each exactly once. The only shedding left
// is at shutdown: what Close's final flush cannot write is counted in
// ObservationsDropped, so every execution is either recorded or counted
// dropped, and none vanish.
func TestObservationOverloadShedsAndCounts(t *testing.T) {
	opts, log := adaptiveOpts(t)
	gate := make(chan struct{})
	var refuse atomic.Bool
	opts.beforeAppend = func() error {
		<-gate
		if refuse.Load() {
			return errors.New("disk full")
		}
		return nil
	}
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const executes = 10
	for i := 0; i < executes; i++ {
		mustExecute(t, eng, Request{Program: "vecadd", SizeIdx: 0})
	}
	if s := eng.Stats(); s.ObservationsDropped != 0 || s.ObservationsPending != executes {
		t.Fatalf("stalled flusher: %d dropped, %d pending; want 0 and %d", s.ObservationsDropped, s.ObservationsPending, executes)
	}

	close(gate)
	eng.FlushObservations()
	s := eng.Stats()
	if s.Observations != executes || s.ObservationsDropped != 0 || s.ObservationsPending != 0 {
		t.Fatalf("after the stall: %+v, want %d recorded", s, executes)
	}
	if st := log.Stats(); st.Executions != executes || st.Labeled != 1 {
		t.Fatalf("log holds %+v, want %d executions and 1 label", st, executes)
	}

	// The log refuses from here on: the next executions stay pending, and
	// Close sheds them, counted.
	refuse.Store(true)
	const shed = 4
	for i := 0; i < shed; i++ {
		mustExecute(t, eng, Request{Program: "vecadd", SizeIdx: 0})
	}
	eng.Close()
	s = eng.Stats()
	if s.Observations != executes || s.ObservationsDropped != shed || s.ObservationsPending != 0 {
		t.Fatalf("after Close: %d recorded, %d dropped, %d pending; want %d, %d and 0",
			s.Observations, s.ObservationsDropped, s.ObservationsPending, executes, shed)
	}
	if s.Observations+s.ObservationsDropped != executes+shed {
		t.Fatalf("recorded %d + dropped %d != executed %d", s.Observations, s.ObservationsDropped, executes+shed)
	}
	if st := log.Stats(); st.Executions != s.Observations {
		t.Fatalf("log holds %d executions, stats claim %d", st.Executions, s.Observations)
	}
}

// TestEngineCloseFlushesObservations: Close performs the final flush, so
// everything counted by completed Execute calls is durable afterwards —
// no explicit flush needed on the shutdown path.
func TestEngineCloseFlushesObservations(t *testing.T) {
	opts, log := adaptiveOpts(t)
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	const executes = 5
	for i := 0; i < executes; i++ {
		if _, err := eng.Execute(context.Background(), Request{Program: "matmul", SizeIdx: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if st := log.Stats(); st.Executions != executes || st.Labeled != 1 {
		t.Fatalf("log after Close: %+v, want %d executions and 1 label", st, executes)
	}
	if s := eng.Stats(); s.Observations != executes || s.ObservationsPending != 0 {
		t.Fatalf("stats after Close: %+v", s)
	}
}

// TestEnginePredictIntoZeroAllocs pins the serving acceptance criterion:
// a warm PredictInto performs zero heap allocations.
func TestEnginePredictIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	eng, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Program: "vecadd", SizeIdx: 1}
	var p Prediction
	if err := eng.PredictInto(req, &p); err != nil {
		t.Fatal(err) // warm every cache and pool
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := eng.PredictInto(req, &p); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm PredictInto allocates %.2f/op, want 0", avg)
	}
	// PredictInto answers exactly what Predict answers.
	q, err := eng.Predict(req)
	if err != nil {
		t.Fatal(err)
	}
	if *q != p {
		t.Fatalf("PredictInto %+v != Predict %+v", p, *q)
	}
}

// TestFailedAppendsAreNotObserved: Observations and ObservationsLabeled
// count what the log accepted. Against a closed log every flush fails
// (ObserveFailures), no execution is an observation and no cell a label;
// the executions stay pending, and Close, whose final flush fails too,
// counts them dropped.
func TestFailedAppendsAreNotObserved(t *testing.T) {
	opts, log := adaptiveOpts(t)
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	const n = 3
	for range n {
		mustExecute(t, eng, Request{Program: "vecadd", SizeIdx: 0})
	}
	eng.FlushObservations()
	if st := eng.Stats(); st.Observations != 0 || st.ObservationsLabeled != 0 || st.ObserveFailures == 0 || st.ObservationsPending != n {
		t.Fatalf("%d observations, %d labeled, %d failures, %d pending against a closed log; want 0, 0, some and %d",
			st.Observations, st.ObservationsLabeled, st.ObserveFailures, st.ObservationsPending, n)
	}
	eng.Close()
	if st := eng.Stats(); st.ObservationsDropped != n || st.ObservationsPending != 0 {
		t.Fatalf("after Close: %d dropped, %d pending; want %d and 0", st.ObservationsDropped, st.ObservationsPending, n)
	}
}

// TestCountsSurviveFailedFlushAndCrash: a flush the log refuses keeps its
// counts for the next flush, which writes them exactly once; a crash
// between two flushes loses only what the second would have written.
// Each stage is read back by opening the log afresh, as a restarted
// process would.
func TestCountsSurviveFailedFlushAndCrash(t *testing.T) {
	dir := t.TempDir()
	opts, log := fastOpts(t), openLog(t, dir)
	opts.ObsLog = log
	var refuse atomic.Bool
	opts.beforeAppend = func() error {
		if refuse.Load() {
			return errors.New("disk full")
		}
		return nil
	}
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	replayed := func() obs.Stats {
		t.Helper()
		l, err := obs.Open(obs.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		return l.Stats()
	}
	run := func(n int) {
		for range n {
			mustExecute(t, eng, Request{Program: "vecadd", SizeIdx: 0})
			mustExecute(t, eng, Request{Program: "matmul", SizeIdx: 0})
		}
	}

	run(5)
	eng.FlushObservations()
	if st := replayed(); st.Executions != 10 || st.Labeled != 2 {
		t.Fatalf("after the first flush the log replays %+v, want 10 executions and 2 labels", st)
	}

	refuse.Store(true)
	run(7)
	eng.FlushObservations()
	if st := eng.Stats(); st.ObserveFailures == 0 || st.ObservationsPending != 14 || st.Observations != 10 {
		t.Fatalf("refused flush: %+v", st)
	}
	if st := replayed(); st.Executions != 10 {
		t.Fatalf("a refused flush reached the log: %+v", st)
	}

	refuse.Store(false)
	eng.FlushObservations()
	if st := replayed(); st.Executions != 24 || st.Labeled != 2 || st.CounterKeys != 2 {
		t.Fatalf("after the retry the log replays %+v, want 24 executions over 2 keys", st)
	}

	// Crash: what was flushed is all a restarted process reads. (The log
	// refuses appends meanwhile, so the background flush cannot write
	// these executions before the replay looks.)
	refuse.Store(true)
	run(3)
	if st := replayed(); st.Executions != 24 {
		t.Fatalf("unflushed executions reached the log: %+v", st)
	}
	refuse.Store(false)
	eng.FlushObservations()
	if st := replayed(); st.Executions != 30 || log.Stats().Executions != 30 || eng.Stats().Observations != 30 {
		t.Fatalf("after the last flush: replayed %+v, mirror %+v, engine %+v; want 30 everywhere", st, log.Stats(), eng.Stats())
	}
}

// TestObservationsPerCellNotPerRequest is the mechanism behind a serving
// process's flat memory: 10 000 executions over 4 cells, spread over two
// mc2 shards and one mc1 engine sharing a cell cache and a log, leave one
// label record per (cell, platform) in the log, a mirror whose size is
// what 4 executions per engine left, and counters that sum to exactly
// 10 000 — in the mirror and after a replay.
func TestObservationsPerCellNotPerRequest(t *testing.T) {
	dir := t.TempDir()
	opts, log := fastOpts(t), openLog(t, dir)
	opts.ObsLog = log
	cells := mustCellCache(t, "mc1", "mc2")
	opts.SharedCells = cells
	var engs []*Engine
	for _, platform := range []string{"mc2", "mc2", "mc1"} {
		o := opts
		o.Platform = platform
		eng, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		engs = append(engs, eng)
	}
	reqs := []Request{{Program: "vecadd", SizeIdx: 0}, {Program: "vecadd", SizeIdx: 1}, {Program: "saxpy", SizeIdx: 0}, {Program: "matmul", SizeIdx: 0}}
	flush := func() {
		for _, eng := range engs {
			eng.FlushObservations()
		}
	}
	// The race detector slows each execution about thirtyfold; it needs
	// the concurrent flushes, not the full count.
	total := 10000
	if raceEnabled {
		total = 1000
	}
	n := 0
	execute := func(upto int) {
		for ; n < upto; n++ {
			mustExecute(t, engs[n%len(engs)], reqs[(n/len(engs))%len(reqs)])
		}
	}
	execute(len(engs) * len(reqs))
	flush()
	small := log.Stats()
	if small.Cells != 8 || small.Labeled != 8 {
		t.Fatalf("after every engine served every cell once: %+v, want 8 labels (4 cells x 2 platforms)", small)
	}

	execute(total)
	flush()
	st := log.Stats()
	if st.Labeled != small.Labeled || st.Cells != small.Cells || st.CounterKeys != small.CounterKeys {
		t.Fatalf("the mirror grew with executions: %+v after %d, %+v after %d", small, len(engs)*len(reqs), st, total)
	}
	if st.Executions != uint64(total) {
		t.Fatalf("counters sum to %d, want %d", st.Executions, total)
	}
	var recorded uint64
	for _, eng := range engs {
		recorded += eng.Stats().Observations
	}
	if recorded != uint64(total) {
		t.Fatalf("engines recorded %d executions, want %d", recorded, total)
	}
	replay := openLog(t, dir)
	perPlatform := map[string]int{}
	snap, _ := replay.Snapshot()
	for _, o := range snap {
		perPlatform[o.Platform]++
	}
	if rs := replay.Stats(); rs.Labeled != 8 || rs.Executions != uint64(total) || perPlatform["mc1"] != 4 || perPlatform["mc2"] != 4 {
		t.Fatalf("replayed log: %+v, labels per platform %v; want 4 label records per platform and %d executions", rs, perPlatform, total)
	}
}

// TestOracleSampleEveryRejected: OracleSampleEvery is a no-op kept for
// old callers; 0 and 1 (every execution labeled, which is what labeling
// each cell once amounts to) are accepted, anything else is refused.
func TestOracleSampleEveryRejected(t *testing.T) {
	for _, every := range []int{0, 1} {
		opts := fastOpts(t)
		opts.OracleSampleEvery = every
		if _, err := New(opts); err != nil {
			t.Errorf("OracleSampleEvery %d: %v", every, err)
		}
	}
	for _, every := range []int{-1, 2, 3} {
		opts := fastOpts(t)
		opts.OracleSampleEvery = every
		if _, err := New(opts); err == nil {
			t.Errorf("OracleSampleEvery %d accepted", every)
		}
	}
}
