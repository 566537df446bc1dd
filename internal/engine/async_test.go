package engine

import (
	"context"
	"testing"
	"time"
)

// TestExecuteDoesNotWaitForObservationAppend pins the async acceptance
// criterion: /execute latency no longer includes the observation append.
// The flusher is gated shut, yet Execute returns — the record is only
// pending, nothing has touched the log.
func TestExecuteDoesNotWaitForObservationAppend(t *testing.T) {
	opts, log := adaptiveOpts(t)
	gate := make(chan struct{})
	opts.obsGate = gate
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
	// The response is out; the observation is queued, not durable.
	if st := log.Stats(); st.Total != 0 {
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
	if st := log.Stats(); st.Total != 1 || st.Labeled != 1 {
		t.Fatalf("flushed log: %+v", st)
	}
	if s := eng.Stats(); s.Observations != 1 || s.ObservationsPending != 0 {
		t.Fatalf("stats after flush: %+v", s)
	}
}

// TestObservationOverloadShedsAndCounts: with a tiny ring and a stalled
// flusher, excess executions shed their observations (counted, never
// blocking the response); every execution is either recorded or counted
// dropped — none vanish.
func TestObservationOverloadShedsAndCounts(t *testing.T) {
	opts, log := adaptiveOpts(t)
	gate := make(chan struct{})
	opts.obsGate = gate
	opts.obsRing = 2
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const executes = 10
	for i := 0; i < executes; i++ {
		if _, err := eng.Execute(context.Background(), Request{Program: "vecadd", SizeIdx: 0}); err != nil {
			t.Fatal(err)
		}
	}
	// The stalled flusher holds at most one popped record; the ring holds
	// two more. Everything else must have been shed.
	if s := eng.Stats(); s.ObservationsDropped < executes-3 || s.ObservationsDropped >= executes {
		t.Fatalf("dropped = %d with ring cap 2, want within [%d, %d)", s.ObservationsDropped, executes-3, executes)
	}

	close(gate)
	eng.FlushObservations()
	s := eng.Stats()
	if s.Observations+s.ObservationsDropped != executes {
		t.Fatalf("recorded %d + dropped %d != executed %d", s.Observations, s.ObservationsDropped, executes)
	}
	if st := log.Stats(); st.Total != s.Observations {
		t.Fatalf("log holds %d, stats claim %d", st.Total, s.Observations)
	}
}

// TestEngineCloseFlushesObservations: Close performs the final drain, so
// everything enqueued by completed Execute calls is durable afterwards —
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
	if st := log.Stats(); st.Total != executes {
		t.Fatalf("log after Close: %+v, want %d records", st, executes)
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
// count records the log accepted. Against a closed log every execution is
// an ObserveFailure and none is an observation, labeled or not.
func TestFailedAppendsAreNotObserved(t *testing.T) {
	opts, log := adaptiveOpts(t)
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	const n = 3
	for range n {
		mustExecute(t, eng, Request{Program: "vecadd", SizeIdx: 0})
	}
	eng.FlushObservations()
	if st := eng.Stats(); st.Observations != 0 || st.ObservationsLabeled != 0 || st.ObserveFailures != n {
		t.Fatalf("%d observations, %d labeled, %d failures against a closed log; want 0, 0 and %d",
			st.Observations, st.ObservationsLabeled, st.ObserveFailures, n)
	}
}

// TestOracleSampleEveryCountsDequeues: with OracleSampleEvery 3, the
// first of every three dequeued executions is labeled.
func TestOracleSampleEveryCountsDequeues(t *testing.T) {
	opts, log := adaptiveOpts(t)
	opts.OracleSampleEvery = 3
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for range 7 {
		mustExecute(t, eng, Request{Program: "vecadd", SizeIdx: 0})
	}
	for i, o := range observed(t, eng, log) {
		if o.Labeled != (i%3 == 0) {
			t.Fatalf("observation %d labeled %v", i, o.Labeled)
		}
	}
	if st := eng.Stats(); st.Observations != 7 || st.ObservationsLabeled != 3 {
		t.Fatalf("%d observations, %d labeled; want 7 and 3", st.Observations, st.ObservationsLabeled)
	}
}
