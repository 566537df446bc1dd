// Observation recording, per cell rather than per request. A cell's
// oracle label is a pure function of its cached profile, so each (cell,
// platform) is recorded once, at its first execution on the platform: the
// execution queues the cell, and the background flusher appends the
// cell's label, the row /predict and /execute answer from. Every execution
// only bumps an atomic counter keyed by (cell, class served, model
// version, left-out model, verified); the flusher writes one aggregate
// count record per key touched since its last flush, every
// obsFlushInterval and whenever FlushObservations, a retrain attempt or
// Close asks. Nothing on the response path prices, encodes or writes, and
// nothing it records grows with the number of requests served.
package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// obsFlushInterval is how often the background flusher writes the
// counters touched since its previous flush.
const obsFlushInterval = time.Second

// countKey is one execution counter of an engine.
type countKey struct {
	bench                 *bench.Program
	sizeIdx, class, model int
	leftOut, verified     bool
}

// countSlot is a counter: n executions counted, of which flushed are in
// the log. Only the flusher touches flushed.
type countSlot struct {
	n       atomic.Uint64
	flushed uint64
}

// labelJob is a cell waiting for its label record on the engine's
// platform: the cell, the execution that claimed it, and the device times
// that execution measured when they were not the label's (nil otherwise).
type labelJob struct {
	pe          *programEntry
	fe          *cell
	lb          *runtime.Label
	ex          Execution
	deviceTimes []float64
}

// recorder holds one engine's counters and pending labels, and runs its
// flusher.
type recorder struct {
	mu     sync.RWMutex // bumps hold it shared, the flusher exclusively
	counts map[countKey]*countSlot

	labelMu sync.Mutex
	labels  []labelJob

	kick       chan struct{} // capacity 1: "flush soon"
	stop, done chan struct{}
	// asked numbers flush requests; served is the newest request a
	// completed flush covers.
	asked, served atomic.Uint64
	closeOnce     sync.Once
}

// start launches the flusher goroutine.
func (r *recorder) start(e *Engine) {
	r.counts = map[countKey]*countSlot{}
	r.kick = make(chan struct{}, 1)
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go r.run(e)
}

// run is the flusher loop: flush on every tick and every kick, and once
// more on stop, so Close loses nothing that was counted.
func (r *recorder) run(e *Engine) {
	defer close(r.done)
	t := time.NewTicker(obsFlushInterval)
	defer t.Stop()
	for {
		stopping := false
		select {
		case <-r.stop:
			stopping = true
		case <-r.kick:
		case <-t.C:
		}
		asked := r.asked.Load()
		e.flushOnce()
		r.served.Store(asked)
		if stopping {
			return
		}
	}
}

// nudge asks the flusher to run soon. Never blocks.
func (r *recorder) nudge() {
	select {
	case r.kick <- struct{}{}:
	default: // a kick is already pending
	}
}

// record counts one execution and, if it is the cell's first on the
// engine's platform, queues the cell's label.
func (e *Engine) record(pe *programEntry, fe *cell, ex *Execution, deviceTimes []float64) {
	r := &e.obs
	k := countKey{bench: pe.bench, sizeIdx: ex.SizeIdx, class: ex.Class, model: ex.ModelVersion,
		leftOut: ex.LeftOut != "", verified: ex.Verified}
	r.mu.RLock()
	s := r.counts[k]
	if s != nil {
		s.n.Add(1)
	}
	r.mu.RUnlock()
	if s == nil {
		r.mu.Lock()
		if s = r.counts[k]; s == nil {
			s = new(countSlot)
			r.counts[k] = s
		}
		s.n.Add(1)
		r.mu.Unlock()
	}
	if fe.labeled[e.platSlot].CompareAndSwap(false, true) {
		r.labelMu.Lock()
		r.labels = append(r.labels, labelJob{pe: pe, fe: fe, lb: fe.labels[e.platSlot].Load(), ex: *ex, deviceTimes: deviceTimes})
		r.labelMu.Unlock()
		r.nudge()
	}
}

// flushOnce appends the pending labels and one count record per counter
// touched since the previous flush. What the log refuses stays pending
// for the next flush; a counter untouched since the previous flush is
// dropped, to be made again by its next execution.
func (e *Engine) flushOnce() {
	r := &e.obs
	r.labelMu.Lock()
	jobs := r.labels
	r.labels = nil
	r.labelMu.Unlock()
	var retry []labelJob
	for i := range jobs {
		if err := e.appendLabel(&jobs[i]); err != nil {
			e.stats.observeFails.Add(1)
			retry = append(retry, jobs[i])
			continue
		}
		e.stats.observedLabeled.Add(1)
	}
	if len(retry) > 0 {
		r.labelMu.Lock()
		r.labels = append(retry, r.labels...)
		r.labelMu.Unlock()
	}

	type touched struct {
		s *countSlot
		n uint64
	}
	var batch []obs.Count
	var slots []touched
	r.mu.Lock()
	for k, s := range r.counts {
		n := s.n.Load()
		if n == s.flushed {
			delete(r.counts, k)
			continue
		}
		batch = append(batch, obs.Count{N: n - s.flushed, CountKey: obs.CountKey{
			Platform: e.opts.Platform, Program: k.bench.Name, SizeIdx: k.sizeIdx, Class: k.class,
			ModelVersion: k.model, LeftOut: k.leftOut, Verified: k.verified,
		}})
		slots = append(slots, touched{s, n})
	}
	r.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	if err := e.appendCounts(batch); err != nil {
		e.stats.observeFails.Add(1)
		return
	}
	var sum uint64
	for _, t := range slots {
		sum += t.n - t.s.flushed
		t.s.flushed = t.n
	}
	e.stats.observations.Add(sum)
}

// appendLabel appends the cell's label on the engine's platform — exactly
// the oracle label the offline sweep produces — with the claiming
// execution's answer. Its device times, unless that execution measured
// them, are priced here, off the request path.
func (e *Engine) appendLabel(j *labelJob) error {
	if j.deviceTimes == nil {
		_, bds, err := e.fw.Runtime.Price(j.fe.launch, j.fe.prof, e.fw.ClassPartition(j.ex.Class))
		if err != nil {
			return err
		}
		j.deviceTimes = deviceTotals(bds)
	}
	o := obs.Observation{
		Time:         time.Now().UnixNano(),
		Platform:     e.opts.Platform,
		Program:      j.pe.bench.Name,
		Suite:        j.pe.bench.Suite,
		SizeIdx:      j.ex.SizeIdx,
		SizeLabel:    j.ex.SizeLabel,
		SizeN:        j.ex.SizeN,
		FeatureNames: j.fe.fv.Names,
		Features:     j.fe.fv.Values,
		Class:        j.ex.Class,
		Partition:    j.ex.Partition,
		Makespan:     j.ex.Makespan,
		DeviceTimes:  j.deviceTimes,
		Verified:     j.ex.Verified,

		Labeled:       true,
		BestClass:     j.lb.Best,
		BestPartition: e.spaceStrs[j.lb.Best],
		OracleTime:    j.lb.Times[j.lb.Best],
		CPUOnlyTime:   j.lb.Times[j.lb.CPUOnly],
		GPUOnlyTime:   j.lb.Times[j.lb.GPUOnly],
		Times:         j.lb.Times,
	}
	if err := e.beforeAppend(); err != nil {
		return err
	}
	_, err := e.opts.ObsLog.Append(o)
	return err
}

// appendCounts appends one flush's count records.
func (e *Engine) appendCounts(batch []obs.Count) error {
	if err := e.beforeAppend(); err != nil {
		return err
	}
	return e.opts.ObsLog.AppendCounts(batch)
}

// beforeAppend runs Options.beforeAppend.
func (e *Engine) beforeAppend() error {
	if e.opts.beforeAppend != nil {
		return e.opts.beforeAppend()
	}
	return nil
}

// pendingObservations reports how many executions are counted but not yet
// in the log (or dropped).
func (e *Engine) pendingObservations() uint64 {
	if e.opts.ObsLog == nil {
		return 0
	}
	done := e.stats.observations.Load() + e.stats.observeDropped.Load()
	if n := e.stats.executions.Load(); n > done {
		return n - done
	}
	return 0
}

// FlushObservations blocks until every execution counted before the call
// is durably recorded, and every cell labeled, or the flush failed
// (ObserveFailures counts it). It is the barrier between traffic and
// anything reading the log — Retrain calls it before snapshotting, tests
// call it before asserting on stats. A no-op without an observation log.
func (e *Engine) FlushObservations() {
	e.flushObservations(0)
}

// TryFlushObservations is FlushObservations with a deadline: it reports
// whether the flush completed within the timeout. Request handlers that
// only want read-your-writes freshness use this, so a stalled flusher
// (hung filesystem under the log, say) degrades them to slightly stale
// stats instead of blocking them forever.
func (e *Engine) TryFlushObservations(timeout time.Duration) bool {
	return e.flushObservations(timeout)
}

func (e *Engine) flushObservations(timeout time.Duration) bool {
	r := &e.obs
	if r.kick == nil {
		return true
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	want := r.asked.Add(1)
	r.nudge()
	for r.served.Load() < want {
		select {
		case <-r.done: // closed: its final flush covered everything
			return true
		default:
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// Close stops the observation flusher after a final flush: everything
// counted by Execute calls that returned before Close is durably
// recorded, or, if that flush fails, counted in ObservationsDropped.
// Safe to call multiple times and on engines without an observation log.
// Callers stop traffic first (the HTTP server drains in-flight requests
// before the engine closes).
func (e *Engine) Close() error {
	r := &e.obs
	if r.kick == nil {
		return nil
	}
	r.closeOnce.Do(func() {
		close(r.stop)
		<-r.done
		e.stats.observeDropped.Add(e.pendingObservations())
	})
	return nil
}
