// Asynchronous observation recording: the serving half of the closed
// loop used to append (and oracle-label) observations inline with the
// /execute response, paying pricing and durable-write latency per
// request. Now Execute only pushes onto a bounded lock-free ring
// (sched.Ring) and a single background flusher drains it: labeling and
// the JSONL append happen entirely off the response path. A full ring
// sheds the observation (counted, never blocking), and shutdown flushes
// whatever is still queued.
package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
)

// pendingObs is one executed request waiting to be recorded.
type pendingObs struct {
	pe *programEntry
	ex Execution
	// deviceTimes are the execution's per-device busy times: the cell's
	// price-table entry for its class, shared and read-only, or those of
	// a measurement that disagreed with it.
	deviceTimes []float64
}

// obsQueue is the ring + flusher pair owned by one engine.
type obsQueue struct {
	ring   *sched.Ring[pendingObs]
	notify chan struct{} // capacity 1: "the ring may be non-empty"
	stop   chan struct{}
	done   chan struct{} // closed when the flusher has exited

	enqueued  atomic.Uint64 // successfully pushed
	processed atomic.Uint64 // dequeued and recorded (or counted failed)

	closeOnce sync.Once
}

// pending reports how many enqueued observations the flusher has not
// processed yet. Zero when the queue never started (no observation log).
func (q *obsQueue) pending() uint64 {
	e, p := q.enqueued.Load(), q.processed.Load()
	if e < p {
		return 0
	}
	return e - p
}

// start sizes the ring and launches the flusher goroutine.
func (q *obsQueue) start(e *Engine) {
	capacity := DefaultObsQueue
	if e.opts.obsRing > 0 {
		capacity = e.opts.obsRing
	}
	q.ring = sched.NewRing[pendingObs](capacity)
	q.notify = make(chan struct{}, 1)
	q.stop = make(chan struct{})
	q.done = make(chan struct{})
	go q.run(e)
}

// run is the flusher loop: sleep until nudged, then drain the ring. On
// stop it performs one final drain, so Close loses nothing that was
// enqueued.
func (q *obsQueue) run(e *Engine) {
	defer close(q.done)
	for {
		select {
		case <-q.stop:
			q.drain(e)
			return
		case <-q.notify:
			q.drain(e)
		}
	}
}

// drain processes everything currently in the ring.
func (q *obsQueue) drain(e *Engine) {
	for {
		po, ok := q.ring.TryPop()
		if !ok {
			return
		}
		if e.opts.obsGate != nil {
			<-e.opts.obsGate // test hook: hold the durable append back
		}
		if err := e.observe(po.pe, &po.ex, po.deviceTimes, q.processed.Load()); err != nil {
			e.stats.observeFails.Add(1)
		}
		q.processed.Add(1)
	}
}

// enqueueObservation hands one executed request to the flusher. Never
// blocks: a full ring drops the observation and counts the drop.
func (e *Engine) enqueueObservation(pe *programEntry, ex *Execution, deviceTimes []float64) {
	po := pendingObs{pe: pe, ex: *ex, deviceTimes: deviceTimes}
	if !e.obsq.ring.TryPush(po) {
		e.stats.observeDropped.Add(1)
		return
	}
	e.obsq.enqueued.Add(1)
	select {
	case e.obsq.notify <- struct{}{}:
	default: // a nudge is already pending
	}
}

// FlushObservations blocks until every observation enqueued before the
// call has been durably recorded (or counted as a failure). It is the
// barrier between traffic and anything reading the log — Retrain calls
// it before snapshotting, tests call it before asserting on stats.
// A no-op without an observation log.
func (e *Engine) FlushObservations() {
	e.flushObservations(0)
}

// TryFlushObservations is FlushObservations with a deadline: it reports
// whether the queue drained within the timeout. Request handlers that
// only want read-your-writes freshness use this, so a stalled flusher
// (hung filesystem under the log, say) degrades them to slightly stale
// stats instead of blocking them forever.
func (e *Engine) TryFlushObservations(timeout time.Duration) bool {
	return e.flushObservations(timeout)
}

func (e *Engine) flushObservations(timeout time.Duration) bool {
	q := &e.obsq
	if q.ring == nil {
		return true
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	target := q.enqueued.Load()
	for q.processed.Load() < target {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return false
		}
		select {
		case q.notify <- struct{}{}:
		default:
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// Close stops the observation flusher after a final drain: everything
// enqueued by Execute calls that returned before Close is durably
// recorded. Safe to call multiple times and on engines without an
// observation log. Callers stop traffic first (the HTTP server drains
// in-flight requests before the engine closes).
func (e *Engine) Close() error {
	q := &e.obsq
	if q.ring == nil {
		return nil
	}
	q.closeOnce.Do(func() {
		close(q.stop)
		<-q.done
	})
	return nil
}
