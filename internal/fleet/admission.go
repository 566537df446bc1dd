package fleet

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
)

// Admission control: every shard gates its request flow through a
// bounded accept queue and a moving p99-latency estimate. The queue
// bound turns overload into fast 429s instead of unbounded goroutine
// pileup; the p99 gate sheds *queued* waiting before it forms, keeping
// admitted-request latency near the target while excess load bounces
// with Retry-After.

// AdmissionConfig bounds one shard's accept path. The zero value admits
// everything (counting only), which keeps single-tenant dev setups
// friction-free.
type AdmissionConfig struct {
	// MaxInflight caps concurrently admitted requests. 0 = unlimited
	// (but see TargetP99).
	MaxInflight int
	// MaxQueue caps requests waiting for an inflight slot; arrivals
	// beyond MaxInflight+MaxQueue shed immediately.
	MaxQueue int
	// TargetP99 is the moving p99 latency target. While the estimate
	// exceeds it, queueing is disabled: a request is admitted only if an
	// inflight slot is immediately free, so waiting never stacks on top
	// of an already-blown tail. Admitted traffic keeps feeding the
	// estimator, letting the estimate recover as load drops. 0 disables
	// the latency gate. Requires an inflight cap; when MaxInflight is 0
	// a default of 4 x GOMAXPROCS is applied.
	TargetP99 time.Duration
}

// shedRetryAfter is the backoff hint every ShedError carries.
const shedRetryAfter = time.Second

// ShedError reports a request rejected by admission control. The
// serving layer maps it to 429 with a Retry-After header, exactly like
// a tenant QuotaError.
type ShedError struct {
	Platform   string
	Shard      int
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("fleet: shard %s/%d shedding load: %s", e.Platform, e.Shard, e.Reason)
}

// admission is one shard's gate.
type admission struct {
	cfg AdmissionConfig
	sem chan struct{} // inflight slots; nil when unlimited

	depth    atomic.Int64 // admitted + queued right now
	admitted atomic.Uint64
	shed     atomic.Uint64

	mu      sync.Mutex // guards est
	est     *sched.P2
	p99Bits atomic.Uint64 // published Quantile() in ms, float64 bits
}

func newAdmission(cfg AdmissionConfig) *admission {
	if cfg.TargetP99 > 0 && cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	a := &admission{cfg: cfg, est: sched.NewP2(0.99)}
	if cfg.MaxInflight > 0 {
		a.sem = make(chan struct{}, cfg.MaxInflight)
	}
	return a
}

// Permit is an admitted request's token. Release returns the slot and
// feeds the request's latency to the shard's p99 estimator. Permit is a
// value, not a closure, so admitting allocates nothing.
type Permit struct {
	a     *admission
	start time.Time
}

// Release completes the admitted request. Safe on the zero Permit.
func (p Permit) Release() {
	a := p.a
	if a == nil {
		return
	}
	if a.sem != nil {
		<-a.sem
	}
	a.depth.Add(-1)
	ms := float64(time.Since(p.start)) / float64(time.Millisecond)
	a.mu.Lock()
	a.est.Observe(ms)
	q := a.est.Quantile()
	a.mu.Unlock()
	a.p99Bits.Store(math.Float64bits(q))
}

// p99Ms is the last published estimate (lock-free).
func (a *admission) p99Ms() float64 {
	return math.Float64frombits(a.p99Bits.Load())
}

func (a *admission) shedErr(platform string, shard int, reason string) error {
	a.depth.Add(-1)
	a.shed.Add(1)
	return &ShedError{Platform: platform, Shard: shard, Reason: reason, RetryAfter: shedRetryAfter}
}

// admit gates one request. On success the caller must Release the
// permit when the request completes. A context cancellation while
// queued is reported as the context's error, not a shed — the client
// gave up; the shard did not push back.
func (a *admission) admit(ctx context.Context, platform string, shard int) (Permit, error) {
	d := a.depth.Add(1)
	if a.sem == nil {
		a.admitted.Add(1)
		return Permit{a: a, start: time.Now()}, nil
	}
	if d > int64(a.cfg.MaxInflight+a.cfg.MaxQueue) {
		return Permit{}, a.shedErr(platform, shard, fmt.Sprintf("accept queue full (%d inflight + %d queued)", a.cfg.MaxInflight, a.cfg.MaxQueue))
	}
	select {
	case a.sem <- struct{}{}: // free slot, no waiting
		a.admitted.Add(1)
		return Permit{a: a, start: time.Now()}, nil
	default:
	}
	if t := a.cfg.TargetP99; t > 0 {
		if p99 := a.p99Ms(); p99 > float64(t)/float64(time.Millisecond) {
			return Permit{}, a.shedErr(platform, shard, fmt.Sprintf("p99 estimate %.1fms over target %v", p99, t))
		}
	}
	select {
	case a.sem <- struct{}{}:
		a.admitted.Add(1)
		return Permit{a: a, start: time.Now()}, nil
	case <-ctx.Done():
		a.depth.Add(-1)
		return Permit{}, ctx.Err()
	}
}
