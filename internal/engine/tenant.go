package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTenant is the tenant requests without an explicit tenant belong
// to. Every quota applies to it like any other tenant.
const DefaultTenant = "public"

// TenantLimits configures per-tenant quotas and caps. Zero values
// disable the corresponding limit.
type TenantLimits struct {
	// MaxKernels caps how many kernels one tenant may have registered.
	MaxKernels int
	// MaxSourceBytes caps the total MiniCL source bytes one tenant may
	// have registered across all its kernels.
	MaxSourceBytes int64
	// MaxConcurrent caps a tenant's in-flight executions; requests over
	// the cap fail fast with a QuotaError instead of queueing.
	MaxConcurrent int
}

// quotaRetryAfter is the backoff hint every QuotaError carries.
const quotaRetryAfter = time.Second

// QuotaError reports a request rejected by a tenant quota. The serving
// layer maps it to 429 with a Retry-After header.
type QuotaError struct {
	Tenant     string
	Reason     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("engine: tenant %q over quota: %s", e.Tenant, e.Reason)
}

// tenantState is one tenant's live accounting. kernels and srcBytes are
// guarded by the owning TenantTable's mutex (they change only on
// register); inflight is atomic so the execute path never takes a lock.
type tenantState struct {
	inflight atomic.Int64
	kernels  int
	srcBytes int64
}

// TenantTable holds per-tenant quota state, created on first touch. A
// fleet of engines shares one table (Options.SharedTenants) so kernel,
// source-byte and concurrency quotas are enforced per tenant across
// every shard, not per shard — otherwise a tenant's caps would multiply
// by the shard count. Safe for concurrent use.
type TenantTable struct {
	mu sync.Mutex
	m  map[string]*tenantState
}

// NewTenantTable returns an empty table.
func NewTenantTable() *TenantTable {
	return &TenantTable{m: map[string]*tenantState{}}
}

// tenantName normalizes an empty tenant to DefaultTenant.
func tenantName(s string) string {
	if s == "" {
		return DefaultTenant
	}
	return s
}

func (t *TenantTable) state(name string) *tenantState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stateLocked(name)
}

func (t *TenantTable) stateLocked(name string) *tenantState {
	ts := t.m[name]
	if ts == nil {
		ts = &tenantState{}
		t.m[name] = ts
	}
	return ts
}

// checkRegistration is the read-only quota pre-check for registering a
// kernel of srcLen bytes: cheap rejection before compile work is spent.
func (t *TenantTable) checkRegistration(tenant string, srcLen int64, lim TenantLimits) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.registrationErrLocked(tenant, srcLen, lim)
}

// reserveRegistration atomically re-checks the quotas and commits the
// kernel/source-byte accounting. This is the authoritative gate: two
// shards racing the same tenant's last kernel slot serialize here.
func (t *TenantTable) reserveRegistration(tenant string, srcLen int64, lim TenantLimits) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.registrationErrLocked(tenant, srcLen, lim); err != nil {
		return err
	}
	ts := t.stateLocked(tenant)
	ts.kernels++
	ts.srcBytes += srcLen
	return nil
}

func (t *TenantTable) registrationErrLocked(tenant string, srcLen int64, lim TenantLimits) error {
	ts := t.stateLocked(tenant)
	if lim.MaxKernels > 0 && ts.kernels >= lim.MaxKernels {
		return &QuotaError{Tenant: tenant,
			Reason:     fmt.Sprintf("%d kernels registered (cap %d)", ts.kernels, lim.MaxKernels),
			RetryAfter: quotaRetryAfter}
	}
	if lim.MaxSourceBytes > 0 && ts.srcBytes+srcLen > lim.MaxSourceBytes {
		return &QuotaError{Tenant: tenant,
			Reason:     fmt.Sprintf("%d source bytes registered + %d uploaded exceeds cap %d", ts.srcBytes, srcLen, lim.MaxSourceBytes),
			RetryAfter: quotaRetryAfter}
	}
	return nil
}

// acquireTenantSlot claims one of the tenant's concurrent-execution
// slots, returning the release func, or a QuotaError when the tenant is
// at its cap. With no cap configured it is free. The slot pool lives in
// the (possibly shared) TenantTable, so the cap spans every shard the
// tenant touches.
func (e *Engine) acquireTenantSlot(tenant string) (func(), error) {
	maxc := e.opts.Tenant.MaxConcurrent
	if maxc <= 0 {
		return func() {}, nil
	}
	name := tenantName(tenant)
	ts := e.tenants.state(name)
	if ts.inflight.Add(1) > int64(maxc) {
		ts.inflight.Add(-1)
		return nil, &QuotaError{
			Tenant:     name,
			Reason:     fmt.Sprintf("%d concurrent executions in flight (cap %d)", maxc, maxc),
			RetryAfter: quotaRetryAfter,
		}
	}
	return func() { ts.inflight.Add(-1) }, nil
}
