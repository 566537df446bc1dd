package sched

import (
	"sync"
	"sync/atomic"
)

// Memo is a generic request-deduplicating memo table: the first call for a
// key runs fn exactly once and every caller — including concurrent callers
// that arrive while fn is still running — receives that single result.
// This is the serving-path companion of Map: where Map fans one request
// out over many workers, Memo collapses many identical requests into one
// computation.
//
// Results (including errors) are cached for the lifetime of the Memo; it
// is intended for deterministic computations such as kernel compilation,
// profiled executions and model training, where a repeat request must not
// redo the work. The zero value is ready to use and unbounded; a
// long-lived serving process can cap the table with SetLimit, which turns
// the memo into an LRU-ish cache (least-recently-used completed entries
// are evicted first; in-flight computations are never evicted). Recency
// is only tracked while a cap is set — the unbounded hit path
// deliberately writes nothing shared — so capping a table that already
// served unbounded traffic treats its existing entries as equally old:
// eviction among them is arbitrary until they are touched again. Set the
// cap before traffic (as the engine does) for strict LRU ordering.
//
// Lookups of existing keys — the warm serving path, where every request
// is a cache hit — are lock-free: the table publishes an immutable
// snapshot through an atomic pointer, so a warm hit is one atomic load
// plus one read-only map lookup, with no shared cache-line writes at all
// on an unbounded table (a capped table additionally stamps recency with
// two atomics). Only insertion, eviction and SetLimit take the mutex and
// republish the snapshot; key misses are exactly the computations whose
// cost dwarfs a map copy.
type Memo[K comparable, V any] struct {
	read  atomic.Pointer[map[K]*memoEntry[V]] // immutable snapshot
	mu    sync.Mutex                          // guards dirty + publication
	dirty map[K]*memoEntry[V]                 // authoritative table
	limit atomic.Int64                        // 0 = unbounded
	clock atomic.Uint64                       // recency counter (capped tables)
	// evicted counts entries removed by the LRU cap, for serving stats.
	evicted atomic.Uint64
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
	// done is set after the entry's computation finishes; eviction skips
	// in-flight entries (concurrent callers hold references to them).
	done atomic.Bool
	// lastUse is the memo clock at the entry's most recent access. Atomic
	// so the lock-free hit path can stamp it; concurrent stamps race
	// benignly — whichever recent tick lands, the entry reads as recently
	// used.
	lastUse atomic.Uint64
}

// Do returns the memoized result for key, running fn to produce it on the
// first request. Concurrent requests for the same key block until the
// single in-flight fn finishes; requests for distinct keys never block
// each other while fn runs.
func (m *Memo[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	e := m.entry(key)
	e.once.Do(func() {
		e.val, e.err = fn()
		e.done.Store(true)
	})
	return e.val, e.err
}

// DoRetryable is Do for computations whose failures may be transient
// (artifact reads, say): an error result is not memoized — the failed
// entry is dropped so a later request retries — while concurrent
// requests still share the one in-flight attempt. The drop is
// identity-checked, so a stale failure never evicts a newer entry that a
// subsequent request is already computing.
func (m *Memo[K, V]) DoRetryable(key K, fn func() (V, error)) (V, error) {
	e := m.entry(key)
	e.once.Do(func() {
		e.val, e.err = fn()
		e.done.Store(true)
	})
	if e.err != nil {
		m.mu.Lock()
		if m.dirty[key] == e {
			delete(m.dirty, key)
			m.publishLocked()
		}
		m.mu.Unlock()
	}
	return e.val, e.err
}

// entry returns (creating if needed) the current entry for key. The warm
// case — the key exists in the published snapshot and the table is
// within its cap — completes without the lock.
func (m *Memo[K, V]) entry(key K) *memoEntry[V] {
	if mp := m.read.Load(); mp != nil {
		if e := (*mp)[key]; e != nil {
			limit := m.limit.Load()
			if limit <= 0 {
				return e
			}
			e.lastUse.Store(m.clock.Add(1))
			if int64(len(*mp)) <= limit {
				return e
			}
			// Over the cap (a burst of in-flight entries outran it):
			// fall through to evict under the lock.
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirty == nil {
		m.dirty = map[K]*memoEntry[V]{}
	}
	e := m.dirty[key]
	if e == nil {
		e = &memoEntry[V]{}
		m.dirty[key] = e
	}
	e.lastUse.Store(m.clock.Add(1))
	m.evictLocked(e)
	m.publishLocked()
	return e
}

// publishLocked snapshots the authoritative table for lock-free readers.
// Callers hold m.mu.
func (m *Memo[K, V]) publishLocked() {
	snap := make(map[K]*memoEntry[V], len(m.dirty))
	for k, e := range m.dirty {
		snap[k] = e
	}
	m.read.Store(&snap)
}

// SetLimit caps the table at n entries (0 restores unbounded growth) and
// immediately evicts down to the cap. Concurrent-safe; the cap bounds
// completed entries — a burst of distinct in-flight computations can
// transiently exceed it, since evicting an entry callers are still
// waiting on would rerun its computation.
func (m *Memo[K, V]) SetLimit(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n < 0 {
		n = 0
	}
	m.limit.Store(int64(n))
	m.evictLocked(nil)
	m.publishLocked()
}

// evictLocked drops least-recently-used completed entries until the table
// is within the limit. keep (the entry just accessed) is never evicted
// even if its computation has not started yet. Callers hold m.mu and
// must republish afterwards.
func (m *Memo[K, V]) evictLocked(keep *memoEntry[V]) {
	limit := int(m.limit.Load())
	if limit <= 0 {
		return
	}
	for len(m.dirty) > limit {
		var victim K
		var victimE *memoEntry[V]
		var victimUse uint64
		for k, e := range m.dirty {
			if e == keep || !e.done.Load() {
				continue
			}
			if use := e.lastUse.Load(); victimE == nil || use < victimUse {
				victim, victimE, victimUse = k, e, use
			}
		}
		if victimE == nil {
			return // everything else is in flight; let the burst drain
		}
		delete(m.dirty, victim)
		m.evicted.Add(1)
	}
}

// Evictions reports how many entries the LRU cap has removed.
func (m *Memo[K, V]) Evictions() uint64 {
	return m.evicted.Load()
}

// Range calls fn with the value of every entry whose computation has
// finished without error, from one published snapshot: lock-free, like a
// warm hit, and blind to entries added or evicted while it runs.
func (m *Memo[K, V]) Range(fn func(V)) {
	mp := m.read.Load()
	if mp == nil {
		return
	}
	for _, e := range *mp {
		if e.done.Load() && e.err == nil {
			fn(e.val)
		}
	}
}

// Len reports how many keys are currently cached (computed or in flight).
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.dirty)
}
