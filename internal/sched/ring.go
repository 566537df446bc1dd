package sched

import "sync/atomic"

// Ring is a bounded, lock-free, multi-producer multi-consumer queue
// (Vyukov's bounded MPMC scheme): each slot carries a sequence number
// that tickets producers and consumers through it without locks, so
// enqueueing on a hot request path costs two atomic operations and never
// blocks behind a slow consumer. A full ring rejects the push instead of
// blocking — callers decide whether to drop (the observation pipeline
// counts drops) or retry.
//
// The engine uses it as the hand-off between /execute request goroutines
// (producers) and the background observation flusher (consumer), but the
// implementation is fully generic and MPMC-safe.
type Ring[T any] struct {
	mask  uint64
	slots []ringSlot[T]
	_     [7]uint64 // keep the hot counters off the slots' cache lines
	head  atomic.Uint64
	_     [7]uint64
	tail  atomic.Uint64
}

type ringSlot[T any] struct {
	seq atomic.Uint64
	val T
}

// NewRing builds a ring with at least the requested capacity, rounded up
// to the next power of two (minimum 2).
func NewRing[T any](capacity int) *Ring[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &Ring[T]{mask: uint64(n - 1), slots: make([]ringSlot[T], n)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// TryPush enqueues v, returning false immediately when the ring is full.
func (r *Ring[T]) TryPush(v T) bool {
	for {
		tail := r.tail.Load()
		s := &r.slots[tail&r.mask]
		switch seq := s.seq.Load(); {
		case seq == tail:
			if r.tail.CompareAndSwap(tail, tail+1) {
				s.val = v
				s.seq.Store(tail + 1) // release: publishes val to the popper
				return true
			}
		case seq < tail:
			return false // the slot still holds an unconsumed element
		}
		// A racing producer advanced the tail first; retry on the new one.
	}
}

// TryPop dequeues the oldest element, returning ok=false immediately
// when the ring is empty.
func (r *Ring[T]) TryPop() (v T, ok bool) {
	for {
		head := r.head.Load()
		s := &r.slots[head&r.mask]
		switch seq := s.seq.Load(); {
		case seq == head+1:
			if r.head.CompareAndSwap(head, head+1) {
				v = s.val
				var zero T
				s.val = zero // drop references for the GC
				s.seq.Store(head + uint64(len(r.slots)))
				return v, true
			}
		case seq < head+1:
			return v, false // the slot's element is not published yet
		}
		// A racing consumer advanced the head first; retry on the new one.
	}
}
