package sched

import (
	"sync"
	"testing"
)

func TestRingFIFOAndBounds(t *testing.T) {
	r := NewRing[int](4)
	if len(r.slots) != 4 {
		t.Fatalf("capacity = %d, want 4", len(r.slots))
	}
	if _, ok := r.TryPop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	for i := 0; i < 4; i++ {
		if !r.TryPush(i) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if r.TryPush(99) {
		t.Fatal("push into full ring succeeded")
	}
	if n := r.tail.Load() - r.head.Load(); n != 4 {
		t.Fatalf("queued = %d, want 4", n)
	}
	for i := 0; i < 4; i++ {
		v, ok := r.TryPop()
		if !ok || v != i {
			t.Fatalf("pop %d = %d, %v", i, v, ok)
		}
	}
	if _, ok := r.TryPop(); ok {
		t.Fatal("pop from drained ring succeeded")
	}
	// Wrap-around: interleave past the physical end of the slot array.
	for round := 0; round < 10; round++ {
		if !r.TryPush(round) {
			t.Fatalf("wrap push %d rejected", round)
		}
		if v, ok := r.TryPop(); !ok || v != round {
			t.Fatalf("wrap pop %d = %d, %v", round, v, ok)
		}
	}
}

func TestRingCapacityRounding(t *testing.T) {
	for _, c := range []struct{ ask, want int }{{0, 2}, {1, 2}, {2, 2}, {3, 4}, {5, 8}, {1000, 1024}} {
		if got := len(NewRing[int](c.ask).slots); got != c.want {
			t.Errorf("NewRing(%d) capacity = %d, want %d", c.ask, got, c.want)
		}
	}
}

// TestRingConcurrentMPMC hammers the ring from many producers and
// consumers (CI runs this package under -race): every pushed element is
// popped exactly once, nothing is invented, drops only happen on a full
// ring.
func TestRingConcurrentMPMC(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 5000
	)
	r := NewRing[int](64)
	var wg sync.WaitGroup
	var dropped, popped sync.Map // value -> count guards via LoadOrStore

	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			for i := 0; i < perProd; i++ {
				v := p*perProd + i
				if !r.TryPush(v) {
					dropped.Store(v, true)
				}
			}
		}(p)
	}
	done := make(chan struct{})
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok := r.TryPop()
				if ok {
					if _, dup := popped.LoadOrStore(v, true); dup {
						t.Errorf("value %d popped twice", v)
					}
					continue
				}
				select {
				case <-done:
					// Producers are finished; drain what's left.
					for {
						v, ok := r.TryPop()
						if !ok {
							return
						}
						if _, dup := popped.LoadOrStore(v, true); dup {
							t.Errorf("value %d popped twice", v)
						}
					}
				default:
				}
			}
		}()
	}
	prodWG.Wait()
	close(done)
	wg.Wait()

	// Every value was either popped exactly once or dropped on a full
	// ring — never both, never neither.
	for p := 0; p < producers; p++ {
		for i := 0; i < perProd; i++ {
			v := p*perProd + i
			_, wasPopped := popped.Load(v)
			_, wasDropped := dropped.Load(v)
			if wasPopped == wasDropped {
				t.Fatalf("value %d: popped=%v dropped=%v", v, wasPopped, wasDropped)
			}
		}
	}
}

func BenchmarkRingPushPop(b *testing.B) {
	r := NewRing[int](1024)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if r.TryPush(1) {
				r.TryPop()
			}
		}
	})
}
