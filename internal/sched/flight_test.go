package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMemoComputesOnce(t *testing.T) {
	var m Memo[string, int]
	var calls atomic.Int64
	for i := 0; i < 5; i++ {
		v, err := m.Do("k", func() (int, error) {
			calls.Add(1)
			return 42, nil
		})
		if err != nil || v != 42 {
			t.Fatalf("Do = %d, %v", v, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", calls.Load())
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestMemoConcurrentDedup(t *testing.T) {
	var m Memo[int, string]
	var calls atomic.Int64
	const keys, per = 8, 16
	var wg sync.WaitGroup
	errs := make(chan error, keys*per)
	for k := 0; k < keys; k++ {
		for g := 0; g < per; g++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				v, err := m.Do(k, func() (string, error) {
					calls.Add(1)
					return fmt.Sprintf("v%d", k), nil
				})
				if err != nil {
					errs <- err
					return
				}
				if want := fmt.Sprintf("v%d", k); v != want {
					errs <- fmt.Errorf("key %d: got %q, want %q", k, v, want)
				}
			}(k)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if calls.Load() != keys {
		t.Fatalf("fn ran %d times, want %d", calls.Load(), keys)
	}
}

func TestMemoCachesErrors(t *testing.T) {
	var m Memo[string, int]
	boom := errors.New("boom")
	var calls int
	for i := 0; i < 3; i++ {
		_, err := m.Do("k", func() (int, error) {
			calls++
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if calls != 1 {
		t.Fatalf("failing fn ran %d times, want 1 (errors are cached)", calls)
	}
}

func TestMemoDoRetryableDropsFailures(t *testing.T) {
	var m Memo[string, int]
	boom := errors.New("boom")
	calls := 0
	fail := func() (int, error) { calls++; return 0, boom }
	if _, err := m.DoRetryable("k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if m.Len() != 0 {
		t.Fatalf("failed entry retained: Len = %d", m.Len())
	}
	v, err := m.DoRetryable("k", func() (int, error) { calls++; return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = %d, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2", calls)
	}
	// Success IS memoized.
	if _, err := m.DoRetryable("k", fail); err != nil {
		t.Fatalf("memoized success re-ran fn: %v", err)
	}
	if calls != 2 || m.Len() != 1 {
		t.Fatalf("calls=%d Len=%d, want 2/1", calls, m.Len())
	}
}

func TestMemoDoRetryableConcurrentSharesAttempt(t *testing.T) {
	var m Memo[int, int]
	var calls atomic.Int64
	boom := errors.New("boom")
	const clients = 16
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every client's failure is the shared first attempt; the
			// stale-failure cleanup must be idempotent under concurrency.
			if _, err := m.DoRetryable(1, func() (int, error) {
				calls.Add(1)
				return 0, boom
			}); !errors.Is(err, boom) {
				t.Errorf("err = %v", err)
			}
		}()
	}
	wg.Wait()
	// Concurrent callers shared in-flight attempts: far fewer runs than
	// clients, and at least one; afterwards the key is retryable.
	if n := calls.Load(); n < 1 || n > clients {
		t.Fatalf("fn ran %d times", n)
	}
	if v, err := m.DoRetryable(1, func() (int, error) { return 9, nil }); err != nil || v != 9 {
		t.Fatalf("retry after concurrent failures = %d, %v", v, err)
	}
}

func TestMemoLimitEvictsLRU(t *testing.T) {
	var m Memo[string, int]
	m.SetLimit(2)
	calls := map[string]int{}
	get := func(k string) int {
		v, err := m.Do(k, func() (int, error) { calls[k]++; return len(k), nil })
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	get("a")
	get("b")
	get("a")  // a is now more recent than b
	get("cc") // over limit: b (LRU) is evicted
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	get("a") // still cached
	if calls["a"] != 1 {
		t.Fatalf("a recomputed: %d calls", calls["a"])
	}
	get("b") // evicted: recomputes, evicting cc (LRU after a's touch)
	if calls["b"] != 2 {
		t.Fatalf("b ran %d times, want 2 (evicted then recomputed)", calls["b"])
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
}

func TestMemoSetLimitShrinksExisting(t *testing.T) {
	var m Memo[int, int]
	for k := 0; k < 10; k++ {
		if _, err := m.Do(k, func() (int, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	m.SetLimit(3)
	if m.Len() != 3 {
		t.Fatalf("Len after shrink = %d, want 3", m.Len())
	}
	// The three most recently used keys (7, 8, 9) survive.
	var calls atomic.Int64
	for k := 7; k < 10; k++ {
		if _, err := m.Do(k, func() (int, error) { calls.Add(1); return 0, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 0 {
		t.Fatalf("recent keys were evicted: %d recomputes", calls.Load())
	}
	// 0 restores unbounded growth.
	m.SetLimit(0)
	for k := 100; k < 120; k++ {
		if _, err := m.Do(k, func() (int, error) { return 0, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 23 {
		t.Fatalf("unbounded Len = %d, want 23", m.Len())
	}
}

// TestMemoLimitNeverEvictsInFlight pins the safety property: a capped
// memo under a burst of distinct concurrent computations may transiently
// exceed the cap, but never drops an entry other callers are waiting on.
func TestMemoLimitNeverEvictsInFlight(t *testing.T) {
	var m Memo[int, int]
	m.SetLimit(1)
	const clients = 8
	release := make(chan struct{})
	started := make(chan struct{}, clients)
	var wg sync.WaitGroup
	var calls atomic.Int64
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			v, err := m.Do(k, func() (int, error) {
				calls.Add(1)
				started <- struct{}{}
				<-release // hold every computation in flight simultaneously
				return k * 10, nil
			})
			if err != nil || v != k*10 {
				t.Errorf("key %d: got %d, %v", k, v, err)
			}
		}(k)
	}
	for k := 0; k < clients; k++ {
		<-started
	}
	close(release)
	wg.Wait()
	if calls.Load() != clients {
		t.Fatalf("fn ran %d times, want %d (no in-flight entry dropped)", calls.Load(), clients)
	}
	// Once drained, a fresh access shrinks the table back to the cap.
	if _, err := m.Do(0, func() (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Fatalf("Len after drain = %d, want 1", m.Len())
	}
}

// TestMemoRangeSeesFinishedSuccesses: Range visits every entry whose
// computation succeeded, and neither a cached failure nor one still in
// flight.
func TestMemoRangeSeesFinishedSuccesses(t *testing.T) {
	var m Memo[string, int]
	m.Range(func(int) { t.Fatal("Range visited an empty memo") })
	for k, v := range map[string]int{"a": 1, "b": 2} {
		m.Do(k, func() (int, error) { return v, nil })
	}
	m.Do("fail", func() (int, error) { return 99, errors.New("boom") })
	started, release := make(chan struct{}), make(chan struct{})
	go m.Do("slow", func() (int, error) { close(started); <-release; return 100, nil })
	<-started
	sum := 0
	m.Range(func(v int) { sum += v })
	close(release)
	if sum != 3 {
		t.Fatalf("Range summed %d, want 3 (a and b only)", sum)
	}
}
