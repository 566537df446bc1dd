package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
)

func testRouter(t *testing.T, opts Options) (*Router, *atomic.Int64) {
	t.Helper()
	db, err := harness.Generate(harness.GenOptions{Programs: []string{"vecadd"}, MaxSizeIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	var built atomic.Int64
	shared := engine.NewTenantTable()
	cells, err := engine.NewCellCache(opts.Platforms...)
	if err != nil {
		t.Fatal(err)
	}
	if opts.NewEngine == nil {
		opts.NewEngine = func(platform string, shard int) (*engine.Engine, error) {
			built.Add(1)
			return engine.New(engine.Options{
				Platform: platform, DB: db, Model: harness.FastModel(),
				SharedTenants: shared, SharedCells: cells,
			})
		}
	}
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r, &built
}

// TestConsistentRoutingUnderConcurrentCreation is the router property
// test: many goroutines hammer the same (platform, tenant) keys during
// lazy creation, every key must land on one stable shard, and each
// shard's engine must be built exactly once. Run under -race in CI.
func TestConsistentRoutingUnderConcurrentCreation(t *testing.T) {
	r, built := testRouter(t, Options{Platforms: []string{"mc1", "mc2"}, ShardsPerPlatform: 4})

	tenants := []string{"", "alice", "bob", "carol", "dave", "erin", "frank", "grace"}
	platforms := []string{"mc1", "mc2"}
	type key struct{ platform, tenant string }
	var mu sync.Mutex
	got := map[key]*Shard{}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := platforms[(g+i)%len(platforms)]
				tn := tenants[(g*7+i)%len(tenants)]
				s, err := r.ShardFor(p, tn)
				if err != nil {
					t.Error(err)
					return
				}
				if s.Platform != p {
					t.Errorf("tenant %q routed to platform %q, want %q", tn, s.Platform, p)
					return
				}
				mu.Lock()
				if prev, ok := got[key{p, tn}]; ok && prev != s {
					t.Errorf("key (%s,%s) routed to two shards: %d and %d", p, tn, prev.Index, s.Index)
				}
				got[key{p, tn}] = s
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	distinct := map[*Shard]bool{}
	for _, s := range got {
		distinct[s] = true
	}
	if int(built.Load()) != len(distinct) {
		t.Errorf("built %d engines for %d distinct shards", built.Load(), len(distinct))
	}
	if n := len(r.Shards()); n != len(distinct) {
		t.Errorf("Shards() = %d, want %d", n, len(distinct))
	}
	// 8 tenants x 2 platforms over 4 shards each: the hash should use
	// more than one shard per platform.
	perPlatform := map[string]map[int]bool{}
	for k, s := range got {
		if perPlatform[k.platform] == nil {
			perPlatform[k.platform] = map[int]bool{}
		}
		perPlatform[k.platform][s.Index] = true
	}
	for p, idxs := range perPlatform {
		if len(idxs) < 2 {
			t.Errorf("platform %s: all 8 tenants on one shard — hash not spreading", p)
		}
	}
}

func TestShardForValidation(t *testing.T) {
	r, _ := testRouter(t, Options{Platforms: []string{"mc2"}})
	if _, err := r.ShardFor("mc9", ""); err == nil {
		t.Error("unknown platform accepted")
	}
	s, err := r.ShardFor("", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if s.Platform != "mc2" {
		t.Errorf("default platform = %q", s.Platform)
	}
	if s.Engine() == nil {
		t.Error("nil engine")
	}
}

// TestEngineCreationFailureRetries: a failed lazy build must not poison
// the shard — the next request retries.
func TestEngineCreationFailureRetries(t *testing.T) {
	db, err := harness.Generate(harness.GenOptions{Programs: []string{"vecadd"}, MaxSizeIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	r, err := New(Options{
		Platforms: []string{"mc2"},
		NewEngine: func(platform string, shard int) (*engine.Engine, error) {
			if calls.Add(1) == 1 {
				return nil, fmt.Errorf("transient")
			}
			return engine.New(engine.Options{Platform: platform, DB: db, Model: harness.FastModel()})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ShardFor("mc2", ""); err == nil {
		t.Fatal("first touch should fail")
	}
	if _, err := r.ShardFor("mc2", ""); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if calls.Load() != 2 {
		t.Errorf("NewEngine called %d times, want 2", calls.Load())
	}
}

// TestAdmissionQueueShedsAndDrains: with a full queue arrivals shed
// with Retry-After, queued requests still complete, and the gate never
// deadlocks the drain.
func TestAdmissionQueueShedsAndDrains(t *testing.T) {
	r, _ := testRouter(t, Options{
		Platforms: []string{"mc2"},
		Admission: AdmissionConfig{MaxInflight: 1, MaxQueue: 1},
	})
	s, err := r.ShardFor("mc2", "")
	if err != nil {
		t.Fatal(err)
	}

	holder, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Second request queues.
	queued := make(chan error, 1)
	go func() {
		p, err := s.Admit(context.Background())
		if err == nil {
			p.Release()
		}
		queued <- err
	}()
	// Wait until it is actually waiting (depth 2 = 1 inflight + 1 queued).
	for i := 0; s.adm.depth.Load() != 2; i++ {
		if i > 1000 {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Third request overflows the queue: shed, not blocked.
	_, err = s.Admit(context.Background())
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("overflow err = %v, want ShedError", err)
	}
	if shed.RetryAfter != time.Second || shed.Platform != "mc2" {
		t.Errorf("shed = %+v", shed)
	}

	// Drain: releasing the holder unblocks the queued request.
	holder.Release()
	select {
	case err := <-queued:
		if err != nil {
			t.Fatalf("queued request err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request never drained")
	}

	st := r.Stats()[0]
	if st.Admitted != 2 || st.Shed != 1 || st.QueueDepth != 0 {
		t.Errorf("stats = %+v, want admitted 2, shed 1, depth 0", st)
	}
}

// TestAdmissionCancelWhileQueued: a client hanging up in the queue gets
// its context error and is not counted as shed.
func TestAdmissionCancelWhileQueued(t *testing.T) {
	r, _ := testRouter(t, Options{
		Platforms: []string{"mc2"},
		Admission: AdmissionConfig{MaxInflight: 1, MaxQueue: 4},
	})
	s, err := r.ShardFor("mc2", "")
	if err != nil {
		t.Fatal(err)
	}
	holder, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Admit(ctx)
		done <- err
	}()
	for i := 0; s.adm.depth.Load() != 2; i++ {
		if i > 1000 {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	holder.Release()
	st := r.Stats()[0]
	if st.Shed != 0 {
		t.Errorf("cancel counted as shed: %+v", st)
	}
	if st.QueueDepth != 0 {
		t.Errorf("depth leaked: %+v", st)
	}
}

// TestAdmissionP99Gate: once the moving p99 estimate exceeds the
// target, waiting is disabled — only immediately free slots admit — and
// the estimate is visible in stats.
func TestAdmissionP99Gate(t *testing.T) {
	r, _ := testRouter(t, Options{
		Platforms: []string{"mc2"},
		Admission: AdmissionConfig{MaxInflight: 1, MaxQueue: 8, TargetP99: time.Millisecond},
	})
	s, err := r.ShardFor("mc2", "")
	if err != nil {
		t.Fatal(err)
	}

	// Blow the estimate: slow admitted requests well past the 1ms target.
	for i := 0; i < 8; i++ {
		p, err := s.Admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		p.Release()
	}
	if p99 := s.adm.p99Ms(); p99 <= 1 {
		t.Fatalf("p99 estimate %.2fms, want > 1ms after slow requests", p99)
	}

	// Slot free: admits despite the blown estimate (samples keep
	// flowing so the estimate can recover).
	p, err := s.Admit(context.Background())
	if err != nil {
		t.Fatalf("free-slot admit: %v", err)
	}
	// Slot busy: sheds instead of queueing.
	_, err = s.Admit(context.Background())
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("busy admit err = %v, want ShedError", err)
	}
	p.Release()

	st := r.Stats()[0]
	if st.P99EstimateMs <= 1 {
		t.Errorf("stats p99 = %v", st.P99EstimateMs)
	}
	if st.Shed != 1 {
		t.Errorf("shed = %d, want 1", st.Shed)
	}
}

// TestJumpHashProperties: deterministic, in range, and minimal movement
// when the shard count grows.
func TestJumpHashProperties(t *testing.T) {
	moved := 0
	const keys = 10000
	for i := 0; i < keys; i++ {
		k := shardHash("mc1", fmt.Sprintf("tenant-%d", i))
		a, b := jumpHash(k, 8), jumpHash(k, 8)
		if a != b {
			t.Fatalf("jumpHash not deterministic for key %d", k)
		}
		if a < 0 || a >= 8 {
			t.Fatalf("bucket %d out of range", a)
		}
		if jumpHash(k, 9) != a {
			moved++
		}
	}
	// Growing 8 -> 9 buckets should move ~1/9 of keys; allow slack.
	if moved > keys/5 {
		t.Errorf("%d/%d keys moved adding one bucket; want ~1/9", moved, keys)
	}
	if moved == 0 {
		t.Error("no keys moved adding a bucket — hash ignoring bucket count?")
	}
}
