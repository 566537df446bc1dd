// Package sched is the concurrent scheduling core of the framework: a
// bounded worker pool with deterministic result ordering, lowest-index
// error propagation and context cancellation.
//
// Every parallel hot path in the repository — the oracle search over the
// partition space (runtime.Best), the training-data sweep
// (harness.Generate) and cross-validation folds (ml.LeaveOneGroupOut) —
// fans out through Map; a kernel launch spreads its work groups over the
// same budget (Workers) itself, in exec.Run.
// Results are always returned in input index order, so callers
// that reduce over them in order produce output identical to a sequential
// loop; parallelism never changes results, only wall-clock time.
package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the process-wide worker budget used when a caller
// passes workers <= 0. Zero means GOMAXPROCS. Commands thread their
// -parallel flag here so every layer honours it without plumbing a worker
// count through each signature.
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the process-wide default worker budget.
// n <= 0 restores the GOMAXPROCS default.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers returns the process-wide default worker budget.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Workers resolves a caller-supplied worker count: n itself when positive,
// the process default otherwise.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return DefaultWorkers()
}

// Map runs fn(ctx, i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 uses the process default) and returns the results in index
// order. With one worker it degenerates to a plain sequential loop in the
// calling goroutine.
//
// On failure the error with the smallest input index among those observed
// is returned and no results are delivered; in-flight calls are allowed to
// finish but no new indices are claimed, and the context passed to fn is
// cancelled. Cancelling ctx stops the pool the same way and returns
// ctx.Err().
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	out := make([]T, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := fn(ctx, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if cctx.Err() != nil {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				v, err := fn(cctx, i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					cancel()
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
