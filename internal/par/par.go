// Package par holds the small shared primitives of the synthesis
// pipeline's deterministic parallel execution layer: resolving the public
// Parallelism knob (0 = GOMAXPROCS, 1 = sequential) and a bounded,
// index-addressed fan-out helper.
//
// The pipeline's determinism guarantee — parallel synthesis produces
// bit-identical designs to sequential synthesis — is upheld by the callers:
// every use of ForEach writes results only to index-distinct storage, and
// the speculative prefetch queue in internal/milp commits results in the
// canonical node order. Construction (internal/cluster included) is
// sequential, so within one synthesis the knob feeds only that queue. This
// package only supplies the mechanics.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sring/internal/obs"
)

// Aggregate telemetry for the parallel dispatch path: how long each task
// waited between fan-out start and its dispatch, and how long it ran.
// Recorded only when ForEach actually goes parallel — the sequential inline
// path stays instrumentation-free, so parallelism-1 runs keep their exact
// cost profile. par has no options struct to plumb a registry through, so
// these record into the process default.
var (
	taskWaitH = obs.Default().Histogram("par.task.wait.ns")
	taskRunH  = obs.Default().Histogram("par.task.run.ns")
)

// Resolve maps a Parallelism knob to a worker count: 0 means
// runtime.GOMAXPROCS(0), anything below 1 is clamped to 1 (sequential).
func Resolve(parallelism int) int {
	if parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if parallelism < 1 {
		return 1
	}
	return parallelism
}

// ResolveSpeculative maps the knob to a worker count for *speculative*
// helpers — optional work (prefetched LP relaxations) that only pays off
// on cores the critical path is not using. The resolved count is
// additionally capped at GOMAXPROCS: splitting mandatory ForEach work
// across more goroutines than cores is merely neutral, but
// speculative solves beyond the core count steal cycles from the very
// path they are meant to hide, which is how -j 4 made single-core runs
// slower. Determinism is unaffected — speculation never changes results,
// only where (and whether ahead of time) they are computed.
func ResolveSpeculative(parallelism int) int {
	w := Resolve(parallelism)
	if cores := runtime.GOMAXPROCS(0); w > cores {
		w = cores
	}
	return w
}

// ForEach runs fn(i) for every i in [0, n) on up to Resolve(parallelism)
// goroutines and returns when all calls have finished. With an effective
// worker count of 1 the calls run inline, in index order, on the calling
// goroutine — exactly the sequential behaviour. fn must write its result to
// index-distinct storage; ForEach imposes no other ordering.
//
// A panic in fn is re-raised on the calling goroutine after the remaining
// workers drain.
func ForEach(parallelism, n int, fn func(i int)) {
	_ = ForEachContext(context.Background(), parallelism, n, fn)
}

// ForEachContext is ForEach with cooperative cancellation: once ctx is
// cancelled no further indices are dispatched (calls already running
// finish) and the context's error is returned. Indices not dispatched are
// simply skipped — the caller can identify them because fn never wrote
// their slots. A nil return means fn ran for every index.
func ForEachContext(ctx context.Context, parallelism, n int, fn func(i int)) error {
	workers := Resolve(parallelism)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	fanoutStart := time.Now()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
					next.Store(int64(n)) // stop handing out work
				}
			}()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				dispatched := time.Now()
				taskWaitH.RecordDuration(dispatched.Sub(fanoutStart))
				fn(i)
				taskRunH.RecordSince(dispatched)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return ctx.Err()
}
