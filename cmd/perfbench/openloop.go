package main

import (
	"context"
	"sync"
	"time"
)

// sample is one open-loop request. Times are offsets from the phase start.
type sample struct {
	due     time.Duration // when the schedule said to send it
	handed  time.Duration // when the generator queued it; handed − due is the generator's lateness
	sent    time.Duration // when a connection took it
	done    time.Duration // when its response was read
	err     error
	skipped bool // still queued at the cutoff, never sent
}

// latency is the request's latency from when it was due, which counts the
// wait a slow earlier request imposed on it.
func (s sample) latency() time.Duration { return s.done - s.due }

// openLoop is the client of an open-loop workload. No workload runs it:
// the serve workload is a closed loop (README.md says why). It is kept,
// with its stall test, for a fixed-rate serve workload.
//
// openLoop sends n requests at a fixed rate: request i is due at
// i/rate after the start, whatever happened to earlier ones. conns workers
// stand for the client's connections; a request due while every connection
// is busy waits in the queue. A request still queued cutoff after the start
// is skipped rather than sent. openLoop returns once every worker has
// finished.
func openLoop(ctx context.Context, rate float64, n, conns int, cutoff time.Duration, send func(i int) error) []sample {
	out := make([]sample, n)
	// Sized to n so the generator never blocks behind busy connections:
	// the schedule, not the server, decides when a request is due.
	jobs := make(chan int, n)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sent := time.Since(start)
				if sent > cutoff || ctx.Err() != nil {
					out[i].skipped = true
					continue
				}
				out[i].sent = sent
				out[i].err = send(i)
				out[i].done = time.Since(start)
			}
		}()
	}
	interval := float64(time.Second) / rate
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) * interval)
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		out[i].due = due
		out[i].handed = time.Since(start)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}
