package main

import (
	"context"
	"testing"
	"time"
)

// A stalled request must show on the latency of the requests due while it
// stalled: they queue behind it, and latency is timed from when each was
// due, not from when a connection finally took it.
func TestOpenLoopStallShowsOnLaterRequests(t *testing.T) {
	const rate, n, stalled = 1000.0, 80, 10 // one request due per millisecond
	const stall = 40 * time.Millisecond
	samples := openLoop(context.Background(), rate, n, 1, time.Minute, func(i int) error {
		if i == stalled {
			time.Sleep(stall)
		}
		return nil
	})
	stallEnd := samples[stalled].done
	if stallEnd < samples[stalled].due+stall {
		t.Fatalf("stalled request finished at %v, due at %v", stallEnd, samples[stalled].due)
	}
	queued := 0
	for i := stalled + 1; i < n; i++ {
		s := samples[i]
		if s.skipped || s.err != nil {
			t.Fatalf("request %d: skipped %v, err %v", i, s.skipped, s.err)
		}
		if s.due >= stallEnd {
			break
		}
		queued++
		// Due during the stall, it could not be sent before the stall ended.
		if s.sent < stallEnd {
			t.Errorf("request %d due at %v was sent at %v, before the stall ended at %v", i, s.due, s.sent, stallEnd)
		}
		if s.latency() < stallEnd-s.due {
			t.Errorf("request %d: latency %v hides the stall (due %v, stall ended %v)", i, s.latency(), s.due, stallEnd)
		}
	}
	if queued < 20 {
		t.Fatalf("only %d requests fell due during a %v stall at %v/s", queued, stall, rate)
	}
	// The request due right after the stall began waited almost the whole
	// stall although its own service time was near zero.
	s := samples[stalled+1]
	if s.latency() < stall/2 || s.done-s.sent > stall/4 {
		t.Errorf("request %d: latency %v, service %v; want the stall in the latency only", stalled+1, s.latency(), s.done-s.sent)
	}
}

// Requests still queued at the cutoff are skipped, not sent.
func TestOpenLoopSkipsAfterCutoff(t *testing.T) {
	samples := openLoop(context.Background(), 1000, 20, 1, 5*time.Millisecond, func(i int) error {
		if i == 0 {
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	})
	skipped := 0
	for _, s := range samples {
		if s.skipped {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("no request was skipped behind a stall longer than the cutoff")
	}
}
