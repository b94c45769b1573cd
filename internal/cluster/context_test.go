package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"sring/internal/netlist"
)

// flipCtx reports Canceled from its nth Err() call onward — a deterministic
// way to cancel after exactly n binary-search iterations. Done() is nil (the
// search polls Err directly), and once flipped it stays flipped, preserving
// the context contract.
type flipCtx struct {
	context.Context
	calls   atomic.Int32
	after   int32
	flipped atomic.Bool
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) > c.after || c.flipped.Load() {
		c.flipped.Store(true)
		return context.Canceled
	}
	return nil
}

// A cancellation mid-search keeps the best feasible construction found so
// far, flagged Cancelled, instead of failing.
func TestSynthesizeContextKeepsBestOnCancel(t *testing.T) {
	full, err := Synthesize(netlist.MWD(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Let three L_max probes run, then cancel. The binary search needs
	// h = 6 iterations to converge, so the cancel strikes mid-descent.
	ctx := &flipCtx{Context: context.Background(), after: 3}
	res, err := SynthesizeContext(ctx, netlist.MWD(), Options{})
	if err != nil {
		t.Fatalf("cancelled search returned error %v, want best-so-far result", err)
	}
	if !res.Cancelled {
		t.Error("Result.Cancelled not set")
	}
	if len(res.Rings) == 0 {
		t.Error("cancelled result has no rings")
	}
	// The interrupted search saw a prefix of the candidate bounds, so its
	// L_max can only be as good as the full search's — never better.
	if res.Lmax < full.Lmax-1e-9 {
		t.Errorf("cancelled Lmax %v beats full search %v", res.Lmax, full.Lmax)
	}
}

// A context cancelled before any feasible bound is found propagates the
// context error.
func TestSynthesizeContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SynthesizeContext(ctx, netlist.MWD(), Options{})
	if res != nil {
		t.Errorf("pre-cancelled search returned %v, want nil", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want wrapped context.Canceled", err)
	}
}
