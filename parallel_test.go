package sring

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// designFingerprint is everything about a synthesised design that the
// determinism guarantee covers: the structure (rings), the wavelength
// assignment, the solver statistics, and the evaluated metrics. Wall-clock
// fields (SynthesisTime) are deliberately excluded.
type designFingerprint struct {
	Rings       interface{}
	Assignment  interface{}
	AssignStats interface{}
	Metrics     *Metrics
}

func fingerprint(t *testing.T, d *Design) designFingerprint {
	t.Helper()
	met, err := d.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	return designFingerprint{
		Rings:       d.Rings,
		Assignment:  d.Assignment,
		AssignStats: d.AssignStats,
		Metrics:     met,
	}
}

// TestParallelSynthesisBitIdentical is the pipeline-level determinism
// contract: for every Table I benchmark and every method, synthesis with
// Parallelism 4 must produce the same design — rings, assignments, solver
// stats, metrics — as the fully sequential Parallelism 1 run.
func TestParallelSynthesisBitIdentical(t *testing.T) {
	for _, app := range Benchmarks() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			for _, m := range Methods() {
				seq, err := Synthesize(app, m, Options{Parallelism: 1})
				if err != nil {
					t.Fatalf("%s sequential: %v", m, err)
				}
				par, err := Synthesize(app, m, Options{Parallelism: 4})
				if err != nil {
					t.Fatalf("%s parallel: %v", m, err)
				}
				fs, fp := fingerprint(t, seq), fingerprint(t, par)
				if !reflect.DeepEqual(fs, fp) {
					t.Errorf("%s: parallel design diverged from sequential\n got %+v\nwant %+v", m, fp, fs)
				}
			}
		})
	}
}

// TestParallelSynthesisBitIdenticalMILP repeats the contract with the exact
// MILP assignment enabled (SRing, the paper's method) — the configuration
// where the parallel branch-and-bound actually works. On benchmarks above
// the MILP size gate the solve is skipped identically on both sides, which
// the AssignStats comparison also checks.
//
// The determinism guarantee covers searches that complete within their
// limits; a solve that hits its time limit stops at a wall-clock-dependent
// node and is not reproducible even sequentially, so those benchmarks are
// skipped here (with the limit visible in the skip message).
func TestParallelSynthesisBitIdenticalMILP(t *testing.T) {
	const budget = 5 * time.Second
	for _, app := range Benchmarks() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			opts := Options{Parallelism: 1, UseMILP: true, MILPTimeLimit: budget}
			seq, err := Synthesize(app, MethodSRing, opts)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			if st := seq.AssignStats; st != nil && st.MILPRan && !st.MILPExact {
				t.Skipf("MILP hit the %s time limit; time-limited searches are timing-dependent by design", budget)
			}
			opts.Parallelism = 4
			par, err := Synthesize(app, MethodSRing, opts)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			fs, fp := fingerprint(t, seq), fingerprint(t, par)
			if !reflect.DeepEqual(fs, fp) {
				t.Errorf("parallel MILP design diverged from sequential\n got %+v\nwant %+v", fp, fs)
			}
		})
	}
}

// TestWorkStealingFingerprintDeterministic pins the branch-and-bound
// prefetch queue's determinism end to end (the name predates the queue,
// which replaced a work-stealing pool): for VOPD and D26, SRing synthesis
// with the exact MILP at Parallelism 1, 2 and 8 must produce
// byte-identical AssignStats — including MILPNodeFingerprint, the FNV-1a
// fold of the explored node sequence, which detects any reordering of the
// branch-and-bound commits even when the final design happens to agree.
// MPEG's model, which does run the queue, is pinned under a node budget
// in internal/milp (TestPrefetchQueueMPEGNodeBudget). D26 sits above the MILP
// size gate, so both sides must skip the solve identically
// (MILPRan=false, fingerprint 0), which the comparison also checks.
func TestWorkStealingFingerprintDeterministic(t *testing.T) {
	const budget = 5 * time.Second
	for _, app := range []*Application{VOPD(), D26()} {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			opts := Options{Parallelism: 1, UseMILP: true, MILPTimeLimit: budget}
			seq, err := Synthesize(app, MethodSRing, opts)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			st := seq.AssignStats
			if st != nil && st.MILPRan && !st.MILPExact {
				t.Skipf("MILP hit the %s time limit; time-limited searches are timing-dependent by design", budget)
			}
			if st != nil && st.MILPRan && st.MILPNodes > 0 && st.MILPNodeFingerprint == 0 {
				t.Fatalf("sequential run explored %d nodes but reported fingerprint 0", st.MILPNodes)
			}
			for _, workers := range []int{2, 8} {
				opts.Parallelism = workers
				par, err := Synthesize(app, MethodSRing, opts)
				if err != nil {
					t.Fatalf("parallelism %d: %v", workers, err)
				}
				if !reflect.DeepEqual(seq.AssignStats, par.AssignStats) {
					t.Errorf("parallelism %d: AssignStats diverged\n got %+v\nwant %+v",
						workers, par.AssignStats, seq.AssignStats)
				}
			}
		})
	}
}

// TestEvaluateParallelMatchesSequential: the Evaluate fan-out must return
// the same per-method metrics as the sequential loop.
func TestEvaluateParallelMatchesSequential(t *testing.T) {
	seq, err := Evaluate(MWD(), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Evaluate(MWD(), Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel Evaluate diverged:\n got %+v\nwant %+v", par, seq)
	}
}

// TestEvaluatePartialResults: a failure must carry per-method errors of
// type MethodErrors rather than aborting with a bare error, and the
// returned map must still be usable.
func TestEvaluatePartialResults(t *testing.T) {
	bad := DefaultTech()
	bad.DropDB = -1 // rejected by validation in every method
	res, err := Evaluate(MWD(), Options{Tech: bad})
	if err == nil {
		t.Fatal("Evaluate with an invalid Tech succeeded")
	}
	var me MethodErrors
	ok := false
	if me, ok = err.(MethodErrors); !ok {
		t.Fatalf("Evaluate error is %T, want MethodErrors", err)
	}
	if len(me) != len(Methods()) {
		t.Errorf("%d method errors, want %d (all methods share Tech validation)", len(me), len(Methods()))
	}
	if res == nil {
		t.Error("Evaluate returned a nil map alongside MethodErrors; want the (possibly empty) partial results")
	}
	if len(res) != 0 {
		t.Errorf("%d methods succeeded with an invalid Tech", len(res))
	}
	msg := me.Error()
	for _, m := range Methods() {
		if !strings.Contains(msg, string(m)) {
			t.Errorf("MethodErrors message %q does not mention %s", msg, m)
		}
	}
}

// TestTechNormalization: the zero value means DefaultTech, a negative loss
// is rejected, and a partially populated struct is rejected with a hint —
// uniformly across methods.
func TestTechNormalization(t *testing.T) {
	partial := Tech{PropagationDBPerMM: 0.3, DropDB: 0.5} // no split ratio, no sensitivity
	for _, m := range Methods() {
		if _, err := Synthesize(MWD(), m, Options{Tech: partial}); err == nil {
			t.Errorf("%s accepted a partially populated Tech", m)
		} else if !strings.Contains(err.Error(), "loss.Default()") {
			t.Errorf("%s: error %q does not point at loss.Default()", m, err)
		}
		neg := DefaultTech()
		neg.CrossingDB = -0.1
		if _, err := Synthesize(MWD(), m, Options{Tech: neg}); err == nil {
			t.Errorf("%s accepted a negative loss", m)
		}
	}
}
