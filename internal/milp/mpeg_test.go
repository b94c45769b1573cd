package milp_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	_ "sring/internal/cluster" // registers the SRing constructor
	"sring/internal/milp"
	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/par"
	"sring/internal/pipeline"
	"sring/internal/wavelength"
)

// TestPrefetchQueueMPEGNodeBudget runs the prefetch queue on a real
// wavelength model above the speculation gates: MPEG's Eq. 8 MILP, seeded
// the way wavelength.AssignContext seeds it (improved DSATUR incumbent, one
// spare wavelength), under a fixed node budget so the search is
// timing-independent. Every worker count must commit the same search —
// X, objective, bound, node count and NodeFingerprint — and whenever there
// is a spare core the queue must consume some of what it schedules: a
// window that fills once and then never turns over consumes nothing.
// Parallelism 2 and 8 are capped at GOMAXPROCS (par.ResolveSpeculative), so
// a setting that resolves to an already-run worker count is skipped; on one
// core only the sequential solve runs.
func TestPrefetchQueueMPEGNodeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("solves MPEG's MILP three times")
	}
	const budget = 150
	ctx := context.Background()
	app, err := netlist.ByName("MPEG")
	if err != nil {
		t.Fatal(err)
	}
	infos, w, err := pipeline.PathInfos(ctx, app, "SRing", pipeline.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	heur := wavelength.Improve(infos, wavelength.DSATUR(infos), w)
	m, err := wavelength.BuildMILP(infos, heur.NumLambda+1, w)
	if err != nil {
		t.Fatal(err)
	}
	inc := m.IncumbentVector(infos, heur, w)

	run := func(workers int) (*milp.Result, *obs.Recorder) {
		rec := obs.New()
		sp := rec.StartSpan("test")
		res, err := milp.Solve(m.Prob, milp.Options{
			NodeLimit: budget, TimeLimit: 5 * time.Minute, Parallelism: workers,
			BranchPriority: m.Priority, Incumbent: inc, Obs: sp, Registry: obs.NewRegistry(),
		})
		sp.End()
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		if res.TimeLimitHit {
			t.Fatalf("parallelism %d: time limit hit before the %d-node budget", workers, budget)
		}
		return res, rec
	}
	seq, _ := run(1)
	if seq.Nodes != budget {
		t.Fatalf("sequential run explored %d nodes, want the full budget %d (status %v)", seq.Nodes, budget, seq.Status)
	}
	checked := map[int]bool{1: true} // resolved speculative worker counts
	for _, workers := range []int{2, 8} {
		w := par.ResolveSpeculative(workers)
		if checked[w] {
			continue // capped at the core count to a configuration already run
		}
		checked[w] = true
		got, rec := run(workers)
		if got.Status != seq.Status || got.Objective != seq.Objective || got.Bound != seq.Bound ||
			got.Nodes != seq.Nodes || got.NodeFingerprint != seq.NodeFingerprint {
			t.Errorf("parallelism %d: status/objective/bound/nodes/fingerprint %v/%v/%v/%d/%#x, sequential %v/%v/%v/%d/%#x",
				workers, got.Status, got.Objective, got.Bound, got.Nodes, got.NodeFingerprint,
				seq.Status, seq.Objective, seq.Bound, seq.Nodes, seq.NodeFingerprint)
		}
		if !reflect.DeepEqual(got.X, seq.X) {
			t.Errorf("parallelism %d: X diverged from the sequential solve", workers)
		}
		scheduled := rec.Counter("milp.steal.scheduled").Value()
		wasted := rec.Counter("milp.steal.wasted").Value()
		t.Logf("parallelism %d: scheduled %d, wasted %d", workers, scheduled, wasted)
		if scheduled-wasted <= 0 {
			t.Errorf("parallelism %d: consumed none of %d speculative solves (wasted %d)", workers, scheduled, wasted)
		}
	}
}
