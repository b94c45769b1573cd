package cluster

import (
	"sync"
	"time"

	"sring/internal/obs"
	"sring/internal/par"
)

// resolveSpecWorkers caps speculative probe workers at the core count (see
// par.ResolveSpeculative): look-ahead probes on a machine with no spare
// cores execute serially and steal time from the search's critical path.
// A var so tests can substitute par.Resolve and exercise the prober on
// single-core machines.
var resolveSpecWorkers = par.ResolveSpeculative

// probe is one speculative buildSolution run for a candidate L_max index.
// The goroutine writes sol, its local absorption count and its start and
// end times, then closes done; the channel close orders those writes before
// the search loop's reads.
type probe struct {
	done       chan struct{}
	sol        *Result
	absorbs    obs.Counter
	start, end time.Time
}

// prober runs L_max feasibility probes concurrently while the binary search
// keeps its exact sequential descent. buildSolution is a pure function of
// (graph, lmax, maxTrials, cfg) and each probe grows its rings in an arena
// of its own, so probing a candidate early cannot change its verdict —
// only when it is computed. At every search step the prober
// speculatively starts the probes the descent could visit next (the
// candidate's BST subtree, breadth-first: both children before either
// grandchild), and the search consumes verdicts strictly in its own order,
// so the selected L_max, the absorption totals and every recorded bound
// span match the sequential run exactly. Only the cluster.spec.* counters
// are timing-dependent.
type prober struct {
	g         *graph
	maxTrials int
	cfg       hierConfig
	valueAt   func(k int) float64
	workers   int
	probeH    *obs.Histogram // cluster.probe.ns, shared with the inline path

	wg        sync.WaitGroup
	probes    map[int]*probe // candidate index -> run; search goroutine only
	scheduled int64
	consumed  int64
}

func newProber(g *graph, maxTrials int, cfg hierConfig, valueAt func(k int) float64, workers int, probeH *obs.Histogram) *prober {
	return &prober{
		g:         g,
		maxTrials: maxTrials,
		cfg:       cfg,
		valueAt:   valueAt,
		workers:   workers,
		probeH:    probeH,
		probes:    map[int]*probe{},
	}
}

// launch starts the probe for candidate k unless it is already running.
func (pb *prober) launch(k int) {
	if _, ok := pb.probes[k]; ok {
		return
	}
	pr := &probe{done: make(chan struct{})}
	pb.probes[k] = pr
	pb.scheduled++
	pb.wg.Add(1)
	go func() {
		defer pb.wg.Done()
		defer close(pr.done)
		pb.run(pr, k)
	}()
}

// run evaluates candidate k into pr in a fresh arena.
func (pb *prober) run(pr *probe, k int) {
	pr.start = time.Now()
	pr.sol = buildSolution(newArena(pb.g), pb.valueAt(k), pb.maxTrials, &pr.absorbs, pb.cfg)
	pr.end = time.Now()
	pb.probeH.RecordDuration(pr.end.Sub(pr.start))
}

// speculate starts probes for up to `workers` candidates reachable from the
// current search interval [lo, hi]: the interval's mid (the value the search
// needs right now) plus its possible descendants in BST breadth-first
// order, so the likeliest next candidates go first.
func (pb *prober) speculate(lo, hi int) {
	queue := [][2]int{{lo, hi}}
	for budget := pb.workers; budget > 0 && len(queue) > 0; {
		iv := queue[0]
		queue = queue[1:]
		if iv[0] > iv[1] {
			continue
		}
		mid := (iv[0] + iv[1]) / 2
		pb.launch(mid)
		budget--
		queue = append(queue, [2]int{iv[0], mid - 1}, [2]int{mid + 1, iv[1]})
	}
}

// get blocks until candidate k's probe finishes and returns it: the
// solution, the absorption count its growth performed and its run times.
// The caller adds the count to the shared counter, so absorption telemetry
// accumulates in consumption order — identical to the sequential run;
// wasted probes contribute nothing.
func (pb *prober) get(k int) *probe {
	pr, ok := pb.probes[k]
	if !ok {
		// Defensive: speculate always launches the current mid first, but
		// solve inline rather than rely on that.
		pr = &probe{}
		pb.run(pr, k)
		return pr
	}
	<-pr.done
	pb.consumed++
	return pr
}

// close waits for outstanding speculative probes and flushes the
// speculation diagnostics.
func (pb *prober) close(rec *obs.Recorder) {
	pb.wg.Wait()
	rec.Add("cluster.spec.scheduled", pb.scheduled)
	rec.Add("cluster.spec.wasted", pb.scheduled-pb.consumed)
}
