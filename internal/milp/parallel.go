package milp

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sring/internal/lp"
	"sring/internal/obs"
	"sring/internal/par"
)

// evaluator abstracts how solveBB obtains LP relaxation solutions for the
// nodes it explores. The sequential implementation solves inline; the
// parallel one pre-solves the frontier's best nodes speculatively on a
// prefetch queue. Either way the main loop consumes solutions in its own
// (canonical) order, so the search trajectory is identical.
type evaluator interface {
	// solve returns the LP relaxation solution for nd, plus the optimal
	// basis for warm-starting its children (nil unless Optimal). open is
	// the current frontier, which a speculative implementation may scan to
	// schedule work ahead; it must not be mutated.
	solve(nd *node, open *nodeHeap) (*lp.Solution, *lp.Basis, error)
	// publish announces a new (lower) incumbent objective so speculative
	// workers can skip nodes the main loop is guaranteed to prune.
	publish(objective float64)
	// close stops any workers and flushes speculation telemetry.
	close()
}

// specMinProblemSize gates speculation on LP size (vars × presolved rows).
// Below it a relaxation solves in microseconds, so handing nodes to another
// goroutine costs more than the overlap buys — the j=4 slowdown on MWD and
// VOPD in BENCH_2026-08-06-warmstart.json. MWD (44×90) and VOPD (90×190)
// fall under the threshold; MPEG (274×471) and the 8PM apps stay above it.
// A var only so tests can lower the gate to exercise the pool on
// deliberately small instances.
var specMinProblemSize = 50000

// specMinOpenNodes suppresses speculative scheduling while the frontier is
// smaller than this: the next pops are consumed immediately after being
// pushed, so a speculative solve would only race the main loop for the same
// node. Trees that never grow past it (small apps, root-proven solves)
// therefore never start the worker pool at all. A var for the same test
// reason.
var specMinOpenNodes = 4

// resolveSpecWorkers caps speculative workers at the core count (see
// par.ResolveSpeculative); tests substitute par.Resolve to exercise the
// pool on single-core machines.
var resolveSpecWorkers = par.ResolveSpeculative

// newEvaluator picks the implementation for the resolved worker count and
// problem size. interrupt (a context's Done channel, possibly nil) is
// installed in every LP solver the evaluator creates, the workers'
// included. The choice never changes results — both evaluators feed the
// main loop the same canonical solutions — only where they are computed.
func newEvaluator(pp *prepped, parallelism int, deadline time.Time, interrupt <-chan struct{}, rec *obs.Recorder, reg *obs.Registry) (evaluator, error) {
	rs, err := newRelaxSolver(pp, interrupt, reg)
	if err != nil {
		return nil, err
	}
	size := pp.p.LP.NumVars * (len(pp.p.LP.Constraints) + 1)
	if workers := resolveSpecWorkers(parallelism); workers > 1 && size >= specMinProblemSize {
		return newPrefetchQueue(pp, rs, workers, deadline, interrupt, rec, reg), nil
	}
	return &inlineEvaluator{rs: rs, deadline: deadline, rec: rec}, nil
}

// inlineEvaluator is the sequential path: every relaxation is solved on the
// calling goroutine at the moment the main loop needs it, against one
// persistent bounded-simplex arena.
type inlineEvaluator struct {
	rs       *relaxSolver
	deadline time.Time
	rec      *obs.Recorder
}

func (e *inlineEvaluator) solve(nd *node, _ *nodeHeap) (*lp.Solution, *lp.Basis, error) {
	sol, bas, err := e.rs.solve(nd, e.deadline)
	if err == nil {
		lp.AccumulateStats(e.rec, sol)
	}
	return sol, bas, err
}

func (e *inlineEvaluator) publish(float64) {}
func (e *inlineEvaluator) close()          {}

// lpFuture is one speculative relaxation solve. Its lifecycle is governed
// by the claim word: 0 while queued, 1 once claimed — by the worker that
// dequeued it (which then writes sol/err and closes done) or by the main
// loop (which reclaims the node to solve it inline, or evicts it from the
// window, leaving the stale queue entry for a worker to dequeue and drop).
// The compare-and-swap makes the claims mutually exclusive, and the channel
// close orders the worker's writes before the main loop's reads.
type lpFuture struct {
	nd      *node
	claim   atomic.Uint32
	done    chan struct{}
	sol     *lp.Solution
	bas     *lp.Basis
	err     error
	skipped bool // worker declined: the node is certain to be pruned
}

// finished reports, without blocking, whether a worker has completed fut.
func (fut *lpFuture) finished() bool {
	select {
	case <-fut.done:
		return true
	default:
		return false
	}
}

// prefetchQueue solves the LP relaxations of the frontier's best nodes on a
// fixed set of workers fed by one FIFO queue, while the main loop runs the
// exact sequential control flow.
//
// Scheduling: each time the main loop asks for a node, prefetch makes the
// futures cover exactly the frontier's best 2×workers nodes in canonical
// nodeLess order — the order the main loop pops in, so the window turns
// over as the search advances instead of holding nodes it never reaches.
// A future whose node has left the window is stale: an unclaimed one is
// claimed away (a worker drops its queue entry), a finished one is
// forgotten, and a running one is left to finish and looked at again on
// the next call. The window's missing futures are queued best first. No
// worker owns a node: the warm start refactorises the parent basis
// canonically, so any worker's arena serves any node equally well.
//
// Determinism: the main loop alone pops nodes, prunes, branches, updates
// pseudocosts and accepts incumbents — workers only ever run
// relaxSolver.solve, a pure function of (prepped problem, node): a warm
// start refactorises the node's parent basis canonically, so the result
// does not depend on which worker's arena ran it, nor on any tableau
// state left by earlier solves. A speculative result is consumed only when
// the main loop reaches that node in canonical heap order, so
// explored-node counts, fingerprints, incumbents, bounds and the final X
// match the sequential solve bit for bit. LP pivot counters are attributed
// at consumption time (lp.AccumulateStats), so lp.* telemetry matches the
// sequential run too; only the milp.steal.* diagnostics are
// timing-dependent.
//
// Workers skip a node when its parent bound already exceeds the published
// incumbent: the incumbent is monotone non-increasing and published only by
// the main loop, so the main loop's own prune test — the same inequality
// against an equal-or-lower objective — is then guaranteed to discard the
// node before asking for its solution. The consume path still re-solves
// inline if a skipped future is ever reached, keeping exactness independent
// of that argument.
type prefetchQueue struct {
	pp        *prepped
	rs        *relaxSolver // main-goroutine solver for non-speculated nodes
	deadline  time.Time
	interrupt <-chan struct{} // installed in each worker's LP solver
	rec       *obs.Recorder
	reg       *obs.Registry // aggregate registry for worker LP solvers
	workers   int

	// mu guards queue and closed; cond wakes idle workers when work is
	// queued or the pool closes.
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*lpFuture
	closed bool
	wg     sync.WaitGroup
	// started is set (by the main goroutine) once the workers have been
	// launched; they start lazily on the first queued future, so a solve
	// whose frontier never reaches specMinOpenNodes pays nothing.
	started bool

	// incumbent is the published incumbent objective as math.Float64bits
	// (+Inf until the first incumbent). Written by the main loop, read by
	// workers.
	incumbent atomic.Uint64

	// futures is touched only by the main goroutine (solve/close); workers
	// see futures solely through the queue.
	futures   map[*node]*lpFuture
	scheduled int64
	consumed  int64
	reclaimed int64
}

func newPrefetchQueue(pp *prepped, rs *relaxSolver, workers int, deadline time.Time, interrupt <-chan struct{}, rec *obs.Recorder, reg *obs.Registry) *prefetchQueue {
	f := &prefetchQueue{
		pp:        pp,
		rs:        rs,
		deadline:  deadline,
		interrupt: interrupt,
		rec:       rec,
		reg:       reg,
		workers:   workers,
		futures:   make(map[*node]*lpFuture),
	}
	f.cond = sync.NewCond(&f.mu)
	f.incumbent.Store(math.Float64bits(math.Inf(1)))
	return f
}

// next blocks until a future is queued or the pool closes (nil).
func (f *prefetchQueue) next() *lpFuture {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.queue) == 0 && !f.closed {
		f.cond.Wait()
	}
	if f.closed {
		return nil
	}
	fut := f.queue[0]
	f.queue[0] = nil
	f.queue = f.queue[1:]
	return fut
}

func (f *prefetchQueue) worker() {
	defer f.wg.Done()
	rs, err := newRelaxSolver(f.pp, f.interrupt, f.reg)
	for fut := f.next(); fut != nil; fut = f.next() {
		if !fut.claim.CompareAndSwap(0, 1) {
			continue // reclaimed or evicted by the main loop: stale entry
		}
		// A failed arena (the main goroutine's identical construction
		// succeeded, so this cannot normally happen) degrades to skipped
		// futures, which the consume path re-solves inline.
		if inc := math.Float64frombits(f.incumbent.Load()); err != nil || fut.nd.bound >= inc-1e-9 {
			fut.skipped = true
		} else {
			fut.sol, fut.bas, fut.err = rs.solve(fut.nd, f.deadline)
		}
		close(fut.done)
	}
}

func (f *prefetchQueue) publish(objective float64) {
	// Only the main loop publishes, and incumbents only improve, so a plain
	// store keeps the value monotone non-increasing.
	f.incumbent.Store(math.Float64bits(objective))
}

// frontierBest returns the k best nodes of the heap in nodeLess order
// without modifying it: a best-first walk of the heap tree, in which the
// next best node is always a child of one already taken.
func frontierBest(open *nodeHeap, k int) []*node {
	h := *open
	best := make([]*node, 0, k)
	cand := []int{0} // heap indices whose parent is already taken
	for len(best) < k && len(best) < len(h) {
		bi := 0
		for i := range cand {
			if nodeLess(h[cand[i]], h[cand[bi]]) {
				bi = i
			}
		}
		at := cand[bi]
		cand[bi] = cand[len(cand)-1]
		cand = cand[:len(cand)-1]
		best = append(best, h[at])
		for c := 2*at + 1; c <= 2*at+2 && c < len(h); c++ {
			cand = append(cand, c)
		}
	}
	return best
}

// prefetch makes the futures cover exactly the frontier's best 2×workers
// nodes: stale futures are evicted (see prefetchQueue) and the missing ones
// queued best first.
func (f *prefetchQueue) prefetch(open *nodeHeap) {
	if open.Len() < specMinOpenNodes {
		return
	}
	window := frontierBest(open, 2*f.workers)
	for nd, fut := range f.futures {
		if slices.Contains(window, nd) {
			continue
		}
		if fut.claim.CompareAndSwap(0, 1) || fut.finished() {
			delete(f.futures, nd)
		}
	}
	var fresh []*lpFuture
	for _, nd := range window {
		if _, ok := f.futures[nd]; !ok {
			fut := &lpFuture{nd: nd, done: make(chan struct{})}
			f.futures[nd] = fut
			fresh = append(fresh, fut)
		}
	}
	if len(fresh) == 0 {
		return
	}
	if !f.started {
		f.started = true
		f.wg.Add(f.workers)
		for w := 0; w < f.workers; w++ {
			go f.worker()
		}
	}
	f.scheduled += int64(len(fresh))
	f.mu.Lock()
	f.queue = append(f.queue, fresh...)
	f.mu.Unlock()
	f.cond.Broadcast()
}

// solveInline runs nd on the main goroutine's own solver, attributing LP
// telemetry immediately.
func (f *prefetchQueue) solveInline(nd *node) (*lp.Solution, *lp.Basis, error) {
	sol, bas, err := f.rs.solve(nd, f.deadline)
	if err == nil {
		lp.AccumulateStats(f.rec, sol)
	}
	return sol, bas, err
}

func (f *prefetchQueue) solve(nd *node, open *nodeHeap) (*lp.Solution, *lp.Basis, error) {
	fut, ok := f.futures[nd]
	delete(f.futures, nd)
	// Turn the window over before (possibly) blocking, so workers stay
	// busy while the main loop waits.
	f.prefetch(open)
	if !ok {
		return f.solveInline(nd)
	}
	if fut.claim.CompareAndSwap(0, 1) {
		// Still queued unclaimed: reclaim it and solve inline rather than
		// wait for a worker to get around to it.
		f.reclaimed++
		return f.solveInline(nd)
	}
	<-fut.done
	if fut.skipped {
		// The skip argument in the type comment says the main loop prunes
		// such nodes before asking; re-solve inline so correctness never
		// rests on it.
		return f.solveInline(nd)
	}
	f.consumed++
	if fut.err == nil {
		lp.AccumulateStats(f.rec, fut.sol)
	}
	return fut.sol, fut.bas, fut.err
}

// close stops the workers — each finishes the solve it is running, and
// queued futures are abandoned — and flushes the speculation diagnostics.
func (f *prefetchQueue) close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
	f.wg.Wait()
	f.rec.Add("milp.steal.scheduled", f.scheduled)
	f.rec.Add("milp.steal.wasted", f.scheduled-f.consumed)
	f.rec.Add("milp.steal.reclaimed", f.reclaimed)
}
