// Package cluster implements the SRing sub-ring construction method
// (paper Sec. III-A): nodes are clustered by communication requirement and
// physical location, each cluster is connected by one intra-cluster sub-ring
// waveguide, and at most one additional inter-cluster sub-ring connects all
// nodes with cross-cluster traffic — so every node has at most two senders.
//
// The maximum permissible signal-path length L_max is binary-searched over a
// balanced tree of 2^h − 1 equidistant values in [d1, d2], where d1 is the
// maximum Manhattan distance between communicating nodes and d2 the longest
// signal path of a conventional sequential ring. For each candidate L_max,
// sub-rings grow by absorption: a candidate vertex is inserted into the ring
// edge that minimises the resulting longest signal path, rejecting
// insertions that would exceed L_max.
package cluster

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"sring/internal/netlist"
	"sring/internal/obs"
	"sring/internal/ring"
)

// Options tunes the synthesis.
type Options struct {
	// TreeHeight is the paper's h: the L_max search tree holds 2^h − 1
	// equidistant values. Zero means 6 (63 values).
	TreeHeight int
	// MaxInitialTrials caps how many initial vertices are tried per
	// cluster round. The paper tries every unclustered vertex, which is
	// O(n) growths per round and fine at benchmark scale (n <= 26); for
	// larger networks a cap trades a little quality for a lot of runtime.
	// Zero means unlimited (the paper's behaviour).
	MaxInitialTrials int
	// InterRingMax bounds how many nodes the classic single inter-ring
	// construction is attempted for. When more nodes than this carry
	// escalated traffic, the escalation set is recursively partitioned
	// into a further level of sub-rings (clusters of clusters) instead of
	// being forced onto one ring. Zero means 32, comfortably above the
	// ≤26-node paper benchmarks, which therefore always take the paper's
	// exact two-level construction.
	InterRingMax int
	// MaxLevels caps the hierarchy depth, counting the cluster level.
	// Zero means 8.
	MaxLevels int
	// Obs, when non-nil, is the parent span under which the construction
	// records its telemetry: the L_max binary search (one child span per
	// evaluated bound with its feasibility verdict), absorption-step
	// counters, and the final cluster/ring counts.
	Obs *obs.Span
	// Registry receives aggregate telemetry: cluster.probe.ns, the
	// distribution of per-candidate feasibility-probe times across runs.
	// Nil means the process-wide obs.Default() registry.
	Registry *obs.Registry
}

// Result is a complete sub-ring construction.
type Result struct {
	// Clusters lists the node sets, sorted by ID within each cluster and
	// by smallest member across clusters. Singleton clusters (nodes whose
	// traffic is all inter-cluster) carry no intra ring.
	Clusters [][]netlist.NodeID
	// Rings holds the intra-cluster sub-rings followed by the escalation
	// levels' inter sub-rings in level order. Ring IDs are dense indices
	// into this slice; each ring's Level is 0 for intra rings and k >= 1
	// for level-k inter rings.
	Rings []*ring.Ring
	// InterRing points at the inter-cluster ring inside Rings when the
	// construction has the paper's two-level shape (exactly one inter
	// ring), nil otherwise.
	InterRing *ring.Ring
	// Levels is the hierarchy depth: 1 when all traffic is intra-cluster,
	// 2 for the paper's cluster + single-inter-ring shape, more when the
	// escalation set was recursively partitioned.
	Levels int
	// Escalated counts the messages carried above level 1, i.e. the
	// traffic the paper's two-level construction could not have placed.
	Escalated int
	// RingForMessage maps each message index to the ID of the ring that
	// carries it.
	RingForMessage []int
	// Lmax is the bound under which the returned solution was constructed
	// (+Inf if only the unbounded fallback succeeded).
	Lmax float64
	// D1, D2 bound the search range.
	D1, D2 float64
	// Evaluated counts how many L_max values the binary search tried.
	Evaluated int
	// Cancelled reports that the L_max binary search was interrupted by
	// context cancellation: the construction is the best (smallest) feasible
	// L_max found before the interrupt, valid but possibly not minimal.
	Cancelled bool
}

// Synthesize runs the SRing clustering with no cancellation hook. See
// SynthesizeContext.
func Synthesize(app *netlist.Application, opt Options) (*Result, error) {
	return SynthesizeContext(context.Background(), app, opt)
}

// SynthesizeContext runs the SRing clustering for the application.
// Cancelling ctx stops the L_max binary search after the candidate being
// evaluated: if a feasible clustering was already found it is returned
// with Result.Cancelled set; otherwise the context error is returned.
func SynthesizeContext(ctx context.Context, app *netlist.Application, opt Options) (*Result, error) {
	if err := app.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	h := opt.TreeHeight
	if h == 0 {
		h = 6
	}
	if h < 1 || h > 20 {
		return nil, fmt.Errorf("cluster: tree height %d out of range [1, 20]", h)
	}

	sp := opt.Obs.StartSpan("cluster.synthesize")
	defer sp.End()
	iters := sp.Recorder().Counter("cluster.search.iterations")
	absorb := sp.Recorder().Counter("cluster.absorptions")

	d1 := app.MaxCommDistance()
	d2 := conventionalRingBound(app)
	g := newGraph(app)
	sp.SetInt("tree_height", int64(h))
	sp.SetFloat("d1", d1)
	sp.SetFloat("d2", d2)

	// tryBound evaluates one L_max candidate in one reused arena and wraps
	// the verdict in a cluster.bound span carrying the probe's start and
	// end, so the bound spans account for the search's time.
	cfg := opt.hierConfig()
	probeH := obs.OrDefault(opt.Registry).Histogram("cluster.probe.ns")
	ar := newArena(g)
	tryBound := func(lmax float64) *Result {
		start := time.Now()
		sol := buildSolution(ar, lmax, opt.MaxInitialTrials, absorb, cfg)
		end := time.Now()
		probeH.RecordDuration(end.Sub(start))
		iters.Add(1)
		bsp := sp.SpanAt("cluster.bound", start, end)
		bsp.SetFloat("lmax", lmax)
		bsp.SetBool("feasible", sol != nil)
		if sol != nil {
			bsp.SetInt("clusters", int64(len(sol.Clusters)))
		}
		return sol
	}

	// Binary search over the 2^h − 1 equidistant interior values of
	// [d1, d2] (the paper's balanced BST descent: valid -> left child,
	// invalid -> right child).
	var best *Result
	cancelled := false
	evaluated := 0
	lo, hi := 1, 1<<h-1
	for lo <= hi {
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		mid := (lo + hi) / 2
		lmax := d1 + float64(mid)*(d2-d1)/float64(int(1)<<h)
		evaluated++
		if sol := tryBound(lmax); sol != nil {
			sol.Lmax = lmax
			best = sol
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if best == nil {
		if cancelled {
			// Nothing feasible yet: there is no incumbent to degrade to.
			return nil, fmt.Errorf("cluster: %w", ctx.Err())
		}
		// Right edge of the range, then the unbounded fallback (always
		// feasible: every communication component collapses into one
		// cluster and no inter ring is needed).
		evaluated++
		if sol := tryBound(d2); sol != nil {
			sol.Lmax = d2
			best = sol
		} else {
			evaluated++
			sol = tryBound(math.Inf(1))
			if sol == nil {
				return nil, fmt.Errorf("cluster: no feasible clustering for %s (internal error)", app.Name)
			}
			sol.Lmax = math.Inf(1)
			best = sol
		}
	}
	best.D1, best.D2 = d1, d2
	best.Evaluated = evaluated
	best.Cancelled = cancelled
	sp.SetInt("evaluated", int64(evaluated))
	sp.SetInt("clusters", int64(len(best.Clusters)))
	sp.SetInt("rings", int64(len(best.Rings)))
	sp.SetBool("inter_ring", best.InterRing != nil)
	sp.SetInt("levels", int64(best.Levels))
	sp.SetFloat("lmax", best.Lmax)
	sp.SetBool("cancelled", cancelled)
	// Aggregate hierarchy telemetry, recorded once from the selected
	// solution:
	// cluster.level.depth   — hierarchy depth distribution across runs;
	// cluster.level.rings   — inter rings above level 1 (0 for the paper's
	//                         two-level shape);
	// cluster.level.escalated — messages carried above level 1.
	reg := obs.OrDefault(opt.Registry)
	reg.Histogram("cluster.level.depth").Record(int64(best.Levels))
	deep := 0
	for _, r := range best.Rings {
		if r.Level >= 2 {
			deep++
		}
	}
	reg.Counter("cluster.level.rings").Add(int64(deep))
	reg.Counter("cluster.level.escalated").Add(int64(best.Escalated))
	return best, nil
}

// conventionalRingBound returns d2: the longest signal path if all active
// nodes are connected sequentially as in a conventional dual-direction ring
// router, taking each message's shorter direction.
func conventionalRingBound(app *netlist.Application) float64 {
	order := app.ActiveNodes()
	cw := &ring.Ring{ID: 0, Order: order}
	ccw := cw.Reversed()
	var worst float64
	for _, m := range app.Messages {
		a, err1 := cw.PathLength(app, m.Src, m.Dst)
		b, err2 := ccw.PathLength(app, m.Src, m.Dst)
		if err1 != nil || err2 != nil {
			continue // inactive endpoints cannot occur: both sides messaged
		}
		if l := math.Min(a, b); l > worst {
			worst = l
		}
	}
	return worst
}

// grown is a grown sub-ring candidate: its ring order, or just the initial
// vertex for a singleton, and the longest signal path on it.
type grown struct {
	order   []netlist.NodeID
	longest float64
}

// growCluster grows an intra-cluster sub-ring from the initial vertex under
// lmax, absorbing communication-adjacent available vertices. A vertex with
// no available neighbours yields a singleton.
func (a *arena) growCluster(initial netlist.NodeID, lmax float64, absorb *obs.Counter) grown {
	// Nearest available communication partner forms the initial cluster.
	nearest := a.nearest(initial, a.adj[initial])
	if nearest < 0 {
		return grown{order: []netlist.NodeID{initial}}
	}
	order, longest := a.pair(initial, nearest)
	if longest > lmax {
		// Cannot even pair with the nearest partner: singleton. (Possible
		// only for L_max below d1, which the search range excludes, but we
		// guard anyway.)
		return grown{order: []netlist.NodeID{initial}}
	}

	ncand := a.addCandidates(order, initial) + a.addCandidates(order, nearest)
	for ncand > 0 {
		cand, at, longest2, ok := a.bestAbsorption(order, a.cand, lmax)
		if !ok {
			break
		}
		order = a.absorb(order, cand, at)
		longest = longest2
		absorb.Add(1)
		a.cand[cand] = false
		ncand += a.addCandidates(order, cand) - 1
	}
	// Every candidate left is a partner of a member: clear them all so cand
	// is all false for the next ring.
	for _, v := range order {
		for _, u := range a.adj[v] {
			a.cand[u] = false
		}
	}
	return grown{order: order, longest: longest}
}

// nearest returns the available node in from closest to v (ties: smaller
// ID), or -1 if none is available.
func (a *arena) nearest(v netlist.NodeID, from []netlist.NodeID) netlist.NodeID {
	var best netlist.NodeID = -1
	bestDist := math.Inf(1)
	for _, u := range from {
		if !a.avail[u] {
			continue
		}
		d := a.app.Pos(v).Manhattan(a.app.Pos(u))
		if d < bestDist || (d == bestDist && (best < 0 || u < best)) {
			best, bestDist = u, d
		}
	}
	return best
}

// addCandidates marks v's available partners off the indexed ring order as
// absorption candidates and returns how many it newly marked.
func (a *arena) addCandidates(order []netlist.NodeID, v netlist.NodeID) int {
	k := 0
	for _, u := range a.adj[v] {
		if a.avail[u] && !a.cand[u] && !onRing(order, a.pos, u) {
			a.cand[u] = true
			k++
		}
	}
	return k
}

// hierConfig resolves the multi-level options for buildSolution.
type hierConfig struct {
	interMax  int // escalation sets larger than this recurse into another level
	maxLevels int // hierarchy depth cap, counting the cluster level
}

func (o Options) hierConfig() hierConfig {
	cfg := hierConfig{interMax: o.InterRingMax, maxLevels: o.MaxLevels}
	if cfg.interMax == 0 {
		cfg.interMax = defaultInterRingMax
	}
	if cfg.maxLevels == 0 {
		cfg.maxLevels = defaultMaxLevels
	}
	return cfg
}

// defaultInterRingMax is comfortably above the ≤26-node paper benchmarks, so
// they always take the paper's exact two-level construction; the 64-node
// scale apps typically do too, while 128 nodes and up recurse.
const (
	defaultInterRingMax = 32
	defaultMaxLevels    = 8
)

// levelGroups is one escalation level of the hierarchy: the indices of the
// messages that reached it (not carried by any lower level) and the node
// groups, each with its grown sub-ring, formed there.
type levelGroups struct {
	pool   []int
	groups []grown
}

// growLevel partitions the given node set (ascending) into grown sub-rings
// under lmax: rounds of trying each available vertex as the initial vertex
// and keeping the best grown ring (the paper's cluster-formation loop,
// reused verbatim at every hierarchy level).
func (a *arena) growLevel(nodes []netlist.NodeID, lmax float64, maxTrials int, absorb *obs.Counter) []grown {
	for _, id := range nodes {
		a.avail[id] = true
	}
	var out []grown
	ids := make([]netlist.NodeID, 0, len(nodes))
	for left := len(nodes); left > 0; {
		ids = ids[:0]
		for _, id := range nodes {
			if a.avail[id] {
				ids = append(ids, id)
			}
		}
		// Try each available vertex as the initial vertex; keep the grown
		// cluster with the shortest longest signal path (ties: larger
		// cluster, then smaller initial ID). MaxInitialTrials caps the
		// candidate set for large networks.
		var best grown
		for i, v := range sampleTrials(ids, maxTrials) {
			if g := a.growCluster(v, lmax, absorb); i == 0 || better(g, best) {
				best = g
			}
		}
		out = append(out, best)
		for _, m := range best.order {
			a.avail[m] = false
		}
		left -= len(best.order)
	}
	return out
}

// sampleTrials caps the initial-vertex candidate list with a deterministic
// spread over the available vertices. maxTrials <= 0 means no cap.
func sampleTrials(ids []netlist.NodeID, maxTrials int) []netlist.NodeID {
	if maxTrials <= 0 || len(ids) <= maxTrials {
		return ids
	}
	sampled := make([]netlist.NodeID, 0, maxTrials)
	step := float64(len(ids)) / float64(maxTrials)
	for k := 0; k < maxTrials; k++ {
		sampled = append(sampled, ids[int(float64(k)*step)])
	}
	return sampled
}

// groupIndex maps every member of every group to its group's index, and
// every other node to -1.
func (a *arena) groupIndex(groups []grown) []int {
	of := make([]int, a.app.N())
	for i := range of {
		of[i] = -1
	}
	for gi, g := range groups {
		for _, m := range g.order {
			of[m] = gi
		}
	}
	return of
}

// buildSolution attempts a full clustering under lmax. It returns nil if
// the escalation levels cannot all be closed (the paper's "invalid
// solution": move L_max to its right child).
//
// Level 0 is the paper's cluster formation over all active nodes. Messages
// crossing clusters escalate to level 1; while the escalated node set is
// larger than cfg.interMax the set is recursively partitioned into another
// level of sub-rings by the same absorption growth (clusters of clusters),
// with the messages still crossing groups escalating further. Once the set
// fits — or the recursion stops making progress or hits cfg.maxLevels — a
// single terminal ring over all remaining nodes closes the hierarchy, the
// paper's inter-ring construction verbatim. Every node therefore sends on
// at most one ring per level it appears in, the multi-level extension of
// the paper's ≤2-senders invariant.
func buildSolution(a *arena, lmax float64, maxTrials int, absorb *obs.Counter, cfg hierConfig) *Result {
	app := a.app
	clusters := a.growLevel(a.active, lmax, maxTrials, absorb)
	clusterOf := a.groupIndex(clusters)

	// Messages crossing clusters escalate to level 1.
	var pool []int
	for i, m := range app.Messages {
		if clusterOf[m.Src] != clusterOf[m.Dst] {
			pool = append(pool, i)
		}
	}

	var upper []levelGroups
	for level := 1; len(pool) > 0; level++ {
		inPool := make([]bool, app.N())
		for _, i := range pool {
			inPool[app.Messages[i].Src], inPool[app.Messages[i].Dst] = true, true
		}
		var nodes []netlist.NodeID
		for id, ok := range inPool {
			if ok {
				nodes = append(nodes, netlist.NodeID(id))
			}
		}
		if len(nodes) > cfg.interMax && level < cfg.maxLevels {
			// Too many escalated nodes for one ring: partition them into a
			// further level of sub-rings and escalate what still crosses.
			groups := a.growLevel(nodes, lmax, maxTrials, absorb)
			groupOf := a.groupIndex(groups)
			var next []int
			for _, i := range pool {
				if m := app.Messages[i]; groupOf[m.Src] != groupOf[m.Dst] {
					next = append(next, i)
				}
			}
			// If no message was absorbed at this level, grouping made no
			// progress: fall back to the terminal single ring.
			if len(next) < len(pool) {
				upper = append(upper, levelGroups{pool: pool, groups: groups})
				pool = next
				continue
			}
		}
		order := a.buildInterRing(nodes, lmax, maxTrials, absorb)
		if order == nil {
			return nil // no valid initial vertex: solution invalid
		}
		upper = append(upper, levelGroups{pool: pool, groups: []grown{{order: order}}})
		break
	}

	return a.assembleResult(clusters, clusterOf, upper)
}

// better orders grown clusters: shorter longest path wins, then more
// members, then smaller smallest ID.
func better(a, b grown) bool {
	if a.longest != b.longest {
		return a.longest < b.longest
	}
	if len(a.order) != len(b.order) {
		return len(a.order) > len(b.order)
	}
	return slices.Min(a.order) < slices.Min(b.order)
}

// buildInterRing constructs the inter-cluster sub-ring over all interNodes
// (ascending). Every node in the set must be absorbed; each is tried as the
// initial vertex and the valid ring with the shortest longest path wins.
// Returns nil if no initial vertex yields a valid complete ring.
func (a *arena) buildInterRing(interNodes []netlist.NodeID, lmax float64, maxTrials int, absorb *obs.Counter) []netlist.NodeID {
	if len(interNodes) < 2 {
		return nil
	}
	var bestOrder []netlist.NodeID
	bestLongest := math.Inf(1)
	for _, v := range sampleTrials(interNodes, maxTrials) {
		order, longest, ok := a.growInter(v, interNodes, lmax, absorb)
		if ok && longest < bestLongest {
			bestOrder, bestLongest = order, longest
		}
	}
	return bestOrder
}

// growInter grows the inter ring from initial, absorbing adjacent inter
// nodes first and falling back to the remaining ones, until all inter nodes
// are on the ring or no valid absorption exists. Partners are looked up in
// the whole communication graph: only the remaining (inter) nodes are ever
// considered, so this equals the inter graph's adjacency.
func (a *arena) growInter(initial netlist.NodeID, all []netlist.NodeID, lmax float64, absorb *obs.Counter) ([]netlist.NodeID, float64, bool) {
	// avail marks the remaining nodes while the inter ring grows.
	for _, id := range all {
		a.avail[id] = id != initial
	}
	defer func() {
		for _, id := range all {
			a.avail[id], a.cand[id] = false, false
		}
	}()
	// Nearest partner (adjacent preferred, else nearest remaining).
	first := a.nearest(initial, a.adj[initial])
	if first < 0 {
		if first = a.nearest(initial, all); first < 0 {
			return nil, 0, false
		}
	}
	a.avail[first] = false
	order, longest := a.pair(initial, first)
	if longest > lmax {
		return nil, 0, false
	}

	// Candidates: remaining nodes adjacent to a member; if none, all
	// remaining (the inter graph may be disconnected, but a single ring
	// must still carry everything).
	ncand := a.addCandidates(order, initial) + a.addCandidates(order, first)
	for left := len(all) - 2; left > 0; left-- {
		cands := a.cand
		if ncand == 0 {
			cands = a.avail
		}
		cand, at, longest2, ok := a.bestAbsorption(order, cands, lmax)
		if !ok {
			return nil, 0, false // stuck before absorbing everyone
		}
		order = a.absorb(order, cand, at)
		longest = longest2
		absorb.Add(1)
		a.avail[cand] = false
		if a.cand[cand] {
			a.cand[cand] = false
			ncand--
		}
		ncand += a.addCandidates(order, cand)
	}
	return order, longest, true
}

// assembleResult freezes clusters and the escalation levels into a Result,
// fixing each ring's direction to the one minimising its longest signal
// path over the messages it carries.
func (a *arena) assembleResult(clusters []grown, clusterOf []int, upper []levelGroups) *Result {
	app := a.app
	res := &Result{}
	intraRingOf := make([]int, len(clusters)) // cluster index -> ring ID
	for ci, g := range clusters {
		members := slices.Clone(g.order)
		slices.Sort(members)
		res.Clusters = append(res.Clusters, members)
		intraRingOf[ci] = -1
		if len(g.order) >= 2 {
			a.msgs = a.msgs[:0]
			for _, v := range g.order {
				for _, d := range a.out[v] {
					if clusterOf[d] == ci {
						a.msgs = append(a.msgs, arc{v, d})
					}
				}
			}
			intraRingOf[ci] = len(res.Rings)
			res.Rings = append(res.Rings, a.freeze(g.order, ring.Intra, 0, len(res.Rings), a.msgs))
		}
	}
	sort.Slice(res.Clusters, func(i, j int) bool { return res.Clusters[i][0] < res.Clusters[j][0] })

	// Escalation-level rings, level by level in group-formation order. A
	// group ring materialises only if it carries at least one escalated
	// message; a group whose members reached it only through already-carried
	// traffic would waste a sender per member. ringAt[level][node] is the
	// ring carrying the node's group at that level, -1 if none.
	firstUpper := len(res.Rings)
	ringAt := make([][]int, len(upper))
	for li, lv := range upper {
		groupOf := a.groupIndex(lv.groups)
		ringAt[li] = a.groupIndex(nil) // all -1
		for gi, g := range lv.groups {
			if len(g.order) < 2 {
				continue
			}
			a.msgs = a.msgs[:0]
			for _, i := range lv.pool {
				if m := app.Messages[i]; groupOf[m.Src] == gi && groupOf[m.Dst] == gi {
					a.msgs = append(a.msgs, arc{m.Src, m.Dst})
				}
			}
			if len(a.msgs) == 0 {
				continue
			}
			r := a.freeze(g.order, ring.Inter, li+1, len(res.Rings), a.msgs)
			res.Rings = append(res.Rings, r)
			for _, v := range g.order {
				ringAt[li][v] = r.ID
			}
		}
	}
	if len(upper) == 1 && len(res.Rings) == firstUpper+1 {
		res.InterRing = res.Rings[firstUpper]
	}

	res.RingForMessage = make([]int, len(app.Messages))
	for i, m := range app.Messages {
		if clusterOf[m.Src] == clusterOf[m.Dst] {
			res.RingForMessage[i] = intraRingOf[clusterOf[m.Src]]
			continue
		}
		// Carried at the lowest level where both endpoints share a group.
		res.RingForMessage[i] = -1 // cannot happen: the terminal ring holds everyone
		for _, at := range ringAt {
			if rid := at[m.Src]; rid >= 0 && rid == at[m.Dst] {
				res.RingForMessage[i] = rid
				break
			}
		}
		if rid := res.RingForMessage[i]; rid >= 0 && res.Rings[rid].Level >= 2 {
			res.Escalated++
		}
	}
	res.Levels = 1 + len(upper)
	return res
}

// freeze makes ring id from order, reversed if that shortens the longest
// signal path over the messages it carries.
func (a *arena) freeze(order []netlist.NodeID, kind ring.Kind, level, id int, carried []arc) *ring.Ring {
	if _, rev := ringOrderLongest(a.app, order, a.pos, a.prefix, carried); rev {
		order = (&ring.Ring{Order: order}).Reversed().Order
	}
	return &ring.Ring{ID: id, Kind: kind, Level: level, Order: order}
}
